"""Acceptance gate: eight checks, one test and one printed verdict each.

The corpus sizes, tolerances, and time budgets are part of the release
contract; loosening any of them is a release decision, not a test fix.
"""

import json
import math
import random
import re
import time

import pytest

from diskpath import oracle
from diskpath.cli import main
from diskpath.decomposition import (
    heuristic_decomposition,
    make_nice,
    validate_decomposition,
)
from diskpath.dpsolver import max_weight_cycle, max_weight_path
from diskpath.geometry import DiskSet, build_clique_grid, build_udg
from diskpath.marking import (
    MarkingBudgets,
    mark_star_bound,
    run_marking,
    validate_sequence,
)
from diskpath.pipeline import SolveRequest, solve
from diskpath.reduction import WeightedGraph, build_reduced

from helpers import random_points


def _passed(line):
    print("PASS  %s" % line)


def _box_for(n, rng):
    if n <= 8:
        return rng.uniform(2.0, 4.0)
    if n <= 11:
        return rng.uniform(4.0, 5.5)
    return rng.uniform(5.5, 7.5)


def _corpus(count, max_n, seed):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, max_n)
        pts = random_points(rng, n, _box_for(n, rng))
        out.append(DiskSet(pts))
    return out


@pytest.fixture(scope="module")
def shared_corpus():
    disk_sets = _corpus(200, 14, seed=20260814)
    bundles = []
    for disks in disk_sets:
        graph = build_udg(disks)
        plen, _ = oracle.longest_path_bruteforce(graph)
        clen, _ = oracle.longest_cycle_bruteforce(graph)
        bundles.append((disks, graph, plen, clen))
    return bundles


def test_criterion_1_pipeline_matches_oracle(shared_corpus):
    start = time.perf_counter()
    checks = 0
    for disks, graph, plen, clen in shared_corpus:
        for k in range(1, graph.n + 1):
            want = "yes" if plen >= k else "no"
            got = solve(SolveRequest(disks=disks, k=k)).answer
            assert got == want, (disks.points, k, "path", got, want)
            want = "yes" if clen is not None and clen >= max(k, 3) else "no"
            got = solve(SolveRequest(disks=disks, k=k,
                                     variant="cycle")).answer
            assert got == want, (disks.points, k, "cycle", got, want)
            checks += 2
    spent = time.perf_counter() - start
    assert spent < 300.0, "oracle equivalence exceeded its time budget"
    _passed("criterion 1: pipeline == oracle on %d instances "
            "(%d answers, %.1fs)" % (len(shared_corpus), checks, spent))


def test_criterion_2_reduced_dp_matches_oracle(shared_corpus):
    checks = 0
    for disks, graph, plen, clen in shared_corpus:
        rep = build_clique_grid(disks, graph)
        marks = run_marking(graph, rep)
        reduced = build_reduced(graph, rep, marks)
        pval, _ = max_weight_path(reduced)
        cval, _ = max_weight_cycle(reduced)
        # cycles wholly inside one cell can project below three reduced
        # vertices; the reduction contract hands that case to the caller
        biggest_cell = max(len(rep.members(c)) for c in rep.cells)
        for k in range(1, graph.n + 1):
            want = plen >= k
            got = pval is not None and pval >= k
            assert got == want, (disks.points, k, "path")
            floor = max(k, 3)
            want = clen is not None and clen >= floor
            got = (cval is not None and cval >= floor) \
                or biggest_cell >= floor
            assert got == want, (disks.points, k, "cycle")
            checks += 2
    _passed("criterion 2: dp on reduced graph == oracle on %d instances "
            "(%d answers)" % (len(shared_corpus), checks))


def test_criterion_3_marking_bound(shared_corpus):
    budget_mixes = [MarkingBudgets(1, 1), MarkingBudgets(2, 1),
                    MarkingBudgets(1, 2), MarkingBudgets(3, 2),
                    MarkingBudgets()]
    cells_checked = 0
    for i, (disks, graph, _, _) in enumerate(shared_corpus):
        rep = build_clique_grid(disks, graph)
        for budgets in budget_mixes:
            cap = mark_star_bound(budgets)
            marks = run_marking(graph, rep, budgets)
            for cell in rep.cells:
                assert len(marks.marked_in(cell)) <= cap, (i, cell, budgets)
                cells_checked += 1
    assert mark_star_bound(MarkingBudgets()) <= 10 ** 10
    _passed("criterion 3: |Mark*| within 24*q1 + 24*(24*q1)*q2 on %d "
            "cell/budget combinations" % cells_checked)


def test_criterion_4_good_cell_existence():
    rng = random.Random(41)
    holds = 0
    for trial in range(500):
        n = rng.randint(1, 10)
        pts = random_points(rng, n, rng.uniform(1.5, 5.0))
        disks = DiskSet(pts)
        graph = build_udg(disks)
        rep = build_clique_grid(disks, graph)
        marks = run_marking(graph, rep)
        k = rng.randint(1, n)
        variant = "cycle" if rng.random() < 0.5 else "path"
        result = oracle.check_good_cell_existence(graph, rep, marks, k,
                                                  variant)
        assert result.holds, (trial, pts, k, variant)
        holds += 1
    _passed("criterion 4: good-cell existence held on %d instances "
            "under full budgets" % holds)


def test_criterion_5_dp_matches_exhaustive():
    rng = random.Random(52)
    trials = 0
    for trial in range(300):
        n = rng.randint(1, 12)
        p = rng.uniform(0.1, 0.5 if n <= 9 else 0.35)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < p]
        weights = {v: rng.randint(1, 5) for v in range(n)}
        g = WeightedGraph(range(n), weights, edges)
        want_p, _ = oracle.max_weight_path_bruteforce(g)
        want_c, _ = oracle.max_weight_cycle_bruteforce(g)
        got_p, seq_p = max_weight_path(g)
        got_c, seq_c = max_weight_cycle(g)
        assert got_p == want_p, (trial, "path")
        assert got_c == want_c, (trial, "cycle")
        validate_sequence(seq_p, g.has_edge, "path")
        assert g.weight_of(seq_p) == got_p
        if got_c is not None:
            validate_sequence(seq_c, g.has_edge, "cycle")
            assert g.weight_of(seq_c) == got_c
        trials += 1
    _passed("criterion 5: weighted dp == exhaustive enumeration on %d "
            "graphs, witnesses re-validated" % trials)


def test_criterion_6_decompositions_valid():
    rng = random.Random(63)
    for trial in range(100):
        n = rng.randint(1, 16)
        p = rng.uniform(0.1, 0.6)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < p]
        g = WeightedGraph(range(n), {}, edges)
        td = heuristic_decomposition(g)
        validate_decomposition(g, td)
        nice = make_nice(td)
        widths = [len(b) - 1 for b in nice.bags]
        assert max(widths) == td.width, trial
    _passed("criterion 6: 100 heuristic decompositions validate and "
            "stay width-exact through make_nice")


def test_criterion_7_near_linear_scaling():
    # each n is timed as the best of three cold solves, so one collector
    # pause or host hiccup cannot decide the ratio on its own
    timings = []
    for n in (2000, 4000, 8000):
        rng = random.Random(7000 + n)
        box = math.sqrt(n / 0.25)
        pts = [(rng.uniform(0, box), rng.uniform(0, box))
               for _ in range(n)]
        spent = []
        for _ in range(3):
            start = time.perf_counter()
            report = solve(SolveRequest(disks=DiskSet(pts), k=8))
            spent.append(time.perf_counter() - start)
            assert report.stats["delta"] <= 12
        timings.append((n, min(spent)))
    for (n0, t0), (n1, t1) in zip(timings, timings[1:]):
        ratio = t1 / t0
        assert ratio <= 3.0, "time ratio %.2f from n=%d to n=%d" \
            % (ratio, n0, n1)
    detail = ", ".join("n=%d %.0fms" % (n, t * 1000) for n, t in timings)
    _passed("criterion 7: k=8 path wall time grows sub-3x per doubling "
            "(%s)" % detail)


def test_criterion_8_json_determinism(tmp_path, capsys):
    inst = tmp_path / "inst.txt"
    assert main(["gen", "--kind", "uniform", "--n", "13", "--box", "5",
                 "--seed", "88", "--out", str(inst)]) == 0
    capsys.readouterr()
    reports = []
    for _ in range(2):
        code = main(["solve", str(inst), "--k", "4", "--variant", "cycle",
                     "--witness", "--json"])
        out = capsys.readouterr().out
        assert code in (0, 1)
        json.loads(out)
        reports.append(re.sub(r'"timings": \{[^}]*\}', '"timings": {}',
                              out))
    assert reports[0] == reports[1]
    _passed("criterion 8: repeated solve runs emit byte-identical json "
            "outside the timings block")
