import random

import pytest

from diskpath import oracle, pipeline
from diskpath.errors import InputError
from diskpath.geometry import DiskSet, build_clique_grid, build_udg
from diskpath.marking import MarkingBudgets, run_marking
from diskpath.pipeline import SolveRequest, solve
from diskpath.reduction import build_reduced

from helpers import chain_points, components, random_instance


def ask(disks, k, variant="path", **kw):
    return solve(SolveRequest(disks=disks, k=k, variant=variant, **kw))


def test_chain_of_six():
    disks = DiskSet(chain_points(6))
    assert ask(disks, 6).answer == "yes"
    assert ask(disks, 7).answer == "no"
    assert ask(disks, 3, "cycle").answer == "no"


def test_single_disk():
    disks = DiskSet([(0.0, 0.0)])
    assert ask(disks, 1).answer == "yes"
    assert ask(disks, 2).answer == "no"
    assert ask(disks, 1, "cycle").answer == "no"


def test_request_validation():
    disks = DiskSet([(0.0, 0.0)])
    with pytest.raises(InputError):
        SolveRequest(disks=disks, k=0)
    with pytest.raises(InputError):
        SolveRequest(disks=disks, k=1, variant="tour")
    with pytest.raises(InputError):
        SolveRequest(disks=disks, k=1, threshold_override=-4)
    with pytest.raises(InputError):
        SolveRequest(disks=[(0.0, 0.0)], k=1)


def _assert_matches_oracle():
    rng = random.Random(601)
    for trial in range(60):
        n = rng.randint(1, 10)
        disks, graph, _ = random_instance(rng.randrange(2 ** 32), n,
                                          box=rng.uniform(2.0, 7.0))
        plen, _ = oracle.longest_path_bruteforce(graph)
        clen, _ = oracle.longest_cycle_bruteforce(graph)
        for k in range(1, n + 1):
            want = "yes" if plen >= k else "no"
            assert ask(disks, k).answer == want, (trial, k, "path")
            want = "yes" if clen is not None and clen >= max(k, 3) else "no"
            assert ask(disks, k, "cycle").answer == want, (trial, k, "cycle")


def test_matches_oracle_everywhere():
    _assert_matches_oracle()


def test_matches_oracle_everywhere_without_walk(no_walk):
    # every request reaches the dynamic program
    _assert_matches_oracle()


def test_witnesses_validate_and_meet_k():
    rng = random.Random(602)
    found = 0
    for trial in range(40):
        n = rng.randint(3, 10)
        disks, graph, _ = random_instance(rng.randrange(2 ** 32), n,
                                          box=rng.uniform(2.0, 5.0))
        for variant in ("path", "cycle"):
            for k in (1, 3, n // 2 + 1):
                report = ask(disks, k, variant, want_witness=True)
                if report.answer != "yes":
                    continue
                found += 1
                seq = report.witness
                assert seq is not None and len(seq) >= report.stats["k_effective"]
                assert len(set(seq)) == len(seq)
                for u, v in zip(seq, seq[1:]):
                    assert graph.has_edge(u, v)
                if variant == "cycle":
                    assert graph.has_edge(seq[-1], seq[0])
    assert found > 30


def test_monotone_in_k():
    rng = random.Random(603)
    for trial in range(15):
        disks, _, _ = random_instance(rng.randrange(2 ** 32),
                                      rng.randint(2, 10), box=4.0)
        for variant in ("path", "cycle"):
            answers = [ask(disks, k, variant).answer for k in range(1, 11)]
            assert "yes" not in answers[answers.index("no"):] \
                if "no" in answers else True


def test_translation_invariance():
    rng = random.Random(604)
    pts = [(rng.uniform(0, 5), rng.uniform(0, 5)) for _ in range(9)]
    moved = [(x + 137.25, y - 58.5) for x, y in pts]
    for k in range(1, 10):
        for variant in ("path", "cycle"):
            a = ask(DiskSet(pts), k, variant).answer
            b = ask(DiskSet(moved), k, variant).answer
            assert a == b


def test_single_cell_clique_cycle():
    pts = [(0.1 + 0.08 * i, 0.5) for i in range(8)]
    disks = DiskSet(pts)
    report = ask(disks, 8, "cycle", want_witness=True)
    assert report.answer == "yes"
    assert report.stats.get("clique_cell") is not None
    assert len(report.witness) == 8
    report = ask(disks, 9, "cycle")
    assert report.answer == "no"


def test_cycle_floor_for_tiny_k():
    pts = [(0.0, 0.0), (1.5, 0.0), (0.75, 1.2)]
    report = ask(DiskSet(pts), 1, "cycle")
    assert report.answer == "yes"
    assert report.stats["k_effective"] == 3


def test_shortcut_override_is_labeled(no_walk):
    disks = DiskSet(chain_points(6))
    report = ask(disks, 3, threshold_override=0)
    assert report.answer == "yes"
    assert report.branch == "shortcut"
    assert report.stats["certified"] is False
    assert report.witness is None
    # a witness request must bypass the shortcut entirely
    report = ask(disks, 3, threshold_override=0, want_witness=True)
    assert report.branch == "dp"
    assert report.witness is not None


def test_default_threshold_never_fires_at_desk_scale(no_walk):
    disks = DiskSet(chain_points(8))
    report = ask(disks, 4)
    assert report.branch == "dp"
    assert report.stats["threshold"] >= 142


def test_report_stats_shape(no_walk):
    disks, _, _ = random_instance(605, 9, box=3.0)
    report = ask(disks, 3)
    stats = report.stats
    for key in ("n", "m", "delta", "width", "mark_histogram",
                "dp_peak_states", "timings"):
        assert key in stats, key
    assert stats["n"] == 9
    for stage in ("build_udg", "clique_grid", "marking", "reduction",
                  "decomposition", "dp"):
        assert stage in stats["timings"], stage
    assert sum(stats["mark_histogram"].values()) == len(
        build_clique_grid(disks, build_udg(disks)).cells)
    assert stats["width"] >= 0


def test_determinism_modulo_timings(monkeypatch):
    # both solves build their own graph, so each times its own stages
    built = []
    real = pipeline.build_udg

    def counting(disks):
        built.append(disks)
        return real(disks)

    monkeypatch.setattr(pipeline, "build_udg", counting)
    disks, _, _ = random_instance(606, 10, box=4.0)
    a = ask(disks, 4, "cycle", want_witness=True)
    b = ask(disks, 4, "cycle", want_witness=True)
    assert len(built) == 2
    sa = {k: v for k, v in a.stats.items() if k != "timings"}
    sb = {k: v for k, v in b.stats.items() if k != "timings"}
    assert (a.answer, a.branch, a.witness) == (b.answer, b.branch, b.witness)
    assert sa == sb


def test_budgets_are_honored():
    disks, _, _ = random_instance(608, 12, box=4.0)
    tight = ask(disks, 2, budgets=MarkingBudgets(1, 1))
    default = ask(disks, 2)
    total = lambda h: sum(size * count for size, count in h.items())
    assert total(tight.stats["mark_histogram"]) <= \
        total(default.stats["mark_histogram"])


def _reduced_components(disks):
    """Vertex tuple -> total weight for each component of the reduced graph."""
    graph = build_udg(disks)
    rep = build_clique_grid(disks, graph)
    reduced = build_reduced(graph, rep, run_marking(graph, rep))
    return {tuple(sorted(comp)): sum(reduced.weights[v] for v in comp)
            for comp in components(reduced.vertices, reduced.adj)}


def _count_decompositions(monkeypatch):
    """Record the vertex set of every decomposition the pipeline builds
    from now on."""
    calls = []
    real = pipeline.heuristic_decomposition

    def counting(graph):
        calls.append(graph.vertices)
        return real(graph)

    monkeypatch.setattr(pipeline, "heuristic_decomposition", counting)
    return calls


def test_decomposes_only_components_that_can_hold_k(monkeypatch, no_walk):
    calls = _count_decompositions(monkeypatch)
    # a 7-disk chain, a triangle, a pair and a lone disk, far apart
    pts = chain_points(7)
    pts += [(40.0, 0.0), (41.2, 0.3), (40.5, 1.1)]
    pts += [(80.0, 0.0), (81.5, 0.0)]
    pts += [(120.0, 0.0)]
    disks = DiskSet(pts)
    totals = _reduced_components(disks)
    assert sorted(totals.values()) == [1, 2, 3, 7]
    graph = build_udg(disks)
    plen, _ = oracle.longest_path_bruteforce(graph)
    clen, _ = oracle.longest_cycle_bruteforce(graph)

    # a k sweep from the top: each request may decompose only components
    # whose weight can hold its target, and none twice
    widths = {}
    for k in range(9, 0, -1):
        for variant in ("cycle", "path"):
            before = len(calls)
            report = ask(disks, k, variant)
            widths[k, variant] = report.stats["width"]
            k_eff = report.stats["k_effective"]
            mine = calls[before:]
            for verts in mine:
                assert totals[verts] >= k_eff, (k, variant, verts)
            assert len(mine) == len(set(mine)), (k, variant)
            best = plen if variant == "path" else clen or 0
            assert report.answer == ("yes" if best >= k_eff else "no")
        if k >= 8:
            assert calls == []
    assert set(calls) == set(totals)
    # the reported width does not depend on what earlier requests built
    for (k, variant), width in widths.items():
        assert ask(disks, k, variant).stats["width"] == width, (k, variant)
    assert widths[7, "path"] == 1


def test_witness_branch_decomposes_nothing(monkeypatch):
    calls = _count_decompositions(monkeypatch)
    disks, graph, _ = random_instance(609, 30, box=4.0)
    for variant in ("path", "cycle"):
        report = ask(disks, 12, variant, want_witness=True)
        assert report.branch == "witness", variant
        assert report.answer == "yes"
        assert report.stats["width"] is None
        assert "witness" in report.stats["timings"]
        assert "dp" not in report.stats["timings"]
        seq = report.witness
        assert len(seq) >= 12 and len(set(seq)) == len(seq)
        assert all(graph.has_edge(u, v) for u, v in zip(seq, seq[1:]))
        if variant == "cycle":
            assert graph.has_edge(seq[-1], seq[0])
        # without a witness request the answer carries none
        assert ask(disks, 12, variant).witness is None
    assert calls == []
