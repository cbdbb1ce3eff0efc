"""Brute-force oracles: frozen small cases, independence cross-checks, caps.

The DFS-memo and subset-DP oracles are implemented independently (top-down
search vs bottom-up table) so a bug in one shows up as disagreement; both
are additionally pinned against a plain permutation enumerator at tiny n.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diskpath.errors import InputError, SizeCapExceeded
from diskpath.geometry import DiskSet, UnitDiskGraph, build_clique_grid, build_udg
from diskpath.kernels import good_solution_search
from diskpath.marking import MarkingBudgets, MarkingResult, run_marking
from diskpath.oracle import (
    EnumerationLimits,
    canonical_cycle,
    canonical_path,
    check_good_cell_existence,
    longest_cycle_bruteforce,
    longest_path_bruteforce,
    max_weight_cycle_bruteforce,
    max_weight_path_bruteforce,
    two_oracle_agreement,
)
from helpers import random_bitmask_graph, random_instance


class _Weighted:
    """Minimal weighted-graph duck type accepted by the weighted oracles."""

    def __init__(self, n, edges, weights):
        self.n = n
        self.vertices = tuple(range(n))
        self.weights = {v: weights[v] for v in range(n)}
        self.adj = {v: sorted(u for a, b in edges for u in (a, b)
                              if v in (a, b) and u != v) for v in range(n)}

    def has_edge(self, u, v):
        return v in self.adj[u]


def _graph(n, edges):
    return UnitDiskGraph(n, edges)


def test_longest_path_small_cases():
    assert longest_path_bruteforce(_graph(3, [(0, 1), (1, 2), (0, 2)]))[0] == 3
    star = _graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    length, witness = longest_path_bruteforce(star)
    assert length == 3
    assert witness[1] == 0 and witness[0] < witness[2]


def test_longest_cycle_small_cases():
    tree = _graph(4, [(0, 1), (1, 2), (1, 3)])
    assert longest_cycle_bruteforce(tree) == (None, None)
    c5 = _graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    length, witness = longest_cycle_bruteforce(c5)
    assert length == 5
    assert witness == canonical_cycle(witness)


def test_single_vertex_counts_as_a_path():
    assert longest_path_bruteforce(_graph(1, [])) == (1, [0])
    assert longest_cycle_bruteforce(_graph(1, [])) == (None, None)


def test_canonicalization():
    assert canonical_path([3, 1, 2]) == [2, 1, 3]
    assert canonical_path([2, 1, 3]) == [2, 1, 3]
    assert canonical_cycle([2, 0, 1]) == [0, 1, 2]
    assert canonical_cycle([2, 1, 0]) == [0, 1, 2]
    assert canonical_cycle([5, 9, 4, 7]) == canonical_cycle([4, 9, 5, 7])


def test_size_caps_are_enforced():
    big = _graph(20, [(i, i + 1) for i in range(19)])
    with pytest.raises(SizeCapExceeded):
        longest_path_bruteforce(big)
    _, graph, rep = random_instance(5, 20, 8.0)
    marks = run_marking(graph, rep)
    with pytest.raises(SizeCapExceeded):
        check_good_cell_existence(graph, rep, marks, 3, "path")
    # the good-cell search reports a tripped node cap as status -1
    masks = random_bitmask_graph(random.Random(105), 9, 0.9)
    assert good_solution_search(masks, [0] * 9, [1] * 9, [0], 9, 0, 3) == \
        (-1, None)
    # limits themselves refuse caps beyond the representable range
    with pytest.raises(InputError):
        EnumerationLimits(max_n=17)
    with pytest.raises(InputError):
        EnumerationLimits(max_n=0)


def test_oracles_agree_on_random_instances():
    for seed in range(40):
        _, graph, _ = random_instance(1000 + seed, 4 + seed % 7, 6.0)
        p1, p2, c1, c2 = two_oracle_agreement(graph)
        assert p1 == p2
        assert c1 == c2


edge_sets = st.lists(
    st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(lambda e: e[0] != e[1]),
    max_size=16,
)


@given(edge_sets, st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_weighted_oracles_match_permutation_enumeration(raw, rng):
    n = 7
    edges = sorted({(min(a, b), max(a, b)) for a, b in raw})
    weights = [rng.randint(1, 5) for _ in range(n)]
    wg = _Weighted(n, edges, weights)

    best_path = max(
        (sum(weights[v] for v in perm), perm)
        for r in range(1, n + 1)
        for perm in itertools.permutations(range(n), r)
        if all(wg.has_edge(a, b) for a, b in zip(perm, perm[1:]))
    )[0]
    cycles = [
        sum(weights[v] for v in perm)
        for r in range(3, n + 1)
        for perm in itertools.permutations(range(n), r)
        if perm[0] == min(perm)
        and all(wg.has_edge(a, b) for a, b in zip(perm, perm[1:]))
        and wg.has_edge(perm[-1], perm[0])
    ]
    best_cycle = max(cycles) if cycles else None

    got_path, path_witness = max_weight_path_bruteforce(wg)
    got_cycle, cycle_witness = max_weight_cycle_bruteforce(wg)
    assert got_path == best_path
    assert got_cycle == best_cycle
    assert sum(weights[v] for v in path_witness) == best_path
    if best_cycle is not None:
        assert sum(weights[v] for v in cycle_witness) == best_cycle


def test_good_cell_single_cell_clique():
    disks = DiskSet([(0.1 * i, 0.1) for i in range(5)])
    graph = build_udg(disks)
    rep = build_clique_grid(disks, graph)
    marks = run_marking(graph, rep)
    for k, variant in ((4, "path"), (3, "cycle"), (5, "cycle")):
        res = check_good_cell_existence(graph, rep, marks, k, variant)
        assert res.holds and res.witness == [0, 1, 2, 3, 4]


def test_good_cell_two_cells_fully_marked():
    disks = DiskSet([(0.2, 0.5), (0.5, 0.5), (1.2, 0.5), (1.5, 0.5)])
    graph = build_udg(disks)
    rep = build_clique_grid(disks, graph)
    marks = run_marking(graph, rep)
    assert all(marks.is_marked(v) for v in range(4))
    res = check_good_cell_existence(graph, rep, marks, 4, "path")
    assert res.holds and res.witness is not None


def test_good_cell_vacuous_when_no_solution_is_long_enough():
    disks = DiskSet([(0.0, 0.0), (5.0, 5.0)])
    graph = build_udg(disks)
    rep = build_clique_grid(disks, graph)
    marks = run_marking(graph, rep)
    res = check_good_cell_existence(graph, rep, marks, 2, "path")
    assert res.holds and res.witness is None and res.counterexample is None


def test_good_cell_counterexample_bundle():
    # Fabricated empty marking: a cross-cell path can never make both cells
    # good, so the checker must report a counterexample, not loop forever.
    disks = DiskSet([(0.5, 0.5), (1.8, 0.5)])
    graph = build_udg(disks)
    rep = build_clique_grid(disks, graph)
    empty = MarkingResult({}, {cell: frozenset() for cell in rep.cells},
                          MarkingBudgets(1, 1), graph, rep)
    res = check_good_cell_existence(graph, rep, empty, 2, "path")
    assert not res.holds
    assert res.witness is None
    assert res.counterexample["n"] == 2
    assert res.counterexample["k"] == 2
    assert res.counterexample["variant"] == "path"
    assert res.counterexample["budgets"] == (1, 1)
    assert res.counterexample["best_solution"] == 2


def test_good_cell_random_sweep_small():
    rng = random.Random(77)
    for trial in range(60):
        n = rng.randint(2, 9)
        _, graph, rep = random_instance(2000 + trial, n, rng.choice([3.0, 5.0, 8.0]))
        marks = run_marking(graph, rep)
        k = rng.randint(1, n)
        variant = rng.choice(["path", "cycle"])
        assert check_good_cell_existence(graph, rep, marks, k, variant).holds
