import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diskpath import oracle
from diskpath.decomposition import (
    TreeDecomposition,
    decomposition_from_order,
    min_degree_order,
    min_fill_order,
)
from diskpath.dpsolver import max_weight_path, max_weight_cycle
from diskpath.errors import ContractViolation, InputError
from diskpath.reduction import WeightedGraph


def wg(n, edges, weights=None):
    return WeightedGraph(range(n), weights or {}, edges)


def random_weighted(rng, n, p, wmax=5):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    weights = {v: rng.randint(1, wmax) for v in range(n)}
    return WeightedGraph(range(n), weights, edges)


def check_path(g, value, seq):
    assert seq, "missing witness"
    assert len(set(seq)) == len(seq)
    assert g.weight_of(seq) == value
    for u, v in zip(seq, seq[1:]):
        assert g.has_edge(u, v)


def check_cycle(g, value, seq):
    check_path(g, value, seq)
    assert len(seq) >= 3
    assert g.has_edge(seq[-1], seq[0])


def test_three_chain():
    g = wg(3, [(0, 1), (1, 2)], {0: 1, 1: 2, 2: 3})
    assert max_weight_path(g) == (6, [0, 1, 2])
    assert max_weight_cycle(g) == (None, None)


def test_star_takes_two_leaves():
    g = wg(4, [(0, 1), (0, 2), (0, 3)])
    value, seq = max_weight_path(g)
    assert value == 3
    check_path(g, value, seq)
    assert seq[1] == 0


def test_triangle_path_and_cycle():
    g = wg(3, [(0, 1), (1, 2), (0, 2)], {0: 1, 1: 2, 2: 3})
    value, seq = max_weight_path(g)
    assert value == 6
    check_path(g, value, seq)
    cvalue, cseq = max_weight_cycle(g)
    assert cvalue == 6
    check_cycle(g, cvalue, cseq)
    assert cseq[0] == 0


def test_single_vertex():
    g = wg(1, [], {0: 7})
    assert max_weight_path(g) == (7, [0])
    assert max_weight_cycle(g) == (None, None)


def test_heavy_isolated_vertex_wins():
    g = wg(4, [(0, 1), (1, 2)], {0: 1, 1: 1, 2: 1, 3: 9})
    assert max_weight_path(g) == (9, [3])


def test_two_triangles_cycle_picks_heavier():
    g = wg(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)],
           {0: 1, 1: 1, 2: 1, 3: 2, 4: 2, 5: 2})
    value, seq = max_weight_cycle(g)
    assert value == 6
    assert sorted(seq) == [3, 4, 5]


def test_cycle_closed_at_a_join():
    # two branches of a four-cycle meet at a bag holding only its poles
    g = wg(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    td = TreeDecomposition([{0, 2}, {0, 1, 2}, {0, 2, 3}], [(0, 1), (0, 2)])
    value, seq = max_weight_cycle(g, decomposition=td)
    assert value == 4
    check_cycle(g, value, seq)
    assert max_weight_path(g, decomposition=td)[0] == 4


def test_weights_of_aggregates_count_fully():
    g = wg(3, [(0, 1), (1, 2)], {0: 5, 1: 1, 2: 3})
    value, seq = max_weight_path(g)
    assert (value, seq) == (9, [0, 1, 2])


def test_matches_oracle_on_random_graphs():
    rng = random.Random(501)
    for _ in range(120):
        n = rng.randint(1, 12)
        g = random_weighted(rng, n, rng.uniform(0.08, 3.5 / n))
        value, seq = max_weight_path(g)
        expect, _ = oracle.max_weight_path_bruteforce(g)
        assert value == expect
        check_path(g, value, seq)
        cvalue, cseq = max_weight_cycle(g)
        cexpect, _ = oracle.max_weight_cycle_bruteforce(g)
        assert cvalue == cexpect
        if cvalue is not None:
            check_cycle(g, cvalue, cseq)


def test_matches_oracle_on_dense_graphs():
    rng = random.Random(502)
    for _ in range(40):
        n = rng.randint(2, 8)
        g = random_weighted(rng, n, rng.uniform(0.4, 0.95))
        assert max_weight_path(g)[0] == \
            oracle.max_weight_path_bruteforce(g)[0]
        assert max_weight_cycle(g)[0] == \
            oracle.max_weight_cycle_bruteforce(g)[0]


def test_decomposition_choice_does_not_matter():
    rng = random.Random(503)
    for _ in range(40):
        n = rng.randint(2, 9)
        g = random_weighted(rng, n, rng.uniform(0.2, 0.6))
        results = set()
        cycles = set()
        for order_fn in (min_degree_order, min_fill_order):
            td = decomposition_from_order(g, order_fn(g))
            results.add(max_weight_path(g, decomposition=td)[0])
            cycles.add(max_weight_cycle(g, decomposition=td)[0])
        assert len(results) == 1
        assert len(cycles) == 1


def test_deterministic_witnesses():
    rng = random.Random(505)
    g = random_weighted(rng, 10, 0.3)
    assert max_weight_path(g) == max_weight_path(g)
    assert max_weight_cycle(g) == max_weight_cycle(g)


def test_stats_reported():
    g = wg(3, [(0, 1), (1, 2)])
    stats = {}
    max_weight_path(g, stats=stats)
    assert stats["dp_nodes"] > 0
    assert stats["dp_peak_states"] > 0
    assert stats["dp_total_states"] > 0


def test_input_validation():
    g = wg(2, [(0, 1)])
    with pytest.raises(InputError):
        max_weight_path(WeightedGraph([], {}, []))
    bad = TreeDecomposition([{0}], [])
    with pytest.raises(ContractViolation):
        max_weight_path(g, decomposition=bad)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 21 - 1), st.integers(2, 7))
def test_path_value_matches_enumeration(bits, n):
    edges = []
    b = 0
    for u in range(n):
        for v in range(u + 1, n):
            if (bits >> b) & 1:
                edges.append((u, v))
            b += 1
    weights = {v: (v % 3) + 1 for v in range(n)}
    g = WeightedGraph(range(n), weights, edges)
    value, seq = max_weight_path(g)
    assert value == oracle.max_weight_path_bruteforce(g)[0]
    check_path(g, value, seq)
