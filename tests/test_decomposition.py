import random

import pytest

from diskpath.decomposition import (
    NiceTreeDecomposition,
    TreeDecomposition,
    decomposition_from_order,
    exact_treewidth,
    export_td,
    heuristic_decomposition,
    make_nice,
    min_degree_order,
    min_fill_order,
    treewidth_lower_bound,
    validate_decomposition,
    width_threshold,
)
from diskpath.errors import ContractViolation, InputError, SizeCapExceeded
from diskpath.reduction import WeightedGraph

from helpers import components, random_instance


def wg(n, edges):
    return WeightedGraph(range(n), {}, edges)


def random_graph(rng, n, p):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return wg(n, edges)


def path_graph(n):
    return wg(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n):
    return wg(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def nice_as_plain(nice):
    edges = []
    for i, kids in enumerate(nice.children):
        for c in kids:
            edges.append((c, i))
    return TreeDecomposition(nice.bags, edges)


def test_path_graph_width_one():
    g = path_graph(8)
    td = heuristic_decomposition(g)
    assert td.width == 1
    assert exact_treewidth(g) == 1


def test_complete_graph_width():
    g = complete_graph(5)
    td = heuristic_decomposition(g)
    assert td.width == 4
    assert exact_treewidth(g) == 4
    assert treewidth_lower_bound(g) == 4


def test_cycle_and_grid_exact_widths():
    cyc = wg(6, [(i, (i + 1) % 6) for i in range(6)])
    assert exact_treewidth(cyc) == 2
    grid_edges = []
    for r in range(3):
        for c in range(3):
            v = 3 * r + c
            if c + 1 < 3:
                grid_edges.append((v, v + 1))
            if r + 1 < 3:
                grid_edges.append((v, v + 3))
    assert exact_treewidth(wg(9, grid_edges)) == 3


def test_width_threshold_examples():
    assert width_threshold(1, 1) == 142
    assert width_threshold(8, 2) == 3200
    with pytest.raises(InputError):
        width_threshold(0, 1)
    with pytest.raises(InputError):
        width_threshold(3, -1)


def test_tree_decomposition_shape_validation():
    with pytest.raises(ContractViolation):
        TreeDecomposition([], [])
    with pytest.raises(ContractViolation):
        TreeDecomposition([{0}, {1}], [])  # disconnected
    with pytest.raises(ContractViolation):
        TreeDecomposition([{0}, {1}], [(0, 1), (1, 0)])  # duplicate edge
    with pytest.raises(ContractViolation):
        TreeDecomposition([{0}], [(0, 0)])  # self loop
    with pytest.raises(ContractViolation):
        TreeDecomposition([{0}, {1}, {2}],
                          [(0, 1), (1, 2), (0, 2)])  # too many edges


def test_validator_catches_each_condition():
    g = path_graph(3)
    good = TreeDecomposition([{0, 1}, {1, 2}], [(0, 1)])
    validate_decomposition(g, good)
    with pytest.raises(ContractViolation, match="in no bag"):
        validate_decomposition(g, TreeDecomposition([{0, 1}, {1}], [(0, 1)]))
    with pytest.raises(ContractViolation, match="edge"):
        validate_decomposition(
            g, TreeDecomposition([{0, 1}, {2}], [(0, 1)]))
    with pytest.raises(ContractViolation, match="connected subtree"):
        validate_decomposition(
            g, TreeDecomposition([{0, 1}, {1, 2}, {0, 2}],
                                 [(0, 1), (1, 2)]))


def test_orders_enumerate_vertices():
    g = path_graph(5)
    assert sorted(min_degree_order(g)) == list(range(5))
    assert sorted(min_fill_order(g)) == list(range(5))
    with pytest.raises(ContractViolation):
        decomposition_from_order(g, [0, 1, 2])


def test_disconnected_graph_stays_one_tree():
    g = wg(6, [(0, 1), (2, 3), (4, 5)])
    td = heuristic_decomposition(g)
    validate_decomposition(g, td)
    assert td.width == 1


def test_heuristic_never_below_exact():
    rng = random.Random(401)
    for _ in range(60):
        n = rng.randint(2, 9)
        g = random_graph(rng, n, rng.uniform(0.15, 0.7))
        td = heuristic_decomposition(g)
        validate_decomposition(g, td)
        tw = exact_treewidth(g)
        assert treewidth_lower_bound(g) <= tw <= td.width


def test_make_nice_structure_and_width():
    rng = random.Random(402)
    for _ in range(100):
        n = rng.randint(1, 10)
        g = random_graph(rng, n, rng.uniform(0.1, 0.8))
        td = heuristic_decomposition(g)
        nice = make_nice(td)
        assert nice.width == td.width
        assert nice.kinds[nice.root] == "forget" or n == 0
        assert not nice.bags[nice.root]
        for i, kind in enumerate(nice.kinds):
            if kind == "leaf":
                assert not nice.bags[i]
        validate_decomposition(g, nice_as_plain(nice))


def test_make_nice_single_bag():
    td = TreeDecomposition([{3, 7}], [])
    nice = make_nice(td)
    kinds = [nice.kinds[i] for i in range(len(nice))]
    assert kinds == ["leaf", "introduce", "introduce", "forget", "forget"]
    assert nice.width == td.width == 1


def test_nice_constructor_rejects_malformed():
    with pytest.raises(ContractViolation, match="leaf"):
        NiceTreeDecomposition(["leaf"], [None], [()], [{1}])
    with pytest.raises(ContractViolation, match="introduce"):
        NiceTreeDecomposition(
            ["leaf", "introduce"], [None, 1], [(), (0,)], [set(), {1, 2}])
    with pytest.raises(ContractViolation, match="forget"):
        NiceTreeDecomposition(
            ["leaf", "introduce", "forget"], [None, 1, 2],
            [(), (0,), (1,)], [set(), {1}, {1}])
    with pytest.raises(ContractViolation, match="identical bags"):
        NiceTreeDecomposition(
            ["leaf", "introduce", "leaf", "join"], [None, 1, None, None],
            [(), (0,), (), (1, 2)], [set(), {1}, set(), {1}])
    with pytest.raises(ContractViolation, match="root bag"):
        NiceTreeDecomposition(
            ["leaf", "introduce"], [None, 1], [(), (0,)], [set(), {1}])


def test_exact_treewidth_size_cap():
    g = wg(15, [(i, i + 1) for i in range(14)])
    with pytest.raises(SizeCapExceeded):
        exact_treewidth(g)


def test_lower_bound_on_deep_structure():
    # contraction degeneracy sees through long subdivisions
    g = wg(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)])
    assert treewidth_lower_bound(g) >= 2


def test_export_td_format():
    g = path_graph(3)
    td = TreeDecomposition([{0, 1}, {1, 2}], [(0, 1)])
    text = export_td(td, g)
    assert text == "s td 2 2 3\nb 1 1 2\nb 2 2 3\n1 2\n"


def test_decomposition_deterministic():
    rng = random.Random(403)
    g = random_graph(rng, 9, 0.4)
    a = heuristic_decomposition(g)
    b = heuristic_decomposition(g)
    assert a.bags == b.bags and a.tree_edges == b.tree_edges


def _reference_decomposition(g):
    """Both elimination games replayed in full; the narrower wins, ties go
    to min-degree."""
    best = decomposition_from_order(g, min_degree_order(g))
    other = decomposition_from_order(g, min_fill_order(g))
    return other if other.width < best.width else best


def _grid_graph(rows, cols):
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return wg(rows * cols, edges)


def _udg_components(seed, n, box):
    _, graph, _ = random_instance(seed, n, box)
    return [WeightedGraph(comp, {}, [(u, v) for u in comp
                                     for v in graph.adj[u] if u < v])
            for comp in components(range(graph.n), graph.adj)]


def test_heuristic_matches_replayed_reference():
    rng = random.Random(404)
    graphs = [random_graph(rng, rng.randint(1, 30), rng.uniform(0.05, 0.6))
              for _ in range(80)]
    graphs += [_grid_graph(r, c) for r in range(1, 7) for c in range(r, 12)]
    for seed in (405, 406, 407):
        graphs += _udg_components(seed, 120, 9.0)
    fill_won = 0
    for g in graphs:
        got = heuristic_decomposition(g)
        want = _reference_decomposition(g)
        assert got.bags == want.bags
        assert got.tree_edges == want.tree_edges
        fill_won += got.width < decomposition_from_order(
            g, min_degree_order(g)).width
    assert fill_won > 0
