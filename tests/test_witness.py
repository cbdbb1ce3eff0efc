import random

from diskpath.marking import MarkingBudgets, run_marking, validate_sequence
from diskpath.reduction import build_reduced
from diskpath.witness import long_walk

from helpers import components, random_instance


def _walks(adj, weights, vertices, target):
    """Every (variant, members, walk) long_walk returns on the graph."""
    out = []
    for comp in components(vertices, adj):
        members = sorted(comp)
        for variant in ("path", "cycle"):
            walk = long_walk(adj, weights, members, variant, target)
            if walk is not None:
                out.append((variant, members, walk))
    return out


def _check(walks, has_edge, weights, target):
    for variant, members, walk in walks:
        validate_sequence(walk, has_edge, variant)
        assert set(walk) <= set(members)
        assert sum(weights[v] for v in walk) >= target
        if variant == "cycle":
            assert len(walk) >= 3


def test_walks_on_random_udgs_validate():
    rng = random.Random(1101)
    found = {"path": 0, "cycle": 0}
    for trial in range(40):
        n = rng.randint(5, 60)
        _, graph, _ = random_instance(rng.randrange(2 ** 32), n,
                                      box=rng.uniform(3.0, 9.0))
        weights = dict.fromkeys(range(n), 1)
        for target in (1, 3, n // 3 + 1, n):
            walks = _walks(graph.adj, weights, range(n), target)
            _check(walks, graph.has_edge, weights, target)
            for variant, _, _ in walks:
                found[variant] += 1
            # the same inputs give the same walks
            assert walks == _walks(graph.adj, weights, range(n), target)
    assert found["path"] > 100 and found["cycle"] > 50


def test_walks_on_weighted_reduced_graphs_validate():
    rng = random.Random(1102)
    heavy = 0
    for trial in range(20):
        disks, graph, rep = random_instance(rng.randrange(2 ** 32), 40,
                                            box=rng.uniform(2.5, 5.0))
        reduced = build_reduced(graph, rep,
                                run_marking(graph, rep, MarkingBudgets(1, 1)))
        for target in (3, 10, 25):
            walks = _walks(reduced.adj, reduced.weights, reduced.vertices,
                           target)
            _check(walks, reduced.has_edge, reduced.weights, target)
            heavy += sum(1 for _, _, walk in walks
                         if any(v in reduced.aggregates for v in walk))
    assert heavy > 0


def test_chain_comes_back_whole():
    n = 9
    adj = {v: tuple(w for w in (v - 1, v + 1) if 0 <= w < n)
           for v in range(n)}
    weights = dict.fromkeys(range(n), 1)
    assert long_walk(adj, weights, list(range(n)), "path", 2) == \
        list(range(n))
    assert long_walk(adj, weights, list(range(n)), "path", n + 1) is None
    assert long_walk(adj, weights, list(range(n)), "cycle", 3) is None


def test_cycles_never_start_at_degree_one():
    # a triangle with nine pendant leaves: the nine lowest-degree vertices
    # are leaves, so a cycle is found only if they are not used as starts
    edges = [(0, 1), (1, 2), (0, 2)]
    edges += [(i % 3, 3 + i) for i in range(9)]
    neigh = {v: set() for v in range(12)}
    for u, v in edges:
        neigh[u].add(v)
        neigh[v].add(u)
    adj = {v: tuple(sorted(ws)) for v, ws in neigh.items()}
    weights = dict.fromkeys(adj, 1)
    assert long_walk(adj, weights, sorted(adj), "cycle", 3) == [0, 1, 2]
    assert long_walk(adj, weights, sorted(adj), "cycle", 4) is None
