"""Shared instance generators for the test suite."""

import random

from diskpath.geometry import DiskSet, build_clique_grid, build_udg


def random_points(rng, n, box):
    return [(rng.uniform(0.0, box), rng.uniform(0.0, box)) for _ in range(n)]


def random_instance(seed, n, box):
    """Seeded random disk instance; returns (disks, graph, rep)."""
    rng = random.Random(seed)
    disks = DiskSet(random_points(rng, n, box))
    graph = build_udg(disks)
    rep = build_clique_grid(disks, graph)
    return disks, graph, rep


def chain_points(n, spacing=1.9):
    """Collinear points whose unit disk graph is a path (for spacing in (1, 2])."""
    return [(i * spacing, 0.0) for i in range(n)]


def random_bitmask_graph(rng, n, p):
    """Adjacency bitmasks of a G(n, p) graph, for driving the kernels directly."""
    masks = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    return masks


def components(vertices, adj):
    """Connected components (as sets) of the graph given by an adjacency map."""
    seen = set()
    out = []
    for start in vertices:
        if start in seen:
            continue
        comp, stack = {start}, [start]
        while stack:
            for w in adj[stack.pop()]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        out.append(comp)
    return out
