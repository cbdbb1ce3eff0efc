"""Tree decompositions of the reduced graph, and the width threshold.

Decompositions come from elimination orderings (min-degree and min-fill,
keeping whichever is narrower); every returned decomposition is checked
against the two defining conditions before it leaves this module.  The
width threshold decides the early-Yes branch of the solver, which is only
sound against a treewidth lower bound, so degeneracy-style lower bounds
live here too.  Exact treewidth (for tiny graphs) backs the tests.
"""

import heapq
import math

from .errors import ContractViolation, InputError, SizeCapExceeded


class TreeDecomposition:
    """Bags indexed 0..N-1 plus tree edges among them; width = max bag - 1."""

    __slots__ = ("bags", "tree_edges", "width")

    def __init__(self, bags, edges):
        self.bags = tuple(frozenset(b) for b in bags)
        n = len(self.bags)
        if n == 0:
            raise ContractViolation("a decomposition needs at least one bag")
        neigh = [[] for _ in range(n)]
        seen = set()
        for a, b in edges:
            if not (0 <= a < n and 0 <= b < n) or a == b:
                raise ContractViolation("bad tree edge (%r, %r)" % (a, b))
            key = (min(a, b), max(a, b))
            if key in seen:
                raise ContractViolation("duplicate tree edge (%r, %r)" % (a, b))
            seen.add(key)
            neigh[a].append(b)
            neigh[b].append(a)
        self.tree_edges = tuple(tuple(sorted(lst)) for lst in neigh)
        if len(seen) != n - 1:
            raise ContractViolation("tree must have exactly %d edges, got %d"
                                    % (n - 1, len(seen)))
        # connectivity (with n-1 edges this also rules out cycles)
        stack = [0]
        reached = {0}
        while stack:
            for w in self.tree_edges[stack.pop()]:
                if w not in reached:
                    reached.add(w)
                    stack.append(w)
        if len(reached) != n:
            raise ContractViolation("decomposition tree is disconnected")
        self.width = max(len(b) for b in self.bags) - 1

    def __len__(self):
        return len(self.bags)


def validate_decomposition(graph, td):
    """Both defining conditions, checked exhaustively; raises on violation."""
    where = {}
    for i, bag in enumerate(td.bags):
        for v in bag:
            where.setdefault(v, set()).add(i)
    for v in graph.vertices:
        if v not in where:
            raise ContractViolation("vertex %r is in no bag" % v)
    for u in graph.vertices:
        for v in graph.adj[u]:
            if u < v and not (where[u] & where[v]):
                raise ContractViolation("edge {%r, %r} is in no bag" % (u, v))
    for v, nodeset in where.items():
        start = next(iter(nodeset))
        stack = [start]
        reached = {start}
        while stack:
            for w in td.tree_edges[stack.pop()]:
                if w in nodeset and w not in reached:
                    reached.add(w)
                    stack.append(w)
        if len(reached) != len(nodeset):
            raise ContractViolation(
                "bags containing %r do not form a connected subtree" % v)


def _adj_copy(graph):
    return {v: set(graph.adj[v]) for v in graph.vertices}


def _eliminate_vertex(adj, v):
    """Remove v and make its neighbourhood a clique; returns that
    neighbourhood, v's later neighbours in the filled-in graph."""
    nb = adj.pop(v)
    for a in nb:
        na = adj[a]
        na.discard(v)
        na |= nb
        na.discard(a)
    return nb


def _degree(adj, v):
    return len(adj[v])


def _fill_count(adj, v):
    """Fill edges that eliminating v would add: non-adjacent pairs in N(v)."""
    nb = adj[v]
    d = len(nb)
    inside = sum(len(adj[a] & nb) for a in nb)
    return (d * (d - 1) - inside) // 2


def _eliminate(graph, key):
    """Play the elimination game, greedily taking a vertex of least
    key(adj, v), then least id.

    Returns the order and, per position, the eliminated vertex's
    neighbourhood at that moment.  Heap entries are lazy: a popped entry
    whose key has changed is pushed back with the current key, which also
    covers min-fill keys that drop when a vertex two steps away goes.
    """
    adj = _adj_copy(graph)
    heap = [(key(adj, v), v) for v in adj]
    heapq.heapify(heap)
    order = []
    later = []
    while heap:
        p, v = heapq.heappop(heap)
        if v not in adj:
            continue
        actual = key(adj, v)
        if actual != p:
            heapq.heappush(heap, (actual, v))
            continue
        nb = _eliminate_vertex(adj, v)
        order.append(v)
        later.append(nb)
        for a in nb:
            heapq.heappush(heap, (key(adj, a), a))
    return order, later


def min_degree_order(graph):
    """Elimination order greedily taking a minimum-degree vertex (then id)."""
    return _eliminate(graph, _degree)[0]


def min_fill_order(graph):
    """Elimination order greedily taking a vertex whose elimination adds the
    fewest fill edges (then smallest id)."""
    return _eliminate(graph, _fill_count)[0]


def _assemble(order, later):
    """The decomposition recorded by an elimination game: bag p is order[p]
    plus its later neighbours, hung off the earliest-eliminated of them (or
    the next position, keeping the tree connected across components)."""
    pos = {v: p for p, v in enumerate(order)}
    last = len(order) - 1
    bags = []
    edges = []
    for p, (v, nb) in enumerate(zip(order, later)):
        bags.append(nb | {v})
        if nb:
            edges.append((p, min(pos[a] for a in nb)))
        elif p < last:
            edges.append((p, p + 1))
    return TreeDecomposition(bags, edges)


def decomposition_from_order(graph, order):
    """The elimination-game decomposition for a given vertex order.

    The bag of position p holds order[p] plus its not-yet-eliminated
    neighbours in the filled-in graph; each bag hangs off the position of
    the earliest-eliminated such neighbour (or the next position, keeping
    the tree connected across graph components).
    """
    if sorted(order) != sorted(graph.vertices):
        raise ContractViolation("order must enumerate the vertices exactly")
    adj = _adj_copy(graph)
    return _assemble(order, [_eliminate_vertex(adj, v) for v in order])


def heuristic_decomposition(graph):
    """The narrower of the min-degree and min-fill decompositions, validated.

    Ties go to min-degree, so min-fill is not played at all when the
    min-degree width already meets the degeneracy, a treewidth lower bound.
    The result is an upper-bound construction: its width is at least the
    true treewidth.
    """
    if graph.n == 0:
        raise ContractViolation("graph is empty")
    order, later = _eliminate(graph, _degree)
    width = max(len(nb) for nb in later)
    if width > _degeneracy(graph):
        fill_order, fill_later = _eliminate(graph, _fill_count)
        if max(len(nb) for nb in fill_later) < width:
            order, later = fill_order, fill_later
    best = _assemble(order, later)
    validate_decomposition(graph, best)
    return best


class NiceTreeDecomposition:
    """Rooted binary normal form: leaf / introduce / forget / join nodes.

    Nodes are stored in postorder (children precede parents; the root is
    the last index), which is the evaluation order of the solver's dynamic
    program.  Leaf and root bags are empty.
    """

    __slots__ = ("kinds", "acted", "children", "bags", "width")

    def __init__(self, kinds, acted, children, bags):
        self.kinds = tuple(kinds)
        self.acted = tuple(acted)
        self.children = tuple(tuple(c) for c in children)
        self.bags = tuple(frozenset(b) for b in bags)
        self.width = max(len(b) for b in self.bags) - 1
        self._check()

    @property
    def root(self):
        return len(self.kinds) - 1

    def __len__(self):
        return len(self.kinds)

    def _check(self):
        for i, kind in enumerate(self.kinds):
            bag = self.bags[i]
            kids = self.children[i]
            if any(c >= i for c in kids):
                raise ContractViolation("node %d is not in postorder" % i)
            if kind == "leaf":
                if kids or bag:
                    raise ContractViolation("leaf %d must be empty" % i)
            elif kind == "introduce":
                (c,) = kids
                v = self.acted[i]
                if v in self.bags[c] or bag != self.bags[c] | {v}:
                    raise ContractViolation(
                        "introduce %d must add exactly one vertex" % i)
            elif kind == "forget":
                (c,) = kids
                v = self.acted[i]
                if v not in self.bags[c] or bag != self.bags[c] - {v}:
                    raise ContractViolation(
                        "forget %d must drop exactly one vertex" % i)
            elif kind == "join":
                a, b = kids
                if not (self.bags[a] == self.bags[b] == bag):
                    raise ContractViolation(
                        "join %d needs two children with identical bags" % i)
            else:
                raise ContractViolation("unknown node kind %r" % kind)
        if self.bags[self.root]:
            raise ContractViolation("root bag must be empty")


def make_nice(td):
    """Convert a decomposition to the nice normal form; width is unchanged."""
    kinds = []
    acted = []
    children = []
    bags = []

    def emit(kind, act, kids, bag):
        kinds.append(kind)
        acted.append(act)
        children.append(kids)
        bags.append(bag)
        return len(kinds) - 1

    def chain(node, have, want):
        """Introduce/forget steps transforming bag `have` into bag `want`."""
        cur = set(have)
        for v in sorted(have - want):
            cur.discard(v)
            node = emit("forget", v, (node,), frozenset(cur))
        for v in sorted(want - have):
            cur.add(v)
            node = emit("introduce", v, (node,), frozenset(cur))
        return node

    # explicit post-order walk: decomposition trees can be very deep
    done = {}
    stack = [(0, -1, False)]
    while stack:
        i, parent, expanded = stack.pop()
        kids = [w for w in td.tree_edges[i] if w != parent]
        if not expanded:
            stack.append((i, parent, True))
            for w in kids:
                stack.append((w, i, False))
            continue
        bag = td.bags[i]
        branches = [chain(done[w], td.bags[w], bag) for w in kids]
        if not branches:
            leaf = emit("leaf", None, (), frozenset())
            done[i] = chain(leaf, frozenset(), bag)
            continue
        node = branches[0]
        for other in branches[1:]:
            node = emit("join", None, (node, other), bag)
        done[i] = node

    top = done[0]
    top = chain(top, td.bags[0], frozenset())
    assert top == len(kinds) - 1
    return NiceTreeDecomposition(kinds, acted, children, bags)


def width_threshold(k, delta):
    """The early-Yes width threshold: ceil(100 * delta^3 * sqrt(2k))."""
    if k < 1:
        raise InputError("k must be at least 1")
    if delta < 0:
        raise InputError("maximum degree cannot be negative")
    return math.ceil(100 * delta ** 3 * math.sqrt(2 * k))


def treewidth_lower_bound(graph):
    """max(degeneracy, contraction degeneracy): both are treewidth lower bounds.

    Degeneracy tracks the largest minimum degree seen while repeatedly
    deleting a minimum-degree vertex; the contraction variant instead merges
    the vertex into its smallest-degree neighbour (a minor), which can only
    raise the bound.
    """
    best = _degeneracy(graph)
    adj = _adj_copy(graph)
    while adj:
        v = min(adj, key=lambda u: (len(adj[u]), u))
        best = max(best, len(adj[v]))
        nb = adj.pop(v)
        for a in nb:
            adj[a].discard(v)
        if nb:
            target = min(nb, key=lambda u: (len(adj[u]), u))
            for a in nb:
                if a != target:
                    adj[target].add(a)
                    adj[a].add(target)
    return best


def _degeneracy(graph):
    """The largest minimum degree met while deleting minimum-degree vertices
    one by one; the value does not depend on how ties are broken."""
    deg = {v: len(graph.adj[v]) for v in graph.vertices}
    heap = [(d, v) for v, d in deg.items()]
    heapq.heapify(heap)
    best = 0
    while heap:
        d, v = heapq.heappop(heap)
        if deg.get(v) != d:
            continue
        best = max(best, d)
        del deg[v]
        for a in graph.adj[v]:
            if a in deg:
                deg[a] -= 1
                heapq.heappush(heap, (deg[a], a))
    return best


def exact_treewidth(graph, max_n=14):
    """Exact treewidth by the elimination-order subset DP (tiny graphs only)."""
    n = graph.n
    if n > max_n:
        raise SizeCapExceeded("exact treewidth capped at %d vertices" % max_n)
    verts = list(graph.vertices)
    idx = {v: i for i, v in enumerate(verts)}
    nbr = [0] * n
    for v in verts:
        for w in graph.adj[v]:
            nbr[idx[v]] |= 1 << idx[w]

    def q_size(smask, v):
        # vertices outside smask|{v} reachable from v through smask
        comp = 1 << v
        stack = [v]
        out = 0
        while stack:
            u = stack.pop()
            ext = nbr[u] & ~comp
            while ext:
                wbit = ext & -ext
                ext ^= wbit
                comp |= wbit
                w = wbit.bit_length() - 1
                if (smask >> w) & 1:
                    stack.append(w)
                else:
                    out |= wbit
        return bin(out).count("1")

    f = [0] * (1 << n)
    for mask in range(1, 1 << n):
        best = n
        rest = mask
        while rest:
            vbit = rest & -rest
            rest ^= vbit
            v = vbit.bit_length() - 1
            prev = mask ^ vbit
            cand = max(f[prev], q_size(prev, v))
            if cand < best:
                best = cand
        f[mask] = best
    return f[(1 << n) - 1]


def export_td(td, graph):
    """Serialize in the PACE .td text format (vertices remapped to 1..n)."""
    verts = sorted(graph.vertices)
    remap = {v: i + 1 for i, v in enumerate(verts)}
    lines = ["s td %d %d %d" % (len(td.bags), td.width + 1, len(verts))]
    for i, bag in enumerate(td.bags):
        body = " ".join(str(remap[v]) for v in sorted(bag))
        lines.append(("b %d %s" % (i + 1, body)).rstrip())
    for i in range(len(td.bags)):
        for j in td.tree_edges[i]:
            if i < j:
                lines.append("%d %d" % (i + 1, j + 1))
    return "\n".join(lines) + "\n"
