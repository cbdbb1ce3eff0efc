"""Two-phase marking over a clique-grid, and good/bad classification.

Phase I walks every unordered pair of occupied cells within Chebyshev
distance 2 and computes a greedy maximal matching over the cross edges
(sorted by (min id, max id)), truncated to the first q1 edges; matched
endpoints are marked.  Phase II lets every Phase-I-marked vertex mark up to
q2 of its smallest-id neighbours in each neighbouring cell.  Both budgets
default to the values that give the |Mark*(i,j)| <= 24*q1 + 24*(24*q1)*q2
per-cell bound.

The scheme is deliberately deterministic (the underlying math allows any
maximal matching / any neighbour subset): ties always break toward smaller
vertex ids and row-major cell order, so runs are reproducible.
"""

from dataclasses import dataclass

from .errors import ContractViolation, InputError

INTRA_CELL = "intra_cell"
GOOD = "good"
BAD = "bad"
NICE_NOT_GOOD = "nice_not_good"


@dataclass(frozen=True)
class MarkingBudgets:
    q1: int = 241
    q2: int = 121

    def __post_init__(self):
        if self.q1 < 1 or self.q2 < 1:
            raise InputError("marking budgets must be at least 1")


class MarkingResult:
    """Per-cell marked sets plus the Phase-I matchings that produced them."""

    __slots__ = ("mark1_pairs", "mark_star", "budgets", "graph", "rep", "_marked")

    def __init__(self, mark1_pairs, mark_star, budgets, graph, rep):
        self.mark1_pairs = mark1_pairs
        self.mark_star = mark_star
        self.budgets = budgets
        self.graph = graph
        self.rep = rep
        flags = bytearray(graph.n)
        for cell_set in mark_star.values():
            for v in cell_set:
                flags[v] = 1
        self._marked = flags

    def is_marked(self, v):
        return bool(self._marked[v])

    def marked_in(self, cell):
        return self.mark_star.get(cell, frozenset())

    def unmarked_in(self, cell):
        return tuple(v for v in self.rep.members(cell) if not self._marked[v])


def run_marking(graph, rep, budgets=MarkingBudgets()):
    """Run both phases; returns the MarkingResult for (graph, rep).

    Each scan groups a vertex's neighbours by cell once, keeping only the
    other cells within Chebyshev distance 2 of its own (the clique grid
    puts every edge within that distance).
    """
    occupied = rep.cells
    cell_of = rep.cell_of
    mark1_pairs = {}
    mark1_by_cell = {cell: set() for cell in occupied}

    for c1 in occupied:  # dict is sorted row-major at construction
        i, j = c1
        cross_by_cell = {}
        for u in occupied[c1]:
            for v in graph.adj[u]:
                c2 = cell_of[v]
                # c2 > c1 takes each unordered pair once
                if c2 > c1 and abs(c2[0] - i) <= 2 and abs(c2[1] - j) <= 2:
                    cross_by_cell.setdefault(c2, []).append(
                        (u, v) if u < v else (v, u))
        for c2 in sorted(cross_by_cell):
            used = set()
            matching = []
            for a, b in sorted(cross_by_cell[c2]):
                if a in used or b in used:
                    continue
                used.add(a)
                used.add(b)
                u, v = (a, b) if cell_of[a] == c1 else (b, a)
                matching.append((u, v))
                mark1_by_cell[c1].add(u)
                mark1_by_cell[c2].add(v)
                if len(matching) == budgets.q1:
                    break
            mark1_pairs[(c1, c2)] = tuple(matching)

    mark2_by_cell = {cell: set() for cell in occupied}
    for c1 in occupied:
        i, j = c1
        for v in mark1_by_cell[c1]:
            by_cell = {}
            for w in graph.adj[v]:  # ascending ids, so each bucket is too
                c2 = cell_of[w]
                if c2 != c1 and abs(c2[0] - i) <= 2 and abs(c2[1] - j) <= 2:
                    by_cell.setdefault(c2, []).append(w)
            for c2, ws in by_cell.items():
                mark2_by_cell[c2].update(ws[:budgets.q2])

    mark_star = {
        cell: frozenset(mark1_by_cell[cell] | mark2_by_cell[cell])
        for cell in occupied
    }
    return MarkingResult(mark1_pairs, mark_star, budgets, graph, rep)


def mark_star_bound(budgets):
    """Per-cell cap on |Mark*(i,j)|: 24 neighbouring cells can contribute
    q1 matched vertices each in Phase I, and each of their Phase-I vertices
    can mark q2 more in Phase II."""
    return 24 * budgets.q1 + 24 * (24 * budgets.q1) * budgets.q2


def classify_edge(e, rep, marks):
    """intra_cell / good / bad, per the marked-endpoints rule."""
    u, v = e
    if not marks.graph.has_edge(u, v):
        raise ContractViolation("edge {%d, %d} is not in the graph" % (u, v))
    cu = rep.cell_of[u]
    cv = rep.cell_of[v]
    if cu == cv:
        return INTRA_CELL
    if marks.is_marked(u) and marks.is_marked(v):
        return GOOD
    return BAD


def validate_sequence(seq, has_edge, variant, n=None):
    """Check that seq is a simple path (or cycle, >= 3 vertices) under has_edge."""
    if variant not in ("path", "cycle"):
        raise ContractViolation("unknown variant %r" % variant)
    if not seq:
        raise ContractViolation("empty vertex sequence")
    if len(set(seq)) != len(seq):
        raise ContractViolation("sequence repeats a vertex")
    if n is not None:
        for v in seq:
            if not 0 <= v < n:
                raise ContractViolation("vertex %r out of range" % (v,))
    for a, b in zip(seq, seq[1:]):
        if not has_edge(a, b):
            raise ContractViolation("consecutive vertices %d, %d not adjacent" % (a, b))
    if variant == "cycle":
        if len(seq) < 3:
            raise ContractViolation("cycles need at least 3 vertices")
        if not has_edge(seq[-1], seq[0]):
            raise ContractViolation("cycle does not close: %d, %d not adjacent"
                                    % (seq[-1], seq[0]))


def classify_cell(seq, cell, rep, marks, variant="path"):
    """good / nice_not_good / bad for one cell with respect to a solution.

    A cell is good when the solution either avoids its unmarked vertices,
    consists of exactly its unmarked vertices, or traverses all of them as
    the interior of a single subpath flanked by marked vertices of the cell
    (path endpoints lying in the cell may stand in as flanks).  Nice relaxes
    "all of them" to "all of the visited ones".
    """
    graph = marks.graph
    validate_sequence(seq, graph.has_edge, variant, graph.n)
    if _cell_condition(seq, cell, rep, marks, variant, strict=True):
        return GOOD
    if _cell_condition(seq, cell, rep, marks, variant, strict=False):
        return NICE_NOT_GOOD
    return BAD


def _cell_condition(seq, cell, rep, marks, variant, strict):
    members = set(rep.members(cell))
    mstar = marks.mark_star.get(cell, frozenset())
    unmarked = members - mstar
    pset = set(seq)
    if strict:
        if pset == unmarked:  # (i)
            return True
    elif pset <= unmarked:
        return True
    if not (pset & unmarked):  # (ii)
        return True
    # (iii): one subpath whose interior is exactly the (visited) unmarked set
    pos = {v: i for i, v in enumerate(seq)}
    if variant == "path":
        cands = sorted((pset & mstar) | ({seq[0], seq[-1]} & members))
        for ai in range(len(cands)):
            for bi in range(ai + 1, len(cands)):
                u, v = cands[ai], cands[bi]
                lo, hi = sorted((pos[u], pos[v]))
                internal = set(seq[lo + 1:hi])
                want = (unmarked if strict else pset & unmarked) - {u, v}
                if internal == want:
                    return True
        return False
    r = len(seq)
    cands = sorted(pset & mstar)
    for u in cands:
        for v in cands:
            want = (unmarked if strict else pset & unmarked) - {u, v}
            if u == v:
                if pset - {u} == want:
                    return True
                continue
            internal = set()
            i = (pos[u] + 1) % r
            while i != pos[v]:
                internal.add(seq[i])
                i = (i + 1) % r
            if internal == want:
                return True
    return False
