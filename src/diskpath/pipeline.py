"""End-to-end solver: disks in, Yes/No (and optionally a witness) out.

The stages run in the fixed order grid, marking, reduction, clique-cell
check (cycles), witness walk, width branch, decomposition, dynamic program;
every report carries per-stage timings and the structural statistics of the
intermediate artifacts.  The witness walk (see `witness`) answers Yes with
a validated greedy path or cycle on the reduced graph before anything is
decomposed; on a miss the stages after it run exactly as they would without
it, so every No comes from the dynamic program.  The width shortcut answers
Yes without a witness when a treewidth lower bound of the reduced graph
clears the threshold, so it is skipped when a witness was requested; with
the theoretical threshold it never fires at desk scale, and runs that
override the threshold are labeled non-certified.

One correction to the literal reduction for the cycle variant: a cycle
confined to a single cell can project below three vertices in the reduced
graph, so cells large enough to contain a k-vertex cycle outright (cells
are cliques) are answered before the reduced graph is consulted.

`solve` keeps nothing between calls: every request builds its own
artifacts and times its own stages.  Decomposition is per component and
on demand: a request that the witness walk did not answer decomposes only
the components whose total weight can hold its target.
"""

import time
from dataclasses import dataclass, field
from typing import Optional

from .decomposition import (
    heuristic_decomposition,
    treewidth_lower_bound,
    width_threshold,
)
from .dpsolver import max_weight_cycle, max_weight_path, orient_witness
from .errors import ContractViolation, InputError
from .geometry import DiskSet, build_clique_grid, build_udg
from .marking import MarkingBudgets, run_marking, validate_sequence
from .reduction import WeightedGraph, build_reduced, lift_solution
from .witness import long_walk


@dataclass(frozen=True)
class SolveRequest:
    disks: DiskSet
    k: int
    variant: str = "path"
    budgets: MarkingBudgets = field(default_factory=MarkingBudgets)
    want_witness: bool = False
    threshold_override: Optional[int] = None

    def __post_init__(self):
        if not isinstance(self.disks, DiskSet):
            raise InputError("disks must be a DiskSet, not %s"
                             % type(self.disks).__name__)
        if not isinstance(self.k, int) or self.k < 1:
            raise InputError("k must be a positive integer")
        if self.variant not in ("path", "cycle"):
            raise InputError("variant must be 'path' or 'cycle'")
        if self.threshold_override is not None and self.threshold_override < 0:
            raise InputError("threshold override cannot be negative")

    @property
    def k_effective(self):
        """Cycles need three vertices, so k <= 2 asks for any cycle."""
        return self.k if self.variant == "path" else max(self.k, 3)


@dataclass
class SolveReport:
    answer: str
    witness: Optional[list]
    branch: str
    stats: dict

    @property
    def is_yes(self):
        return self.answer == "yes"


def _staged(name, timings, fn, *args, **kwargs):
    start = time.perf_counter()
    try:
        result = fn(*args, **kwargs)
    except ContractViolation as exc:
        raise ContractViolation("stage %s: %s" % (name, exc)) from exc
    timings[name] = (time.perf_counter() - start) * 1000.0
    return result


def _components(reduced):
    """Connected components of the reduced graph, by smallest member id."""
    seen = set()
    out = []
    for start in reduced.vertices:
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        frontier = [start]
        while frontier:
            nxt = []
            for u in frontier:
                for v in reduced.adj[u]:
                    if v not in seen:
                        seen.add(v)
                        comp.append(v)
                        nxt.append(v)
            frontier = nxt
        out.append(sorted(comp))
    return out


def _subgraph(reduced, comp):
    cset = set(comp)
    weights = {v: reduced.weights[v] for v in comp}
    edges = [(u, v) for u in comp for v in reduced.adj[u]
             if u < v and v in cset]
    aggregates = {v: c for v, c in reduced.aggregates.items() if v in cset}
    back_map = {v: reduced.back_map[v] for v in aggregates}
    return WeightedGraph(comp, weights, edges, aggregates, back_map)


def _decomposed(reduced, comps, k_eff):
    """(subgraph, decomposition) for each component that can hold k_eff,
    narrowest first.

    A long path or cycle lives inside one component, so the solver can
    take the components one at a time and stop at the first that clears
    the target; ordering by width tries the cheap dynamic programs first.
    Components too light for the target are never decomposed.
    """
    parts = []
    for members, total in comps:
        if total >= k_eff:
            sub = _subgraph(reduced, members)
            parts.append((sub, heuristic_decomposition(sub)))
    parts.sort(key=lambda part: (part[1].width, part[0].vertices[0]))
    return parts


def _mark_histogram(rep, marks):
    hist = {}
    for cell in rep.cells:
        size = len(marks.marked_in(cell))
        hist[size] = hist.get(size, 0) + 1
    return dict(sorted(hist.items()))


def _checked_witness(graph, seq, variant, k_eff, stage):
    try:
        validate_sequence(seq, graph.has_edge, variant, n=graph.n)
    except ContractViolation as exc:
        raise ContractViolation("stage %s: witness invalid: %s"
                                % (stage, exc)) from exc
    if len(seq) < k_eff:
        raise ContractViolation("stage %s: witness has %d vertices, needs %d"
                                % (stage, len(seq), k_eff))
    return list(seq)


def solve(req):
    """Run the whole pipeline on one request and report the outcome."""
    k_eff = req.k_effective
    timings = {}
    graph = _staged("build_udg", timings, build_udg, req.disks)
    rep = _staged("clique_grid", timings, build_clique_grid, req.disks, graph)
    marks = _staged("marking", timings, run_marking, graph, rep, req.budgets)
    reduced = _staged("reduction", timings, build_reduced, graph, rep, marks)
    stats = {
        "n": graph.n,
        "m": graph.m,
        "k": req.k,
        "k_effective": k_eff,
        "variant": req.variant,
        "reduced_n": reduced.n,
        "reduced_m": reduced.m(),
        "delta": reduced.delta,
        "mark_histogram": _mark_histogram(rep, marks),
        "width": None,
        "certified": True,
        "timings": timings,
    }

    if req.variant == "cycle":
        # cells are cliques; a big enough cell is a Yes on its own, and it
        # is the one case the reduced graph cannot express as a cycle
        start = time.perf_counter()
        witness = None
        for cell in rep.cells:
            members = rep.members(cell)
            if len(members) >= k_eff:
                witness = sorted(members)[:k_eff]
                stats["clique_cell"] = cell
                break
        timings["cell_check"] = (time.perf_counter() - start) * 1000.0
        if witness is not None:
            witness = _checked_witness(graph, witness, "cycle", k_eff,
                                       "cell_check")
            return SolveReport("yes", witness if req.want_witness else None,
                               "dp", stats)

    threshold = (req.threshold_override if req.threshold_override is not None
                 else width_threshold(k_eff, reduced.delta))
    stats["threshold"] = threshold
    # the components and their total weights are charged to decomposition
    start = time.perf_counter()
    weights = reduced.weights
    comps = [(members, sum(weights[v] for v in members))
             for members in _components(reduced)]
    split_ms = (time.perf_counter() - start) * 1000.0
    timings["decomposition"] = split_ms

    # a validated greedy walk is a sound Yes at any width; on a miss the
    # exact pipeline below runs exactly as if it had not been tried
    start = time.perf_counter()
    walk = None
    for members, total in comps:
        if total >= k_eff:
            walk = long_walk(reduced.adj, weights, members, req.variant, k_eff)
            if walk is not None:
                break
    witness = None
    if walk is not None:
        try:
            lifted = lift_solution(orient_witness(walk, req.variant), reduced,
                                   req.variant)
        except ContractViolation as exc:
            raise ContractViolation("stage witness: %s" % exc) from exc
        witness = _checked_witness(graph, lifted, req.variant, k_eff,
                                   "witness")
    timings["witness"] = (time.perf_counter() - start) * 1000.0
    if witness is not None:
        return SolveReport("yes", witness if req.want_witness else None,
                           "witness", stats)

    # a component of s vertices is at most s - 1 wide, and the lower bound
    # never exceeds the width, so the bound is worth computing only once
    # the largest component clears the threshold
    max_size = max((len(members) for members, _ in comps), default=0)
    if not req.want_witness and max_size - 1 > threshold:
        bound = _staged("width_bound", timings, treewidth_lower_bound, reduced)
        stats["tw_lower_bound"] = bound
        if bound > threshold:
            stats["certified"] = req.threshold_override is None
            return SolveReport("yes", None, "shortcut", stats)

    parts = _staged("decomposition", timings, _decomposed, reduced, comps,
                    k_eff)
    timings["decomposition"] += split_ms
    stats["width"] = max((td.width for _, td in parts), default=0)

    solver = max_weight_path if req.variant == "path" else max_weight_cycle
    hit = None
    dp_ms = 0.0
    dp_nodes = dp_total = dp_peak = considered = 0
    for sub, td in parts:
        dp_stats = {}
        start = time.perf_counter()
        try:
            value, seq = solver(sub, decomposition=td, stats=dp_stats)
        except ContractViolation as exc:
            raise ContractViolation("stage dp: %s" % exc) from exc
        considered += 1
        dp_ms += (time.perf_counter() - start) * 1000.0
        dp_nodes += dp_stats.get("dp_nodes", 0)
        dp_total += dp_stats.get("dp_total_states", 0)
        dp_peak = max(dp_peak, dp_stats.get("dp_peak_states", 0))
        if value is not None and value >= k_eff:
            hit = (value, seq)
            break
    timings["dp"] = dp_ms
    stats["dp_nodes"] = dp_nodes
    stats["dp_total_states"] = dp_total
    stats["dp_peak_states"] = dp_peak
    stats["dp_components"] = len(comps)
    stats["dp_considered"] = considered

    if hit is None:
        return SolveReport("no", None, "dp", stats)
    witness = None
    if req.want_witness:
        lifted = _staged("lift", timings, lift_solution, hit[1], reduced,
                         req.variant)
        witness = _checked_witness(graph, lifted, req.variant, k_eff, "lift")
    return SolveReport("yes", witness, "dp", stats)
