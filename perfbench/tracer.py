"""Spans and counters for the traced run, recorded from outside the solver.

The tracer replaces module attributes with timing wrappers: the stage
functions that ``diskpath.pipeline`` imports by name, plus
``diskpath.kernels.udg_edges`` (looked up through the module by
``build_udg``) and ``diskpath.dpsolver.make_nice``.  Every ``solve`` call is
a root span; a wrapped call made while a solve runs is a span whose parent
is the innermost open span.  Spans stay in memory until the run ends.

Self time is a span's duration minus the time its child spans cover.  Counts
come from the values the wrappers see (arguments, results and the DP stats
dict), read after the solve returned so that no span pays for them, and
only for the first `prefix` solves, so a run total repeats exactly for a
given seed whatever the run length.
"""

import json
import time

PIPELINE_NAMES = (
    "build_udg", "build_clique_grid", "run_marking", "build_reduced",
    "heuristic_decomposition", "treewidth_lower_bound", "max_weight_path",
    "max_weight_cycle", "lift_solution", "validate_sequence",
)
DP_NAMES = ("max_weight_path", "max_weight_cycle")

# per-layer self time per solve, metric -> span names
SELF_MS = {
    "pipeline.self_ms": ("solve",),
    "kernels.udg_edges_ms": ("udg_edges",),
    "geometry.build_udg_ms": ("build_udg",),
    "geometry.clique_grid_ms": ("build_clique_grid",),
    "marking.run_ms": ("run_marking",),
    "marking.validate_ms": ("validate_sequence",),
    "reduction.build_ms": ("build_reduced",),
    "reduction.lift_ms": ("lift_solution",),
    "decomposition.heuristic_ms": ("heuristic_decomposition",),
    "decomposition.make_nice_ms": ("make_nice",),
    "dpsolver.ms": DP_NAMES,
}

# counts over the prefix; two traced runs at one seed must agree on these
EXACT = {
    "geometry.edges": "count",
    "marking.marked_share": "share",
    "reduction.kept_share": "share",
    "decomposition.heuristic_calls": "count",
    "decomposition.width_max": "width",
    "decomposition.used_share": "share",
    "dpsolver.calls": "count",
    "dpsolver.nodes": "count",
    "dpsolver.states_total": "states",
    "dpsolver.states_peak": "states",
}


UNITS = {metric: "ms" for metric in SELF_MS}
UNITS.update(EXACT)
UNITS.update({
    "pipeline.artifact_hit_share": "share",
    "dpsolver.states_per_ms": "states/ms",
    "dpsolver.time_share": "share",
    "traced.solves_per_s": "1/s",
})


class Span:
    __slots__ = ("name", "start", "end", "parent", "solve")

    def __init__(self, name, parent, solve):
        self.name = name
        self.parent = parent
        self.solve = solve
        self.start = self.end = 0.0


class _Counts:
    def __init__(self):
        self.edges = 0
        self.marked = self.marked_of = 0
        self.kept = self.kept_of = 0
        self.decomposed = 0
        self.width_max = 0
        self.dp_parts = {}  # id -> decomposition; holding it keeps ids unique
        self.dp_calls = self.dp_nodes = self.states_total = self.states_peak = 0

    def add(self, name, args, kwargs, result):
        if name == "build_udg":
            self.edges += result.m
        elif name == "run_marking":
            graph, rep = args[0], args[1]
            self.marked += sum(len(result.marked_in(c)) for c in rep.cells)
            self.marked_of += graph.n
        elif name == "build_reduced":
            self.kept += result.n
            self.kept_of += args[0].n
        elif name == "heuristic_decomposition":
            self.decomposed += 1
            self.width_max = max(self.width_max, result.width)
        elif name in DP_NAMES:
            td = kwargs.get("decomposition")
            self.dp_parts[id(td)] = td
            stats = kwargs.get("stats") or {}
            self.dp_calls += 1
            self.dp_nodes += stats.get("dp_nodes", 0)
            self.states_total += stats.get("dp_total_states", 0)
            self.states_peak = max(self.states_peak,
                                   stats.get("dp_peak_states", 0))

    def metrics(self):
        return {
            "geometry.edges": self.edges,
            "marking.marked_share": _share(self.marked, self.marked_of),
            "reduction.kept_share": _share(self.kept, self.kept_of),
            "decomposition.heuristic_calls": self.decomposed,
            "decomposition.width_max": self.width_max,
            "decomposition.used_share": _share(len(self.dp_parts),
                                               self.decomposed),
            "dpsolver.calls": self.dp_calls,
            "dpsolver.nodes": self.dp_nodes,
            "dpsolver.states_total": self.states_total,
            "dpsolver.states_peak": self.states_peak,
        }


def _share(part, whole):
    return part / whole if whole else 0.0


class Tracer:
    def __init__(self, prefix):
        self.prefix = prefix
        self.spans = []
        self.solves = 0
        self.hits = 0
        self._counts = _Counts()
        self._stack = []
        self._solve = None
        self._calls = []
        self._patched = []

    def install(self, lib):
        for name in PIPELINE_NAMES:
            self._patch(lib.pipeline, name)
        self._patch(lib.kernels, "udg_edges")
        self._patch(lib.dpsolver, "make_nice")

    def uninstall(self):
        for module, name, fn in reversed(self._patched):
            setattr(module, name, fn)
        self._patched.clear()

    def _patch(self, module, name):
        fn = getattr(module, name)
        self._patched.append((module, name, fn))
        setattr(module, name, self._wrap(name, fn))

    def _wrap(self, name, fn):
        spans, stack, calls = self.spans, self._stack, self._calls

        def traced(*args, **kwargs):
            if self._solve is None:
                return fn(*args, **kwargs)
            span = Span(name, stack[-1], self._solve)
            spans.append(span)
            stack.append(len(spans) - 1)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            calls.append((name, args, kwargs, result))
            return result

        return traced

    def begin_solve(self):
        self.spans.append(Span("solve", None, self.solves))
        self._stack.append(len(self.spans) - 1)
        self._solve = self.solves

    def end_solve(self, start, end):
        """Close the root span with the caller's own clock readings."""
        root = self.spans[self._stack.pop()]
        root.start, root.end = start, end
        self._solve = None
        if not any(c[0] == "build_udg" for c in self._calls):
            self.hits += 1
        if self.solves < self.prefix:
            for call in self._calls:
                self._counts.add(*call)
        self._calls.clear()
        self.solves += 1

    def exact_counts(self):
        return self._counts.metrics()

    def metrics(self, loop_s):
        """Per-layer metrics: self ms per solve, counts over the prefix."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.end - span.start
        by_name = {}
        prefix_dp = solve_total = 0.0
        for span, child in zip(self.spans, covered):
            own = (span.end - span.start - child) * 1000.0
            by_name[span.name] = by_name.get(span.name, 0.0) + own
            if span.name == "solve":
                solve_total += (span.end - span.start) * 1000.0
            elif span.name in DP_NAMES and span.solve < self.prefix:
                prefix_dp += own
        n = max(self.solves, 1)
        out = {metric: sum(by_name.get(s, 0.0) for s in names) / n
               for metric, names in SELF_MS.items()}
        counts = self.exact_counts()
        out.update(counts)
        out["pipeline.artifact_hit_share"] = self.hits / n
        out["dpsolver.states_per_ms"] = _share(counts["dpsolver.states_total"],
                                               prefix_dp)
        out["dpsolver.time_share"] = _share(out["dpsolver.ms"] * n,
                                            solve_total)
        out["traced.solves_per_s"] = self.solves / loop_s if loop_s else 0.0
        return out

    def write(self, path):
        with open(path, "w", encoding="ascii") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "solve": s.solve}) + "\n")
