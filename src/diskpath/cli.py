"""Command-line front end: generate, solve, verify, and render instances.

Answers travel by exit code so shell pipelines need no parsing: 0 means
yes (or, for verify, agreement), 1 means no (or disagreement), 2 means the
command could not run.  All output is deterministic for fixed flags and
seeds; `--json` emits one object with a stable key order.
"""

import argparse
import json
import math
import random
import sys
from dataclasses import dataclass

from . import oracle
from .errors import DiskpathError, InputError
from .geometry import build_udg, format_instance, read_instance
from .marking import MarkingBudgets
from .pipeline import SolveRequest, solve
from .render import render_svg

_KINDS = ("uniform", "clusters", "chain", "lattice")


@dataclass(frozen=True)
class GeneratorSpec:
    kind: str
    n: int
    box: float = 10.0
    seed: int = 0
    clusters: int = 3
    spread: float = 0.75
    spacing: float = 1.9
    pitch: float = 1.5

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InputError("kind must be one of %s" % ", ".join(_KINDS))
        if self.n < 1:
            raise InputError("n must be at least 1")
        if not self.box > 0:
            raise InputError("box must be positive")
        if not 0 <= self.seed < 2 ** 64:
            raise InputError("seed must fit in 64 bits")
        if self.kind == "clusters" and self.clusters < 1:
            raise InputError("cluster count must be at least 1")


def generate(spec):
    """Produce the point list for a generator spec; pure in the seed."""
    rng = random.Random(spec.seed)
    if spec.kind == "uniform":
        return [(rng.uniform(0.0, spec.box), rng.uniform(0.0, spec.box))
                for _ in range(spec.n)]
    if spec.kind == "clusters":
        centers = [(rng.uniform(0.0, spec.box), rng.uniform(0.0, spec.box))
                   for _ in range(spec.clusters)]
        pts = []
        for i in range(spec.n):
            cx, cy = centers[i % spec.clusters]
            pts.append((rng.gauss(cx, spec.spread),
                        rng.gauss(cy, spec.spread)))
        return pts
    if spec.kind == "chain":
        return [(i * spec.spacing, 0.0) for i in range(spec.n)]
    side = int(math.ceil(math.sqrt(spec.n)))
    return [((i % side) * spec.pitch, (i // side) * spec.pitch)
            for i in range(spec.n)]


def cmd_gen(args):
    spec = GeneratorSpec(kind=args.kind, n=args.n, box=args.box,
                         seed=args.seed, clusters=args.clusters,
                         spread=args.spread, spacing=args.spacing,
                         pitch=args.pitch)
    text = format_instance(generate(spec))
    try:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError("cannot write %s: %s" % (args.out, exc))
    print("wrote %s (%d points, kind=%s, seed=%d)"
          % (args.out, spec.n, spec.kind, spec.seed))
    return 0


def _request_from_args(args, want_witness):
    budgets = MarkingBudgets(args.q1, args.q2)
    return SolveRequest(disks=read_instance(args.instance), k=args.k,
                        variant=args.variant, budgets=budgets,
                        want_witness=want_witness,
                        threshold_override=args.tw_threshold)


def _json_report(report, req):
    stats = report.stats
    doc = {
        "answer": report.answer,
        "branch": report.branch,
        "k": req.k,
        "variant": req.variant,
        "n": stats["n"],
        "m": stats["m"],
        "delta": stats["delta"],
        "width": stats["width"],
        "certified": stats["certified"],
    }
    if report.witness is not None:
        doc["witness"] = report.witness
    doc["timings"] = {stage: round(ms, 3)
                      for stage, ms in sorted(stats["timings"].items())}
    return json.dumps(doc, indent=2)


def cmd_solve(args):
    req = _request_from_args(args, args.witness)
    report = solve(req)
    stats = report.stats
    if args.json:
        print(_json_report(report, req))
        return 0 if report.is_yes else 1
    total_ms = sum(stats["timings"].values())
    print("answer:  %s" % report.answer)
    print("branch:  %s" % report.branch)
    print("target:  %d-vertex %s (effective %d)"
          % (req.k, req.variant, req.k_effective))
    print("graph:   n=%d m=%d delta=%d width=%s"
          % (stats["n"], stats["m"], stats["delta"], stats["width"]))
    for stage, ms in sorted(stats["timings"].items()):
        print("stage:   %-13s %8.2f ms" % (stage, ms))
    if report.witness is not None:
        print("witness: %s" % " ".join(str(v) for v in report.witness))
    print("answer=%s branch=%s k=%d variant=%s width=%s total_ms=%.2f"
          % (report.answer, report.branch, req.k, req.variant,
             stats["width"], total_ms))
    return 0 if report.is_yes else 1


def cmd_verify(args):
    disks = read_instance(args.instance)
    graph = build_udg(disks)
    if graph.n > oracle.DEFAULT_LIMITS.max_n:
        raise InputError(
            "instance has %d vertices, exhaustive verification caps at %d"
            % (graph.n, oracle.DEFAULT_LIMITS.max_n))
    if args.variant == "path":
        best, _ = oracle.longest_path_bruteforce(graph)
    else:
        best, _ = oracle.longest_cycle_bruteforce(graph)
    ks = range(1, graph.n + 1) if args.all_k else [args.k]
    agree = True
    for k in ks:
        req = SolveRequest(disks=disks, k=k, variant=args.variant)
        got = solve(req).answer
        floor = max(k, 3) if args.variant == "cycle" else k
        want = "yes" if best is not None and best >= floor else "no"
        ok = got == want
        agree = agree and ok
        print("k=%-3d pipeline=%-3s oracle=%-3s %s"
              % (k, got, want, "agree" if ok else "DISAGREE"))
    return 0 if agree else 1


def cmd_render(args):
    disks = read_instance(args.instance)
    witness = None
    if args.k is not None:
        req = SolveRequest(disks=disks, k=args.k, variant=args.variant,
                           want_witness=True)
        witness = solve(req).witness
    svg = render_svg(disks, witness=witness, variant=args.variant)
    try:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(svg)
    except OSError as exc:
        raise InputError("cannot write %s: %s" % (args.out, exc))
    print("wrote %s" % args.out)
    return 0


def _build_parser():
    top = argparse.ArgumentParser(
        prog="diskpath",
        description="Long paths and cycles in unit disk graphs.")
    sub = top.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a random instance file")
    gen.add_argument("--kind", choices=_KINDS, default="uniform")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--box", type=float, default=10.0)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--clusters", type=int, default=3)
    gen.add_argument("--spread", type=float, default=0.75)
    gen.add_argument("--spacing", type=float, default=1.9)
    gen.add_argument("--pitch", type=float, default=1.5)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_gen)

    def solver_flags(p):
        p.add_argument("instance")
        p.add_argument("--variant", choices=("path", "cycle"),
                       default="path")
        p.add_argument("--q1", type=int, default=MarkingBudgets().q1)
        p.add_argument("--q2", type=int, default=MarkingBudgets().q2)
        p.add_argument("--tw-threshold", type=int, default=None)

    sol = sub.add_parser("solve", help="run the solver on an instance file")
    solver_flags(sol)
    sol.add_argument("--k", type=int, required=True)
    sol.add_argument("--witness", action="store_true")
    sol.add_argument("--json", action="store_true")
    sol.set_defaults(func=cmd_solve)

    ver = sub.add_parser("verify",
                         help="cross-check the solver against brute force")
    ver.add_argument("instance")
    ver.add_argument("--variant", choices=("path", "cycle"), default="path")
    group = ver.add_mutually_exclusive_group(required=True)
    group.add_argument("--k", type=int)
    group.add_argument("--all-k", action="store_true")
    ver.set_defaults(func=cmd_verify)

    ren = sub.add_parser("render", help="draw an instance to an SVG file")
    ren.add_argument("instance")
    ren.add_argument("--out", required=True)
    ren.add_argument("--k", type=int, default=None,
                     help="solve and overlay a witness when the answer is yes")
    ren.add_argument("--variant", choices=("path", "cycle"), default="path")
    ren.set_defaults(func=cmd_render)
    return top


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DiskpathError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
