"""Solve benchmark for diskpath: one closed-loop caller, two workloads.

Runs the public ``diskpath.pipeline.solve`` from a single process and
thread, each request made after the previous one returned, on one of the
seeded workloads in ``workloads.py``:

    python3 perfbench/run.py --workload sparse --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py                  # every workload, untraced and traced
    python3 perfbench/run.py --workload corridor --seed 1 --pin

It imports ``diskpath`` from ``src/`` next to this directory, never from an
installed copy.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Untraced (``--trace 0``) metrics, per workload:

- ``solve_ms.p50`` / ``solve_ms.p90``: wall time of one ``solve`` call, timed
  around the call.  The loop runs for ``--seconds`` of loop time and at
  least 100 solves, so ten or more solves lie beyond p90.
- ``solves_per_s``: solves over the loop time, which is the wall time spent
  inside ``solve`` calls; request generation and the checks below are
  outside it.
- ``peak_rss_mb``: ``ru_maxrss`` of this process, which runs one workload,
  read once the requests on the workload's first ``rss_sets`` disk sets are
  done.  A fixed amount of work, not the loop time, bounds it, so a faster
  program is not charged for the extra disk sets it gets through.
- ``setup_s``: median over ``SETUP_REPEATS`` fresh child processes, each
  timing its own cold import of ``diskpath`` and the generation of the
  workload's first disk set.

A solve fails if it raises, if its answer differs from the pinned answer
for that seed and position, or if its witness fails the independent check
in ``checks.py``.  A "yes" to a request without a witness is re-solved with
one (outside the loop's time) and the witness is checked, so every "yes"
is verified at any seed; a "no" is verified only where a pin covers it.
A run at a pinned seed that goes past its pinned answers says so in a
warning and counts the unchecked requests as ``unpinned_solves`` in the
``env`` line.

The failure share is printed as ``fail_ratio`` and carried by the
``attempted`` and ``failed`` keys.  Times never come from
``report.stats["timings"]``, which repeats the first run's stage times on a
cache hit.

``--trace 1`` installs the wrappers of ``tracer.py`` and reports per-layer
metrics instead, plus ``traced.solves_per_s``, whose gap to the untraced
value is the tracing overhead.  Its counts cover the first requests of the
run (the workload's prefix); a second process repeats that prefix at the
same seed, and any count that differs is reported as an error.  Spans are
written to ``perfbench/out/``.

Seed 1 is the default and seed 2 is held out: both are pinned, and gains
tuned on one can be checked on the other.
"""

import argparse
import dataclasses
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import types

import checks
import tracer as tracing
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

DEFAULT_SEED = 1
HELD_OUT_SEED = 2
SETUP_REPEATS = 9
MIN_SOLVES = 100      # a p90 needs ten solves beyond it
LOOP_CAP_S = 100.0    # keeps a slow program's run within its time limit
CHILD_TIMEOUT_S = 170
# about four times the solves of a 55 s run on a 2-vCPU VM
PIN_SOLVES = {"sparse": 1200, "corridor": 3000}

END_TO_END = {
    "solve_ms.p50": "ms",
    "solve_ms.p90": "ms",
    "solves_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


# Soft expectations on each workload's shape, printed by traced runs.  They
# describe the inputs, not the program's correctness, so they never fail a run.
SHAPE = {
    "sparse": (("the DP takes under 20% of solve time",
                lambda m: m["dpsolver.time_share"] < 0.2),),
    "corridor": (("the widest decomposition is 4",
                  lambda m: m["decomposition.width_max"] == 4),
                 ("the DP takes over half of solve time",
                  lambda m: m["dpsolver.time_share"] > 0.5)),
}


class Outcome:
    __slots__ = ("answer", "ms", "problem", "points_hash")

    def __init__(self, answer, ms, problem, points_hash):
        self.answer = answer
        self.ms = ms
        self.problem = problem
        self.points_hash = points_hash


def import_diskpath():
    """Import diskpath from this checkout's src/."""
    try:
        pipeline = importlib.import_module("diskpath.pipeline")
    except ImportError as exc:
        sys.exit("cannot import diskpath from %s: %s" % (SRC, exc))
    if not os.path.abspath(pipeline.__file__).startswith(SRC + os.sep):
        sys.exit("diskpath was imported from %s, not %s"
                 % (pipeline.__file__, SRC))
    return types.SimpleNamespace(
        pipeline=pipeline,
        geometry=sys.modules["diskpath.geometry"],
        kernels=sys.modules["diskpath.kernels"],
        dpsolver=sys.modules["diskpath.dpsolver"],
    )


def set_up(workload, seed):
    lib = import_diskpath()
    return lib, workload.instances(lib.geometry.DiskSet, seed)


def setup_probe(workload, seed):
    """Seconds for a cold import plus the first disk set, in this process."""
    start = time.perf_counter()
    _, instances = set_up(workload, seed)
    instances.get(0)
    return time.perf_counter() - start


def setup_seconds(workload, seed):
    """Median of setup_probe over fresh child processes, one at a time."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           workload.name, "--seed", str(seed), "--setup-probe"]
    spent = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            sys.exit("set-up probe failed: %s" % done.stderr.strip()[-500:])
        spent.append(float(done.stdout.split()[-1]))
    return statistics.median(spent)


def check(lib, task, req, report):
    """None if the report holds up, else why not; runs outside the timing."""
    if report.answer == "no":
        return None
    if report.answer != "yes":
        return "unknown answer %r" % (report.answer,)
    witness = report.witness
    if not task.want_witness:
        try:
            witness = lib.pipeline.solve(
                dataclasses.replace(req, want_witness=True)).witness
        except Exception as exc:  # any raise is a failed check
            return "witness re-solve raised %s: %s" % (type(exc).__name__, exc)
    return checks.witness_problem(lib.geometry, task.disks.points, witness,
                                  task.variant, req.k_effective)


def host_ref_ms():
    """Median ms of a fixed pure-Python loop, to tell a slow host from a
    slow program when runs are compared."""
    spent = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(100000):
            total += i * i % 7
        spent.append((time.perf_counter() - start) * 1000.0)
    return statistics.median(spent)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def drive(lib, stream, stop, tracer=None, rss_sets=None):
    """Run the closed loop until stop(solves, loop_s).

    The loop time covers only the solve calls.  With `rss_sets`, the peak
    RSS is read when the first request on disk set number `rss_sets`
    arrives, that is once every request on the sets before it is done, and
    the loop goes on until that reading is taken (or the time cap is hit).
    Returns the outcomes, the loop time and that reading (None without
    `rss_sets`, the end-of-loop value if the cap came first).
    """
    solve, request = lib.pipeline.solve, lib.pipeline.SolveRequest
    outcomes = []
    clock = 0.0
    rss_mb = None
    while (not stop(len(outcomes), clock)
           or (rss_sets is not None and rss_mb is None
               and clock < LOOP_CAP_S)):
        task = next(stream)
        if rss_mb is None and rss_sets is not None and task.set_id >= rss_sets:
            rss_mb = peak_rss_mb()
        req = request(disks=task.disks, k=task.k, variant=task.variant,
                      want_witness=task.want_witness)
        if tracer is not None:
            tracer.begin_solve()
        start = time.perf_counter()
        try:
            report = solve(req)
            error = None
        except Exception as exc:  # a raise is a failed solve
            report = None
            error = "solve raised %s: %s" % (type(exc).__name__, exc)
        end = time.perf_counter()
        if tracer is not None:
            tracer.end_solve(start, end)
        clock += end - start
        problem = error if report is None else check(lib, task, req, report)
        outcomes.append(Outcome(report.answer if report else None,
                                (end - start) * 1000.0, problem,
                                hash(task.disks.points)))
    if rss_sets is not None and rss_mb is None:
        rss_mb = peak_rss_mb()
    return outcomes, clock, rss_mb


def warm_up(lib, workload, seed):
    """Untimed requests on disk sets of their own, so lazy set-up is done."""
    instances = workload.instances(lib.geometry.DiskSet, seed,
                                   tag=workload.name + "-warmup")
    drive(lib, workload.tasks(instances), lambda n, _: n >= workload.warmup)


def compare_pins(outcomes, pinned):
    for i, (o, pin) in enumerate(zip(outcomes, pinned)):
        if o.problem is None and o.answer[0] != pin:
            o.problem = "solve %d answered %s, pinned %s" % (i, o.answer, pin)


def measure(workload, seed, seconds, trace):
    setup_s = None if trace else setup_seconds(workload, seed)
    lib, instances = set_up(workload, seed)
    warm_up(lib, workload, seed)
    ref_before = host_ref_ms()
    tracer = None
    if trace:
        tracer = tracing.Tracer(workload.prefix)
        tracer.install(lib)
    least = max(MIN_SOLVES, workload.prefix if trace else 0)
    stop = (lambda n, clock: (clock >= seconds and n >= least)
            or clock >= LOOP_CAP_S)
    try:
        outcomes, clock, rss_mb = drive(lib, workload.tasks(instances), stop,
                                        tracer,
                                        None if trace else workload.rss_sets)
    finally:
        if tracer is not None:
            tracer.uninstall()

    ref_after = host_ref_ms()
    pinned = checks.pinned_answers(checks.load_pins(), workload.name, seed)
    compare_pins(outcomes, pinned)
    errors = []
    hashes = [o.points_hash for o in outcomes]
    if len(set(hashes)) != len(hashes):
        errors.append("a disk set was solved twice")

    failed = [o for o in outcomes if o.problem is not None]
    unpinned = max(len(outcomes) - len(pinned), 0) if pinned else 0
    env = {
        "workload": workload.name,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "trace": int(trace),
        "solves": len(outcomes),
        "pinned_solves": min(len(pinned), len(outcomes)),
        "unpinned_solves": unpinned,
        "loop_s": clock,
        "fail_ratio": len(failed) / len(outcomes),
        "host_ref_ms": [ref_before, ref_after],
        "backend": lib.kernels.BACKEND,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }
    if trace:
        metrics, units = traced_metrics(workload, seed, tracer, clock, errors)
    else:
        times = [o.ms for o in outcomes]
        metrics = {
            "solve_ms.p50": statistics.median(times),
            "solve_ms.p90": statistics.quantiles(times, n=10)[-1],
            "solves_per_s": len(outcomes) / clock,
            "peak_rss_mb": rss_mb,
            "setup_s": setup_s,
        }
        units = END_TO_END

    print("%s seed=%d trace=%d: %d solves in %.1f s of loop time, fail_ratio"
          " %g (%d of %d)" % (workload.name, seed, trace, len(outcomes), clock,
                              env["fail_ratio"], len(failed), len(outcomes)))
    for name, value in metrics.items():
        print("  %-32s %14.4f %s" % (name, value, units[name]))
    if unpinned > 0:
        print("warning: %d solves ran past the %d answers pinned at seed %d;"
              " their 'no' answers are unchecked" % (unpinned, len(pinned),
                                                      seed))
    for o in failed[:10]:
        print("failed: %s" % o.problem)
    for e in errors:
        print("error: %s" % e)
    print("env: %s" % json.dumps(env, sort_keys=True))
    return {
        "correct": not failed and not errors,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def traced_metrics(workload, seed, tracer, clock, errors):
    if tracer.solves < workload.prefix:
        errors.append("traced run ended after %d solves, before its prefix of"
                      " %d" % (tracer.solves, workload.prefix))
    counts = tracer.exact_counts()
    again = counts_in_child(workload, seed)
    if "error" in again:
        errors.append("the second traced run failed: %s" % again["error"])
    elif again != counts:
        diff = sorted(k for k in counts if counts[k] != again.get(k))
        errors.append("exact counts differ between two traced runs at seed"
                      " %d: %s" % (seed, ", ".join(diff)))
    metrics = tracer.metrics(clock)
    hit = metrics["pipeline.artifact_hit_share"]
    if hit != 0:
        errors.append("artifact_hit_share %.3f, expected 0" % hit)
    for text, holds in SHAPE[workload.name]:
        print("shape: %s: %s" % (text, "yes" if holds(metrics) else "NO"))
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, "spans-%s-%d.jsonl" % (workload.name, seed)))
    return metrics, tracing.UNITS


def counts_in_child(workload, seed):
    """Exact counts of the traced prefix, from a second process."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           workload.name, "--seed", str(seed), "--counts-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False)
    if done.returncode != 0 or not done.stdout.strip():
        return {"error": done.stderr.strip()[-500:]}
    return json.loads(done.stdout.strip().splitlines()[-1])


def prefix_counts(workload, seed):
    lib, instances = set_up(workload, seed)
    warm_up(lib, workload, seed)
    tracer = tracing.Tracer(workload.prefix)
    tracer.install(lib)
    try:
        drive(lib, workload.tasks(instances),
              lambda n, _: n >= workload.prefix, tracer)
    finally:
        tracer.uninstall()
    return tracer.exact_counts()


def pin(workload, seed):
    """Record the answers of the first requests at a seed in pins.json."""
    lib, instances = set_up(workload, seed)
    count = PIN_SOLVES[workload.name]
    outcomes, _, _ = drive(lib, workload.tasks(instances),
                           lambda n, _: n >= count)
    bad = [o.problem for o in outcomes if o.problem is not None]
    if bad:
        sys.exit("not pinning %s at seed %d: %s" % (workload.name, seed, bad[0]))
    pins = checks.load_pins() if os.path.exists(checks.PINS_PATH) else {}
    pins.setdefault(str(seed), {})[workload.name] = "".join(
        o.answer[0] for o in outcomes)
    checks.write_pins(pins)
    print("pinned %d answers of %s at seed %d" % (count, workload.name, seed))


def run_all(seed, seconds):
    """Every workload, untraced then traced, each in a process of its own."""
    results = []
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload",
                   name, "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=900, check=False)
            sys.stdout.write(done.stdout)
            sys.stderr.write(done.stderr)
            if done.returncode != 0:
                sys.exit("%s --trace %d exited with %d"
                         % (name, trace, done.returncode))
            results.append((name, json.loads(done.stdout.splitlines()[-1])))
    return {
        "correct": all(r["correct"] for _, r in results),
        "attempted": sum(r["attempted"] for _, r in results),
        "failed": sum(r["failed"] for _, r in results),
        "metrics": {"%s/%s" % (name, metric): value
                    for name, r in results
                    for metric, value in r["metrics"].items()},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"],
                    default="all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=55)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin", action="store_true",
                    help="record the answers at --seed in pins.json")
    ap.add_argument("--counts-only", action="store_true",
                    help=argparse.SUPPRESS)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    opts = ap.parse_args(argv)
    if opts.seconds < 1:
        ap.error("--seconds must be at least 1")
    sys.path.insert(0, SRC)
    if opts.workload == "all":
        if opts.pin or opts.counts_only or opts.setup_probe:
            ap.error("--pin, --counts-only and --setup-probe need one"
                     " workload")
        result = run_all(opts.seed, opts.seconds)
    elif opts.pin:
        pin(WORKLOADS[opts.workload], opts.seed)
        return
    elif opts.setup_probe:
        print(setup_probe(WORKLOADS[opts.workload], opts.seed))
        return
    elif opts.counts_only:
        result = prefix_counts(WORKLOADS[opts.workload], opts.seed)
    else:
        result = measure(WORKLOADS[opts.workload], opts.seed, opts.seconds,
                         opts.trace)
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main()
