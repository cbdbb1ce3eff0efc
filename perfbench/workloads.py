"""Seeded workloads for the solve benchmark.

Each workload is a stream of solve requests for one closed-loop caller: the
next request is made only after the previous one returned.  Disk sets are
drawn from ``random.Random("<tag>/<seed>/<index>")``, so a seed fixes every
input no matter how many of them a run gets through, and the solver only
ever sees the generated points.
"""

import itertools
import math
import random


class Task:
    """One solve request, tagged with the index of its disk set."""

    __slots__ = ("set_id", "disks", "k", "variant", "want_witness")

    def __init__(self, set_id, disks, k, variant, want_witness):
        self.set_id = set_id
        self.disks = disks
        self.k = k
        self.variant = variant
        self.want_witness = want_witness


class Instances:
    """The disk sets of one stream, built on demand from per-index seeds."""

    def __init__(self, disk_set, make_points, tag, seed):
        self._disk_set = disk_set
        self._make_points = make_points
        self._tag = tag
        self._seed = seed

    def get(self, j):
        rng = random.Random("%s/%d/%d" % (self._tag, self._seed, j))
        return self._disk_set(self._make_points(rng))


def uniform_points(rng, n, density):
    """n centers uniform in a square holding `density` disks per unit area."""
    side = math.sqrt(n / density)
    return [(rng.uniform(0.0, side), rng.uniform(0.0, side))
            for _ in range(n)]


def corridor_points(rng, columns, rows=4, pitch=1.7, jitter=0.1, drop=0.1):
    """A jittered rows x columns lattice with round(drop * sites) sites removed.

    Removing a fixed number of sites keeps n, and with it k = n // 2, the
    same on every instance.

    Lattice neighbours sit at most pitch + 2 * jitter apart on one axis and
    2 * jitter on the other (1.91 < 2), diagonal ones at least
    sqrt(2) * (pitch - 2 * jitter) (2.12 > 2), so the disk graph is exactly
    the grid graph on the kept sites.
    """
    sites = [(c, r) for c in range(columns) for r in range(rows)]
    kept = sorted(rng.sample(sites, len(sites) - round(drop * len(sites))))
    return [(c * pitch + rng.uniform(-jitter, jitter),
             r * pitch + rng.uniform(-jitter, jitter)) for c, r in kept]


class Workload:
    """A named request stream plus what the benchmark expects of it.

    `tasks(instances)` is a generator of Tasks, each on a disk set of its
    own, so the pipeline's artifact cache is never hit.  `warmup` requests
    run untimed before the loop, the first `prefix` requests of a traced run
    give the exact per-layer counts, and peak RSS is read once the first
    `rss_sets` disk sets are done, well after the pipeline's cache of 8 disk
    sets is full.
    """

    def __init__(self, name, why, make_points, tasks, warmup, prefix,
                 rss_sets):
        self.name = name
        self.why = why
        self.make_points = make_points
        self.tasks = tasks
        self.warmup = warmup
        self.prefix = prefix
        self.rss_sets = rss_sets

    def instances(self, disk_set, seed, tag=None):
        return Instances(disk_set, self.make_points, tag or self.name, seed)


# k = 8 and 16, paths and cycles, in turn
SPARSE_MIX = ((8, "path"), (16, "path"), (8, "cycle"), (16, "cycle"))


def _sparse_tasks(instances):
    for j in itertools.count():
        k, variant = SPARSE_MIX[j % len(SPARSE_MIX)]
        yield Task(j, instances.get(j), k, variant, False)


# Path solves take 3-7 times as long as cycle solves here.  One path solve
# for every two cycle solves puts the median inside the cycle mode and p90
# inside the path mode, each away from the gap between them.
CORRIDOR_VARIANTS = ("path", "cycle", "cycle")
CORRIDOR_COLUMNS = 16


def _corridor_tasks(instances):
    for j in itertools.count():
        disks = instances.get(j)
        variant = CORRIDOR_VARIANTS[j % len(CORRIDOR_VARIANTS)]
        yield Task(j, disks, len(disks) // 2, variant, True)


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "sparse",
            "fresh n=2000 uniform sets at density 0.25, k 8/16, no witness:"
            " front-end stages and decomposition of many small components",
            lambda rng: uniform_points(rng, 2000, 0.25), _sparse_tasks,
            warmup=2, prefix=16, rss_sets=100),
        Workload(
            "corridor",
            "fresh 4x16 jittered lattices (width-4 grid graphs, 58 disks),"
            " k=n//2 with witness, 1 path : 2 cycle: the tree-decomposition DP",
            lambda rng: corridor_points(rng, CORRIDOR_COLUMNS),
            _corridor_tasks,
            warmup=3, prefix=24, rss_sets=300),
    )
}
