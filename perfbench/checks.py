"""Answer checks that do not trust the solver's own validation.

A witness is re-checked against adjacency from the all-pairs scan
``geometry.build_udg(..., scan="bruteforce")`` over the witness's own disks
(vertex i of that small graph is the i-th vertex of the witness), which
gives the same adjacency as the full brute-force graph restricted to the
witness.  Answers are compared with the pins in ``pins.json``: the answers
the solver gave at pinning time for the first requests of each workload at
a few seeds, with every pinned "yes" witness-checked when it was pinned.
"""

import json
import os

PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "pins.json")


def witness_problem(geometry, points, seq, variant, k_eff):
    """None if seq is a valid path/cycle on >= k_eff disks, else the reason."""
    if seq is None:
        return "yes without a witness"
    if len(seq) < k_eff:
        return "witness has %d vertices, needs %d" % (len(seq), k_eff)
    if len(set(seq)) != len(seq):
        return "witness repeats a vertex"
    if any(not (isinstance(v, int) and 0 <= v < len(points)) for v in seq):
        return "witness names a vertex outside the disk set"
    sub = geometry.build_udg([points[v] for v in seq], scan="bruteforce")
    for i in range(len(seq) - 1):
        if not sub.has_edge(i, i + 1):
            return "disks %d and %d are not adjacent" % (seq[i], seq[i + 1])
    if variant == "cycle" and (len(seq) < 3 or not sub.has_edge(len(seq) - 1, 0)):
        return "cycle does not close"
    return None


def load_pins():
    with open(PINS_PATH, encoding="ascii") as fh:
        return json.load(fh)


def pinned_answers(pins, workload, seed):
    """The pinned 'y'/'n' string for a workload at a seed, or ''."""
    return pins.get(str(seed), {}).get(workload, "")


def write_pins(pins):
    with open(PINS_PATH, "w", encoding="ascii") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
