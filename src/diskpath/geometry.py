"""Disk centers, the unit disk graph over them, and its clique-grid form.

Two disks of radius 1 intersect iff their centers are within distance 2;
the comparison is inclusive and done on squared distances.  The clique-grid
representation bins centers into axis-aligned cells of side 1, normalized
to the bounding box minimum, so that every cell induces a clique (cell
diameter sqrt(2) < 2) and adjacent vertices sit at most two cells apart on
either axis.
"""

import math

from . import kernels
from .errors import ContractViolation, InputError


class DiskSet:
    """Ordered list of disk centers; every disk has radius 1.

    Duplicate centers are allowed and kept as distinct vertices.
    """

    __slots__ = ("points",)

    def __init__(self, points):
        pts = []
        for idx, point in enumerate(points):
            try:
                x, y = point
                x = float(x)
                y = float(y)
            except (TypeError, ValueError, OverflowError):
                raise InputError("point %d is not two numbers" % idx) from None
            if not (math.isfinite(x) and math.isfinite(y)):
                raise InputError("non-finite coordinate at point %d" % idx)
            pts.append((x, y))
        if not pts:
            raise InputError("disk set is empty")
        self.points = tuple(pts)

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)


class UnitDiskGraph:
    """Intersection graph of the disks: vertices are point indices."""

    __slots__ = ("n", "adj", "m", "_adjsets")

    def __init__(self, n, edges):
        neigh = [[] for _ in range(n)]
        for i, j in edges:
            neigh[i].append(j)
            neigh[j].append(i)
        self.n = n
        self.adj = tuple(tuple(sorted(lst)) for lst in neigh)
        self.m = len(edges)
        self._adjsets = tuple(frozenset(lst) for lst in neigh)

    def has_edge(self, u, v):
        return v in self._adjsets[u]

    def degree(self, v):
        return len(self.adj[v])

    def edges(self):
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)


class CliqueGridRepresentation:
    """Cell map of a unit disk graph: cell_of[v] = (i, j), indices from 1."""

    __slots__ = ("cell_of", "cells", "t")

    def __init__(self, cell_of):
        cells = {}
        for v, cell in enumerate(cell_of):
            if cell in cells:
                cells[cell].append(v)
            else:
                cells[cell] = [v]
        self.cell_of = tuple(cell_of)
        self.cells = {cell: tuple(members) for cell, members in sorted(cells.items())}
        self.t = max(max(i, j) for i, j in cells)

    def members(self, cell):
        return self.cells.get(cell, ())

    def occupied(self):
        return self.cells.keys()


def build_udg(disks, scan="bucket"):
    """Build the unit disk graph via spatial bucketing.

    scan="bruteforce" selects the O(n^2) all-pairs fallback, kept for
    debugging and used by tests as the independent oracle.
    """
    if not isinstance(disks, DiskSet):
        disks = DiskSet(disks)
    if scan == "bucket":
        edges = kernels.udg_edges(disks.points)
    elif scan == "bruteforce":
        edges = kernels.udg_edges_bruteforce(disks.points)
    else:
        raise InputError("unknown scan method %r" % scan)
    edges.sort()
    return UnitDiskGraph(len(disks), edges)


def build_clique_grid(disks, graph):
    """Compute the cell map with cell side 1, anchored at the bbox minimum.

    cell_of(v) = (1 + floor(x - x_min), 1 + floor(y - y_min)); points on a
    cell boundary land in the higher-index cell.
    """
    if not isinstance(disks, DiskSet):
        disks = DiskSet(disks)
    if len(disks) != graph.n:
        raise ContractViolation("graph was not built from these disks")
    x_min = min(p[0] for p in disks.points)
    y_min = min(p[1] for p in disks.points)
    cell_of = [
        (1 + int(math.floor(x - x_min)), 1 + int(math.floor(y - y_min)))
        for x, y in disks.points
    ]
    return CliqueGridRepresentation(cell_of)


def check_clique_grid(graph, rep):
    """Exhaustively validate both clique-grid conditions; raise if violated.

    Condition 1: every cell induces a clique.  Condition 2: endpoints of any
    edge differ by at most 2 in each cell index.
    """
    if len(rep.cell_of) != graph.n:
        raise ContractViolation("representation covers %d vertices, graph has %d"
                                % (len(rep.cell_of), graph.n))
    for cell, members in rep.cells.items():
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                if not graph.has_edge(members[a], members[b]):
                    raise ContractViolation(
                        "cell %r is not a clique: %d and %d are not adjacent"
                        % (cell, members[a], members[b]))
    for u, v in graph.edges():
        iu, ju = rep.cell_of[u]
        iv, jv = rep.cell_of[v]
        if abs(iu - iv) > 2 or abs(ju - jv) > 2:
            raise ContractViolation(
                "edge {%d, %d} spans cells %r and %r" % (u, v, (iu, ju), (iv, jv)))


def parse_instance(text):
    """Parse the plain-text instance format: first line n, then n 'x y' lines."""
    lines = text.splitlines()
    if not lines:
        raise InputError("line 1: expected vertex count")
    try:
        n = int(lines[0].strip())
    except ValueError:
        raise InputError("line 1: expected vertex count, got %r" % lines[0].strip())
    if n < 1:
        raise InputError("line 1: vertex count must be positive")
    if len(lines) < n + 1:
        raise InputError("line %d: expected %d coordinate lines, found %d"
                         % (len(lines) + 1, n, len(lines) - 1))
    points = []
    for ln in range(1, n + 1):
        parts = lines[ln].split()
        if len(parts) != 2:
            raise InputError("line %d: expected 'x y'" % (ln + 1))
        try:
            x = float(parts[0])
            y = float(parts[1])
        except ValueError:
            raise InputError("line %d: bad coordinate" % (ln + 1))
        if not (math.isfinite(x) and math.isfinite(y)):
            raise InputError("line %d: non-finite coordinate" % (ln + 1))
        points.append((x, y))
    for ln in range(n + 1, len(lines)):
        if lines[ln].strip():
            raise InputError("line %d: unexpected trailing content" % (ln + 1))
    return DiskSet(points)


def read_instance(path):
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (path, exc))
    return parse_instance(text)


def format_instance(points):
    out = ["%d" % len(points)]
    for x, y in points:
        out.append("%.6f %.6f" % (x, y))
    return "\n".join(out) + "\n"
