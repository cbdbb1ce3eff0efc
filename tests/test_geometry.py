"""Unit disk graph construction and the clique-grid representation."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diskpath.errors import ContractViolation, InputError
from diskpath.geometry import (
    CliqueGridRepresentation,
    DiskSet,
    build_clique_grid,
    build_udg,
    check_clique_grid,
    format_instance,
    parse_instance,
)
from diskpath.kernels import udg_edges_bruteforce
from helpers import random_instance, random_points

coords = st.floats(min_value=-30.0, max_value=30.0,
                   allow_nan=False, allow_infinity=False)
point_lists = st.lists(st.tuples(coords, coords), min_size=1, max_size=48)


def test_adjacency_threshold_is_inclusive():
    g = build_udg(DiskSet([(0.0, 0.0), (2.0, 0.0), (0.0, 2.0000001)]))
    assert g.has_edge(0, 1)
    assert not g.has_edge(0, 2)
    assert not g.has_edge(1, 2)


def test_duplicate_centers_are_adjacent_distinct_vertices():
    g = build_udg(DiskSet([(1.0, 1.0), (1.0, 1.0)]))
    assert g.n == 2 and g.m == 1 and g.has_edge(0, 1)


@given(point_lists)
def test_bucket_scan_matches_quadratic_scan(pts):
    disks = DiskSet(pts)
    fast = build_udg(disks, scan="bucket")
    slow = build_udg(disks, scan="bruteforce")
    assert list(fast.edges()) == list(slow.edges())
    assert sorted(udg_edges_bruteforce(disks.points)) == list(slow.edges())


@given(point_lists)
@settings(max_examples=60)
def test_clique_grid_conditions_hold(pts):
    disks = DiskSet(pts)
    graph = build_udg(disks)
    rep = build_clique_grid(disks, graph)
    check_clique_grid(graph, rep)
    assert all(i >= 1 and j >= 1 for i, j in rep.cell_of)
    assert rep.t == max(max(i, j) for i, j in rep.cell_of)


def test_cell_indices_are_anchored_at_bbox_minimum():
    disks = DiskSet([(3.25, -1.5), (3.8, -0.2), (5.5, -1.5)])
    rep = build_clique_grid(disks, build_udg(disks))
    assert rep.cell_of[0] == (1, 1)
    assert rep.cell_of[1] == (1, 2)
    assert rep.cell_of[2] == (3, 1)
    assert rep.members((3, 1)) == (2,)
    assert rep.members((9, 9)) == ()


def test_validator_rejects_broken_cell_map():
    disks = DiskSet([(0.0, 0.0), (5.0, 0.0)])
    graph = build_udg(disks)
    # Claiming both far-apart vertices share one cell breaks the clique condition.
    with pytest.raises(ContractViolation):
        check_clique_grid(graph, CliqueGridRepresentation([(1, 1), (1, 1)]))


def test_disk_set_input_validation():
    with pytest.raises(InputError):
        DiskSet([])
    with pytest.raises(InputError):
        DiskSet([(0.0, float("nan"))])
    with pytest.raises(InputError):
        DiskSet([(float("inf"), 0.0)])
    with pytest.raises(InputError, match="point 1 "):
        DiskSet([(0.0, 0.0), (1, 2, 3)])


def test_graph_accessors_are_consistent():
    _, graph, _ = random_instance(11, 30, 9.0)
    edges = list(graph.edges())
    assert edges == sorted(edges)
    assert len(edges) == graph.m
    assert sum(graph.degree(v) for v in range(graph.n)) == 2 * graph.m
    for u, v in edges:
        assert graph.has_edge(u, v) and graph.has_edge(v, u)


def test_instance_round_trip():
    rng_pts = random_points(__import__("random").Random(3), 25, 12.0)
    text = format_instance(rng_pts)
    parsed = parse_instance(text)
    assert len(parsed) == 25
    for (x0, y0), (x1, y1) in zip(rng_pts, parsed):
        assert math.isclose(x0, x1, abs_tol=1e-6)
        assert math.isclose(y0, y1, abs_tol=1e-6)
    assert format_instance(parsed.points) == text


@pytest.mark.parametrize(
    "text, line",
    [
        ("", 1),
        ("zero\n", 1),
        ("0\n", 1),
        ("2\n1.0 2.0\n", 3),
        ("1\n1.0\n", 2),
        ("1\n1.0 x\n", 2),
        ("1\n1.0 inf\n", 2),
        ("1\n1.0 2.0\n\ntrailing\n", 4),
    ],
)
def test_parse_errors_name_the_line(text, line):
    with pytest.raises(InputError) as exc:
        parse_instance(text)
    assert ("line %d" % line) in str(exc.value)


def test_blank_lines_after_coordinates_are_tolerated():
    parsed = parse_instance("1\n0.5 0.5\n\n\n")
    assert parsed.points == ((0.5, 0.5),)
