"""The two-phase marking scheme and the edge/cell classifications."""

import random

import pytest

from diskpath.errors import ContractViolation, InputError
from diskpath.geometry import DiskSet, build_clique_grid, build_udg
from diskpath.marking import (
    BAD,
    GOOD,
    INTRA_CELL,
    NICE_NOT_GOOD,
    MarkingBudgets,
    MarkingResult,
    classify_cell,
    classify_edge,
    mark_star_bound,
    run_marking,
    validate_sequence,
)
from helpers import random_instance


def _prepared(points, budgets=None):
    disks = DiskSet(points)
    graph = build_udg(disks)
    rep = build_clique_grid(disks, graph)
    marks = run_marking(graph, rep, budgets or MarkingBudgets())
    return graph, rep, marks


def test_budget_defaults_and_validation():
    b = MarkingBudgets()
    assert (b.q1, b.q2) == (241, 121)
    assert mark_star_bound(b) <= 10 ** 10
    with pytest.raises(InputError):
        MarkingBudgets(0, 1)
    with pytest.raises(InputError):
        MarkingBudgets(1, 0)


def test_two_single_vertex_cells_mark_both_endpoints():
    graph, rep, marks = _prepared([(0.5, 0.5), (1.8, 0.5)])
    assert graph.m == 1
    (pair, matching), = marks.mark1_pairs.items()
    assert matching == ((0, 1),)
    assert marks.is_marked(0) and marks.is_marked(1)


def test_single_cell_clique_marks_nothing():
    pts = [(0.01 * i, 0.02 * (i % 7)) for i in range(40)]
    graph, rep, marks = _prepared(pts)
    assert graph.m == 40 * 39 // 2
    assert len(rep.cells) == 1
    assert all(not marks.is_marked(v) for v in range(40))
    assert all(len(s) == 0 for s in marks.mark_star.values())


def test_mark_star_size_bound_on_random_instance():
    budgets = MarkingBudgets(2, 3)
    _, graph, rep = random_instance(60, 60, 8.0)
    marks = run_marking(graph, rep, budgets)
    bound = mark_star_bound(budgets)
    for cell in rep.cells:
        stars = marks.mark_star[cell]
        assert stars <= set(rep.members(cell))
        assert len(stars) <= bound


def test_matching_entries_are_matchings_within_budget():
    rng = random.Random(8)
    for trial in range(25):
        budgets = MarkingBudgets(rng.randint(1, 3), rng.randint(1, 3))
        _, graph, rep = random_instance(3000 + trial, rng.randint(5, 40), 6.0)
        marks = run_marking(graph, rep, budgets)
        for (c1, c2), matching in marks.mark1_pairs.items():
            assert len(matching) <= budgets.q1
            seen = set()
            for u, v in matching:
                assert rep.cell_of[u] == c1 and rep.cell_of[v] == c2
                assert graph.has_edge(u, v)
                assert u not in seen and v not in seen
                seen.update((u, v))


def test_phase_one_matchings_are_maximal_under_large_budgets():
    # With budgets no instance of this size can saturate, truncation never
    # kicks in, so every stored matching must be maximal: no cross edge with
    # both endpoints unmatched within its pair.
    for trial in range(15):
        _, graph, rep = random_instance(4000 + trial, 30, 6.0)
        marks = run_marking(graph, rep)
        for (c1, c2), matching in marks.mark1_pairs.items():
            matched = {v for e in matching for v in e}
            for u in rep.members(c1):
                for v in rep.members(c2):
                    if graph.has_edge(u, v):
                        assert u in matched or v in matched


def test_raising_budgets_never_unmarks():
    for trial in range(20):
        _, graph, rep = random_instance(5000 + trial, 25, 5.0)
        small = run_marking(graph, rep, MarkingBudgets(1, 1))
        for budgets in (MarkingBudgets(2, 1), MarkingBudgets(1, 2),
                        MarkingBudgets(4, 3)):
            bigger = run_marking(graph, rep, budgets)
            for cell in rep.cells:
                assert small.mark_star[cell] <= bigger.mark_star[cell]


def test_phase_two_marks_match_direct_reference():
    # Mark* is the Phase-I endpoints plus, for every Phase-I vertex v and
    # every occupied cell c2 within Chebyshev distance 2 of v's cell, the
    # first q2 neighbours of v in c2 in ascending id.
    budgets = MarkingBudgets(3, 2)
    _, graph, rep = random_instance(6100, 90, 6.0)
    marks = run_marking(graph, rep, budgets)
    phase1 = {cell: set() for cell in rep.cells}
    for (c1, c2), matching in marks.mark1_pairs.items():
        for u, v in matching:
            phase1[c1].add(u)
            phase1[c2].add(v)
    want = {cell: set(vs) for cell, vs in phase1.items()}
    truncated = 0
    for c1, vs in phase1.items():
        near = [c2 for c2 in rep.cells if c2 != c1
                and max(abs(c2[0] - c1[0]), abs(c2[1] - c1[1])) <= 2]
        for v in vs:
            for c2 in near:
                inside = sorted(w for w in graph.adj[v]
                                if rep.cell_of[w] == c2)
                truncated += len(inside) > budgets.q2
                want[c2].update(inside[:budgets.q2])
    assert truncated > 0
    assert {cell: set(s) for cell, s in marks.mark_star.items()} == want


def test_phase_one_matchings_match_direct_reference():
    # For every pair c1 < c2 of cells within Chebyshev distance 2, Phase I
    # greedily matches the cross edges sorted by (min id, max id), stops at
    # q1 edges, and stores each nonempty matching in row-major pair order.
    budgets = MarkingBudgets(2, 2)
    _, graph, rep = random_instance(6101, 120, 7.0)
    marks = run_marking(graph, rep, budgets)
    want = []
    truncated = 0
    for c1 in rep.cells:
        for c2 in rep.cells:
            if c2 <= c1 or max(abs(c2[0] - c1[0]), abs(c2[1] - c1[1])) > 2:
                continue
            cross = sorted((min(u, v), max(u, v)) for u in rep.members(c1)
                           for v in rep.members(c2) if graph.has_edge(u, v))
            used, matching = set(), []
            for a, b in cross:
                if a not in used and b not in used:
                    used.update((a, b))
                    matching.append((a, b) if rep.cell_of[a] == c1 else (b, a))
            truncated += len(matching) > budgets.q1
            if matching:
                want.append(((c1, c2), tuple(matching[:budgets.q1])))
    assert truncated > 0
    assert list(marks.mark1_pairs.items()) == want


def test_classify_edge_all_three_kinds():
    # 0 and 1 share a cell; 2 sits one cell to the right, adjacent to both.
    # Budgets (1, 1): Phase I matches (0, 2); Phase II marks 0 from 2 again,
    # so 1 stays unmarked and its cross edge is bad.
    graph, rep, marks = _prepared(
        [(0.1, 0.1), (0.2, 0.1), (1.5, 0.1)], MarkingBudgets(1, 1))
    assert not marks.is_marked(1)
    assert classify_edge((0, 1), rep, marks) == INTRA_CELL
    assert classify_edge((0, 2), rep, marks) == GOOD
    assert classify_edge((1, 2), rep, marks) == BAD
    with pytest.raises(ContractViolation):
        classify_edge((0, 99), rep, marks)


def test_classify_edge_is_good_everywhere_under_default_budgets():
    _, graph, rep = random_instance(42, 30, 6.0)
    marks = run_marking(graph, rep)
    for e in graph.edges():
        assert classify_edge(e, rep, marks) in (INTRA_CELL, GOOD, BAD)


def _hand_marks(points, starred):
    """Instance plus a fabricated Mark* (a dict cell -> vertex ids)."""
    disks = DiskSet(points)
    graph = build_udg(disks)
    rep = build_clique_grid(disks, graph)
    mark_star = {cell: frozenset(starred.get(cell, ())) for cell in rep.cells}
    return graph, rep, MarkingResult({}, mark_star, MarkingBudgets(1, 1), graph, rep)


def test_classify_cell_avoiding_unmarked_is_good():
    # Path 0-1 stays on marked vertices; cell (1,1) keeps vertex 2 unmarked.
    graph, rep, marks = _hand_marks(
        [(0.2, 0.2), (0.8, 0.2), (0.5, 0.8)], {(1, 1): {0, 1}})
    assert classify_cell([0, 1], (1, 1), rep, marks) == GOOD


def test_classify_cell_exact_unmarked_set_is_good():
    # Path = the cell's whole unmarked set (condition (i)); nothing marked.
    graph, rep, marks = _hand_marks(
        [(0.2, 0.2), (0.8, 0.2), (0.5, 0.8)], {})
    assert classify_cell([0, 1, 2], (1, 1), rep, marks) == GOOD


def test_classify_cell_flanked_interior_is_good():
    # 1 and 2 unmarked inside the cell, flanked by marked 0 and 3.
    graph, rep, marks = _hand_marks(
        [(0.1, 0.5), (0.4, 0.5), (0.6, 0.5), (0.9, 0.5)], {(1, 1): {0, 3}})
    assert classify_cell([0, 1, 2, 3], (1, 1), rep, marks) == GOOD


def test_classify_cell_partial_visit_is_nice_not_good():
    # The cell has three unmarked vertices but the path takes only two of
    # them, consecutively between two marked vertices: nice, not good.
    graph, rep, marks = _hand_marks(
        [(0.1, 0.5), (0.35, 0.5), (0.6, 0.5), (0.9, 0.5), (0.5, 0.9)],
        {(1, 1): {0, 3}})
    assert classify_cell([0, 1, 2, 3], (1, 1), rep, marks) == NICE_NOT_GOOD


def test_classify_cell_split_visit_is_bad():
    # Unmarked 1 and 3 are separated by marked 2 on the path: two runs.
    graph, rep, marks = _hand_marks(
        [(0.1, 0.5), (0.3, 0.5), (0.5, 0.5), (0.7, 0.5), (0.9, 0.5)],
        {(1, 1): {0, 2, 4}})
    assert classify_cell([0, 1, 2, 3, 4], (1, 1), rep, marks) == BAD


def test_classify_cell_endpoint_exception():
    # The run of unmarked vertices ends at the path's endpoint, which lies in
    # the cell and may stand in as a flank.
    graph, rep, marks = _hand_marks(
        [(0.1, 0.5), (0.5, 0.5), (0.9, 0.5)], {(1, 1): {0}})
    assert classify_cell([0, 1, 2], (1, 1), rep, marks) == GOOD


def test_classify_cell_cycle_with_split_runs_is_bad():
    # Unmarked 1 and 3 are visited in two separate runs of the cycle, so no
    # single subpath (wrapping allowed) collects the visited unmarked set.
    graph, rep, marks = _hand_marks(
        [(0.1, 0.5), (0.5, 0.5), (0.9, 0.5), (0.5, 0.1)], {(1, 1): {0, 2}})
    assert classify_cell([0, 1, 2, 3], (1, 1), rep, marks, "cycle") == BAD


def test_classify_cell_cycle_wrap():
    # In a cycle the subpath may wrap around; with a single marked vertex u
    # the whole remainder counts as the interior between u and u.
    graph, rep, marks = _hand_marks(
        [(0.1, 0.5), (0.5, 0.5), (0.9, 0.5)], {(1, 1): {0}})
    assert classify_cell([0, 1, 2], (1, 1), rep, marks, "cycle") == GOOD


def test_validate_sequence_contract():
    graph, rep, marks = _prepared([(0.0, 0.0), (1.9, 0.0), (3.8, 0.0), (5.7, 0.0)])
    validate_sequence([0, 1, 2], graph.has_edge, "path")
    with pytest.raises(ContractViolation):
        validate_sequence([0, 2, 1, 0], graph.has_edge, "path")  # repeat
    with pytest.raises(ContractViolation):
        validate_sequence([0, 3], graph.has_edge, "path")  # not adjacent
    with pytest.raises(ContractViolation):
        validate_sequence([0, 1], graph.has_edge, "cycle")  # too short
    with pytest.raises(ContractViolation):
        validate_sequence([1, 2, 3], graph.has_edge, "cycle")  # does not close
    with pytest.raises(ContractViolation):
        validate_sequence([], graph.has_edge, "path")
    with pytest.raises(ContractViolation):
        validate_sequence([0, 1], graph.has_edge, "walk")
    with pytest.raises(ContractViolation):
        classify_cell([0, 3], (1, 1), rep, marks)
