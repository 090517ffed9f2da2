import hashlib
import random
from fractions import Fraction
from functools import reduce
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import betticone.coh_decomposition as coh_decomposition
import betticone.extension as extension
import betticone.tables as tables
from betticone import (BoundViolation, BudgetExceeded, InvalidTable, NotInCone,
                       RootSequence, add_tables, apply_cancellation,
                       cancellation_bounds, chi_eval, decompose_cohomology,
                       enumerate_patterns, feasible_set, line_bundle_table,
                       p1_oracle, parse_table, polytope_vertices,
                       pretty_cohomology, scale, serialize_table,
                       supernatural_table)
from betticone.extension import decide_patterns
from betticone.supernatural import CohDecomposition
from helpers import _in_hull, chi_neutral_dent, random_point_set
from helpers import reference_polytope_vertices
from helpers import caratheodory_inside, caratheodory_vertices
from helpers import reference_separate

F = Fraction
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def pair():
    a = scale(line_bundle_table(1, -2, (-6, 4)), 5)
    b = scale(line_bundle_table(1, 2, (-6, 4)), 5)
    return a, b


def rows_with_tables(a, b, *args, **kwargs):
    """(support, rows): decide_patterns' support and its rows drawn into a
    list, each with feasible_set's table in place of its verdict, or None
    outside the cone."""
    support, _, _, rows = decide_patterns(a, b, *args, **kwargs)
    rows = list(rows)
    feasible = iter(feasible_set(a, b, *args, **kwargs))
    return support, [(vector, next(feasible)[1] if in_cone else None)
                     for vector, in_cone in rows]


def test_bounds_triangle():
    a, b = pair()
    assert cancellation_bounds(a, b) == {(0, -2): 5, (0, -1): 10, (0, 0): 5}


def test_bounds_no_overlap_forces_split():
    t = supernatural_table(RootSequence(2, (0, -2)), 1, (-5, 3))
    assert cancellation_bounds(t, t) == {}


def test_apply_zero_pattern_is_split():
    a, b = pair()
    split = apply_cancellation(a, b, {})
    assert [split.value(0, j) for j in range(-2, 5)] == [5, 10, 15, 20, 30, 40, 50]
    assert [split.value(1, j) for j in range(0, -7, -1)] == [5, 10, 15, 20, 30, 40, 50]


def test_apply_symmetric_corner_gives_single_ray():
    a, b = pair()
    c = {(0, -2): 5, (0, -1): 10, (0, 0): 5}
    table = apply_cancellation(a, b, c)
    expected = supernatural_table(RootSequence(1, (-1,)), 10, (-6, 4))
    assert table == expected
    assert [table.value(0, j) for j in range(0, 5)] == [10, 20, 30, 40, 50]


def test_apply_single_cancellation_drops_two_entries():
    a, b = pair()
    split = apply_cancellation(a, b, {})
    dropped = apply_cancellation(a, b, {(0, -1): 1})
    assert split.value(0, -1) - dropped.value(0, -1) == 1
    assert split.value(1, -1) - dropped.value(1, -1) == 1
    same = [(i, j) for i in range(2) for j in range(-6, 5) if j != -1]
    assert all(split.value(i, j) == dropped.value(i, j) for i, j in same)


def test_apply_rejects_excess_rank():
    a, b = pair()
    with pytest.raises(BoundViolation):
        apply_cancellation(a, b, {(0, -1): 11})
    with pytest.raises(BoundViolation):
        apply_cancellation(a, b, {(1, 0): 1})


def test_apply_accepts_a_zero_rank_anywhere():
    # a zero rank is within any bound, also at a twist far outside the window
    a, b = pair()
    assert (apply_cancellation(a, b, {(0, 1000): 0, (1, -1000): 0, (0, -1): 2})
            == apply_cancellation(a, b, {(0, -1): 2}))


@pytest.mark.parametrize("rank", [F(1, 2), F(9, 2), 1.5, -0.5])
def test_apply_refuses_a_rank_that_is_not_an_integer(rank):
    a, b = pair()
    with pytest.raises(ValueError, match=rf"rank {rank} at \(0, -2\) is not an integer"):
        apply_cancellation(a, b, {(0, -2): rank})
    assert (apply_cancellation(a, b, {(0, -2): F(4)})
            == apply_cancellation(a, b, {(0, -2): 4}))


def test_feasible_triangle():
    a, b = pair()
    feasible = feasible_set(a, b, mode="serre-symmetric")
    points = sorted((p.get((0, -2), 0), p.get((0, -1), 0)) for p, _ in feasible)
    assert len(points) == 21
    assert points == sorted((x, y) for x in range(6) for y in range(11)
                            if x <= y <= 2 * x)
    support = [(0, -2), (0, -1), (0, 0)]
    vertices = polytope_vertices([p for p, _ in feasible], support)
    assert [tuple(v.get(k, 0) for k in support) for v in vertices] == [
        (0, 0, 0), (5, 5, 5), (5, 10, 5)]


def test_a5_b0_excluded():
    a, b = pair()
    feasible = feasible_set(a, b, mode="serre-symmetric")
    assert (5, 0) not in {(p.get((0, -2), 0), p.get((0, -1), 0))
                          for p, _ in feasible}


def test_zero_bounds_single_split_point():
    t = supernatural_table(RootSequence(2, (0, -2)), 1, (-5, 3))
    feasible = feasible_set(t, t)
    assert len(feasible) == 1
    pattern, table = feasible[0]
    assert pattern == {}
    assert table == scale(t, 2)


def test_triangle_scales_with_the_bundles():
    for k in (1, 2, 3):
        a = scale(line_bundle_table(1, -2, (-6, 4)), 5 * k)
        b = scale(line_bundle_table(1, 2, (-6, 4)), 5 * k)
        feasible = feasible_set(a, b, mode="serre-symmetric")
        support = sorted(cancellation_bounds(a, b))
        vertices = polytope_vertices([p for p, _ in feasible], support)
        assert [tuple(v.get(key, 0) for key in support) for v in vertices] == [
            (0, 0, 0), (5 * k, 5 * k, 5 * k), (5 * k, 10 * k, 5 * k)]


def test_serre_shift_moves_the_mirror():
    # extension of O by O(2) on P^1: one cancellation slot at twist -2
    a = line_bundle_table(1, 0, (-5, 3))
    b = line_bundle_table(1, 2, (-5, 3))
    assert cancellation_bounds(a, b) == {(0, -2): 1}
    # with the default mirror the slot pairs with an empty position
    default = feasible_set(a, b, mode="serre-symmetric")
    assert [p for p, _ in default] == [{}]
    # shifting the involution fixes the slot; the cancelled table is 2s(-2)
    shifted = feasible_set(a, b, mode="serre-symmetric", serre_shift=-2)
    assert [p for p, _ in shifted] == [{}, {(0, -2): 1}]
    cancelled = shifted[1][1]
    assert cancelled == supernatural_table(RootSequence(1, (-2,)), 2, (-5, 3))


def test_feasible_set_builds_the_split_table_once(monkeypatch):
    a, b = (parse_table((FIXTURES / name).read_text())
            for name in ("p1_o_minus2_x5.ct", "p1_o_plus2_x5.ct"))
    calls = {"add_tables": 0, "cancellation_bounds": 0}
    for name in calls:
        original = getattr(extension, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(extension, name, counted)
    feasible = feasible_set(a, b)
    assert len(feasible) == 55
    assert calls == {"add_tables": 1, "cancellation_bounds": 1}


def test_parsing_and_cancelling_wrap_no_entries_again(monkeypatch):
    # The parser and the cancellations hand their int-keyed Fraction
    # entries to the tables as they are.
    wrapped = []
    original = tables._as_entries

    def counted(entries):
        entries = dict(entries)
        wrapped.append(len(entries))
        return original(entries)
    monkeypatch.setattr(tables, "_as_entries", counted)
    a, b = (parse_table((FIXTURES / name).read_text())
            for name in ("p1_o_minus2_x5.ct", "p1_o_plus2_x5.ct"))
    parse_table((FIXTURES / "noncm.bt").read_text())
    assert len(rows_with_tables(a, b)[1]) == 396
    assert sum(wrapped) == 0


def test_budget_exceeded():
    a, b = pair()
    with pytest.raises(BudgetExceeded):
        enumerate_patterns(a, b, budget=10)


def test_enumerate_full_mode_counts():
    a, b = pair()
    patterns = enumerate_patterns(a, b, budget=10 ** 6)
    assert len(patterns) == 6 * 11 * 6


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 48))
def test_cancellation_preserves_euler_columns(seed):
    rng = random.Random(seed)
    a, b = pair()
    bounds = cancellation_bounds(a, b)
    pattern = {key: rng.randint(0, int(cap)) for key, cap in bounds.items()
               if rng.random() < 0.8}
    table = apply_cancellation(a, b, pattern)
    for j in range(-8, 7):
        alt = table.value(0, j) - table.value(1, j)
        assert alt == chi_eval(a, j) + chi_eval(b, j)


def test_hull_membership_exact():
    square = [(F(0), F(0)), (F(2), F(0)), (F(0), F(2)), (F(2), F(2))]
    assert _in_hull((F(1), F(1)), square)
    assert _in_hull((F(2), F(2)), square)
    assert not _in_hull((F(3), F(1)), square)
    assert not _in_hull((F(1), F(1)), [])
    # collinear interior point that is not a midpoint of lattice neighbours
    assert _in_hull((F(1), F(0)), [(F(0), F(0)), (F(3), F(0))])
    assert not _in_hull((F(4), F(0)), [(F(0), F(0)), (F(3), F(0))])


def _patterns(points):
    support = [(0, k) for k in range(len(points[0]))]
    return [{key: v for key, v in zip(support, p) if v} for p in points], support


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 48), st.integers(1, 4))
def test_vertices_match_the_all_others_reference(seed, dim):
    patterns, support = _patterns(random_point_set(random.Random(seed), dim))
    assert (polytope_vertices(patterns, support)
            == reference_polytope_vertices(patterns, support))


def test_vertices_of_the_full_feasible_set_match_the_reference():
    a, b = pair()
    feasible = [p for p, _ in feasible_set(a, b)]
    support = sorted(cancellation_bounds(a, b))
    assert (polytope_vertices(feasible, support)
            == reference_polytope_vertices(feasible, support))


def test_a_repeated_vertex_keeps_its_last_copy():
    # each copy lies in the hull of the other, so the all-others test drops
    # both; testing against the survivors keeps the copy tested last
    first, second, end = {}, {}, {(0, 0): 1}
    patterns, support = [first, second, end], [(0, 0)]
    vertices = polytope_vertices(patterns, support)
    assert len(vertices) == 2
    assert vertices[0] is second and vertices[1] is end
    assert reference_polytope_vertices(patterns, support) == [end]


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 48), st.integers(1, 4))
def test_vertices_match_the_caratheodory_reference(seed, dim):
    patterns, support = _patterns(random_point_set(random.Random(seed), dim))
    assert (polytope_vertices(patterns, support)
            == caratheodory_vertices(patterns, support))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 48), st.integers(1, 4))
def test_separating_direction_is_strict(seed, dim):
    rng = random.Random(seed)
    points = [tuple(F(v) for v in p) for p in random_point_set(rng, dim, max_points=8)]
    outside = tuple(F(rng.randint(-5, 5)) for _ in range(dim))
    for k, x in enumerate(points + [outside]):
        others = points[:k] + points[k + 1:]
        a = extension._separate(x, others)
        assert (a is None) == caratheodory_inside(x, others)
        if a is not None:
            ax = sum(ai * xi for ai, xi in zip(a, x))
            assert all(sum(ai * pi for ai, pi in zip(a, p)) < ax for p in others)


def test_vertices_of_the_k3_triangle_take_one_lp_per_point(monkeypatch):
    a = scale(line_bundle_table(1, -2, (-6, 4)), 15)
    b = scale(line_bundle_table(1, 2, (-6, 4)), 15)
    feasible = [p for p, _ in feasible_set(a, b, mode="serre-symmetric")]
    assert len(feasible) == 136
    sizes = []
    separate = extension._separate

    def counted(x, points):
        sizes.append(len(points))
        return separate(x, points)
    monkeypatch.setattr(extension, "_separate", counted)
    vertices = polytope_vertices(feasible, sorted(cancellation_bounds(a, b)))
    assert len(vertices) == 3
    assert len(sizes) <= 139 and max(sizes) <= 3


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 48), st.integers(1, 4), st.booleans())
def test_integer_separation_matches_the_fraction_simplex(seed, dim, fractional):
    # Same verdict, and a direction that is a positive multiple of the one
    # the Fraction tableau reads off, also on points with denominators.
    rng = random.Random(seed)
    points = random_point_set(rng, dim, max_points=8)
    if fractional:
        points = [tuple(F(v, rng.randint(1, 4)) for v in p) for p in points]
    outside = tuple(F(rng.randint(-5, 5)) for _ in range(dim))
    for k, x in enumerate(points + [outside]):
        others = points[:k] + points[k + 1:]
        a, ref = extension._separate(x, others), reference_separate(x, others)
        assert (a is None) == (ref is None)
        if a is not None:
            assert all(ai * rj == aj * ri for ai, ri in zip(a, ref) for aj, rj in zip(a, ref))
            assert sum(ai * ri for ai, ri in zip(a, ref)) > 0


def _pinned_separation_cases(seed, count):
    # d from 1 to 6, m from 0 to 9, coordinates in [-6, 6], about 30 % of
    # them over a denominator 1-4; half the x are convex combinations of up
    # to three of the points.
    rng = random.Random(seed)

    def coord():
        v = rng.randint(-6, 6)
        return F(v, rng.randint(1, 4)) if rng.random() < 0.3 else v
    for _ in range(count):
        d, m = rng.randint(1, 6), rng.randint(0, 9)
        points = [tuple(coord() for _ in range(d)) for _ in range(m)]
        if points and rng.random() < 0.5:
            chosen = rng.sample(points, rng.randint(1, min(3, m)))
            weights = [rng.randint(1, 3) for _ in chosen]
            x = tuple(sum(F(w, sum(weights)) * p[k] for w, p in zip(weights, chosen))
                      for k in range(d))
        else:
            x = tuple(coord() for _ in range(d))
        yield x, points


def test_separation_returns_the_pinned_ints():
    # The exact values, not just their direction: Bland's pivots and the
    # fraction-free scaling fix every int the simplex returns.
    cases = list(_pinned_separation_cases(2028, 3000))
    results = [extension._separate(x, points) for x, points in cases]
    assert sum(r is None for r in results) == 1583
    assert [results[k] for k in (5, 23, 52, 55, 56, 68)] == [
        [3, 15, 15], [48, 45, 48], [-11, 18], [-10, -79, 11], [-278, -51, 194], [1, 7]]
    digest = hashlib.sha256("\n".join(map(repr, results)).encode()).hexdigest()
    assert digest == "ddb7c03d17e243300ef894d4a2cf35b012925474a87dca227e6909cfc8f56830"


@pytest.mark.parametrize("x, points, expected", [
    ((0,), [(1,), (-1,)], None),
    ((2,), [(1,), (-1,)], [1]),
    ((0, 0), [], [1, 1]),
    ((1, 1), [(0, 0), (2, 0), (0, 2)], None),
    ((2, 2), [(0, 0), (2, 0), (0, 2)], [1, 1]),
    ((F(1, 3), F(1, 3)), [(0, 0), (1, 0), (0, 1)], None),
    ((3, -1), [(F(1, 2), 0), (0, F(5, 4)), (-2, -3), (4, 1)], [4, -4]),
])
def test_separation_of_small_cases(x, points, expected):
    assert extension._separate(x, points) == expected


def _counting_fraction_ops(monkeypatch, names):
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _original=getattr(Fraction, name)):
            counts[_name] += 1
            return _original(*args)
        monkeypatch.setattr(Fraction, name, counted)
    return counts


def test_candidates_are_cancelled_without_fraction_subtraction(monkeypatch):
    a, b = (parse_table((FIXTURES / name).read_text())
            for name in ("p1_o_minus2_x5.ct", "p1_o_plus2_x5.ct"))
    counts = _counting_fraction_ops(monkeypatch, ["__sub__", "__rsub__"])
    _, rows = rows_with_tables(a, b)
    assert len(rows) == 396
    assert sum(table is not None for _, table in rows) == 55
    assert counts == {"__sub__": 0, "__rsub__": 0}


def p2_pair():
    # A rank-3 bundle and O(2) on P^2: 6 candidates, decided by the greedy.
    return tuple(parse_table((FIXTURES / name).read_text())
                 for name in ("pp2_rank3.ct", "p2_o_plus2.ct"))


def test_sigma_cells_are_built_once_per_root_sequence(monkeypatch):
    a, b = p2_pair()
    built = []
    cells = coh_decomposition._cells

    def counted(f, lo, hi):
        built.append((f, lo, hi))
        return cells(f, lo, hi)
    monkeypatch.setattr(coh_decomposition, "_cells", counted)
    list(decide_patterns(a, b)[3])
    assert len(built) > 1
    assert len(set(built)) == len(built)


def test_vertices_of_the_k3_triangle_take_no_fraction_arithmetic(monkeypatch):
    a = scale(line_bundle_table(1, -2, (-6, 4)), 15)
    b = scale(line_bundle_table(1, 2, (-6, 4)), 15)
    feasible = [p for p, _ in feasible_set(a, b, mode="serre-symmetric")]
    support = sorted(cancellation_bounds(a, b))
    counts = _counting_fraction_ops(monkeypatch, [
        "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
        "__truediv__", "__rtruediv__", "__lt__", "__gt__", "__le__", "__ge__", "__eq__"])
    vertices = polytope_vertices(feasible, support)
    assert [tuple(v.get(key, 0) for key in support) for v in vertices] == [
        (0, 0, 0), (15, 15, 15), (15, 30, 15)]
    assert not any(counts.values())


def test_enumerate_refuses_an_unknown_mode():
    a, b = (parse_table((FIXTURES / name).read_text())
            for name in ("p1_o_minus2_x5.ct", "p1_o_plus2_x5.ct"))
    with pytest.raises(ValueError, match="^unknown mode 'diagonal'$"):
        enumerate_patterns(a, b, mode="diagonal")


def test_decide_patterns_converts_once_and_checks_no_root_sequence(monkeypatch):
    # A, B and the split table are each converted to Numerators once, A and
    # B for their own checks and the split table for its validation; the one
    # Rows built is the widened split table that decides every candidate,
    # and feasible_set cancels on copies of it.  The greedy's root sequences
    # are strictly decreasing by construction, so none goes through the
    # checking constructor.
    calls = {"Numerators": 0, "RootSequence": 0, "Rows": 0}
    numerators_init = tables.Numerators.__init__
    rows_init = tables.Rows.__init__
    post_init = RootSequence.__post_init__

    def counted_numerators_init(self, t):
        calls["Numerators"] += 1
        numerators_init(self, t)

    def counted_rows_init(self, *args):
        calls["Rows"] += 1
        rows_init(self, *args)

    def counted_post_init(self):
        calls["RootSequence"] += 1
        post_init(self)
    monkeypatch.setattr(tables.Numerators, "__init__", counted_numerators_init)
    monkeypatch.setattr(tables.Rows, "__init__", counted_rows_init)
    monkeypatch.setattr(RootSequence, "__post_init__", counted_post_init)
    p1 = tuple(parse_table((FIXTURES / name).read_text())
               for name in ("p1_o_minus2_x5.ct", "p1_o_plus2_x5.ct"))
    for (a, b), feasible in ((p1, 55), (p2_pair(), 3)):
        for name in calls:
            calls[name] = 0
        _, _, _, rows = decide_patterns(a, b)
        assert sum(in_cone for _, in_cone in rows) == feasible
        assert calls == {"Numerators": 3, "RootSequence": 0, "Rows": 1}
        calls["Rows"] = 0
        assert len(feasible_set(a, b)) == feasible
        assert calls["Rows"] == 1


def test_each_refused_candidate_builds_one_refusal(monkeypatch):
    # A = 2 sigma(2, 1) and B = 2 sigma(1, -5) on [-7, 5]: the greedy raises
    # each candidate's NotInCone once, with its step, and nothing rebuilds it.
    a, b = (supernatural_table(RootSequence(2, roots), 2, (-7, 5))
            for roots in ((2, 1), (1, -5)))
    built = []
    init = NotInCone.__init__

    def counted(self, *args):
        built.append(type(self))
        init(self, *args)
    monkeypatch.setattr(NotInCone, "__init__", counted)
    rows = list(decide_patterns(a, b)[3])
    refused = sum(not in_cone for _, in_cone in rows)
    assert (len(rows), refused) == (11340, 11313)
    assert len(built) == refused


def test_the_narrow_pair_is_decided_past_its_window():
    # O(-5) + O(5) on [-3, 3]: the split table's row 1 corner lies past the
    # window edge, and the greedy reads it off the widened table's tail.
    a = line_bundle_table(1, -5, (-3, 3))
    b = line_bundle_table(1, 5, (-3, 3))
    support, rows = rows_with_tables(a, b)
    assert len(rows) == 14400
    feasible = [dict(zip(support, vector)) for vector, table in rows if table is not None]
    assert support == sorted(cancellation_bounds(a, b))
    assert [[p.get(key, 0) for key in support] for p in polytope_vertices(feasible, support)] \
        == [[2, 2, 2, 2, 2, 2, 1], [3, 3, 3, 3, 3, 2, 1], [3, 4, 4, 4, 3, 2, 1],
            [3, 4, 5, 4, 3, 2, 1]]
    assert len(feasible) == 4


def test_decide_patterns_copies_each_candidate_once_and_builds_no_decomposition(
        monkeypatch):
    # One working copy of the widened split table's Rows per candidate;
    # feasible_set adds one more copy for each of the 3 candidates in the
    # cone, which becomes its table.
    a, b = p2_pair()
    calls = {"copy": 0, "CohDecomposition": 0}
    init = CohDecomposition.__init__
    copy = tables.Rows.copy

    def counted_copy(self):
        calls["copy"] += 1
        return copy(self)

    def counted_init(self, *args, **kwargs):
        calls["CohDecomposition"] += 1
        init(self, *args, **kwargs)
    assert not hasattr(tables.Numerators, "copy")
    monkeypatch.setattr(tables.Rows, "copy", counted_copy)
    monkeypatch.setattr(CohDecomposition, "__init__", counted_init)
    rows = list(decide_patterns(a, b)[3])
    assert len(rows) == 6
    assert sum(in_cone for _, in_cone in rows) == 3
    assert calls == {"copy": 6, "CohDecomposition": 0}
    calls["copy"] = 0
    assert len(feasible_set(a, b)) == 3
    assert calls == {"copy": 6 + 3, "CohDecomposition": 0}


def test_the_p1_walk_runs_no_greedy(monkeypatch):
    # No copy of the widened split table's Rows, and in feasible_set one
    # copy for each of the 55 candidates in the cone; no peel, corner read
    # or sigma cell.
    a, b = (parse_table((FIXTURES / name).read_text())
            for name in ("p1_o_minus2_x5.ct", "p1_o_plus2_x5.ct"))
    calls = {"copy": 0, "_decompose": 0, "_corner": 0, "_cells": 0}

    def counting(name, original):
        def counted(*args):
            calls[name] += 1
            return original(*args)
        return counted
    assert not hasattr(tables.Numerators, "copy")
    monkeypatch.setattr(tables.Rows, "copy", counting("copy", tables.Rows.copy))
    monkeypatch.setattr(extension, "_decompose", counting("_decompose", extension._decompose))
    for name in ("_corner", "_cells"):
        monkeypatch.setattr(coh_decomposition, name,
                            counting(name, getattr(coh_decomposition, name)))
    rows = list(decide_patterns(a, b)[3])
    assert len(rows) == 396
    assert sum(in_cone for _, in_cone in rows) == 55
    assert calls == {"copy": 0, "_decompose": 0, "_corner": 0, "_cells": 0}
    calls["copy"] = 0
    assert len(feasible_set(a, b)) == 55
    assert calls == {"copy": 55, "_decompose": 0, "_corner": 0, "_cells": 0}


def test_a_feasible_table_is_the_one_apply_cancellation_gives():
    # The greedy decides on the widened split table, but each feasible table
    # keeps the split table's window and stores no tail cell, so it prints
    # as apply_cancellation's table prints.  Where A's and B's windows
    # differ, that window is their union.
    fixture = tuple(parse_table((FIXTURES / name).read_text())
                    for name in ("p1_o_minus2_x5.ct", "p1_o_plus2_x5.ct"))
    shifted = (scale(line_bundle_table(1, -2, (-6, 4)), 5),
               scale(line_bundle_table(1, 2, (-4, 6)), 5))
    sheaves = (supernatural_table(RootSequence(2, (1, -2)), F(3, 2), (-6, 4)),
               supernatural_table(RootSequence(2, (0, -4)), 2, (-5, 6)))
    for (a, b), count, window in ((fixture, 55, (-6, 4)), (shifted, 55, (-6, 6)),
                                  (sheaves, 4, (-6, 6))):
        feasible = feasible_set(a, b)
        assert len(feasible) == count
        for pattern, table in feasible:
            applied = apply_cancellation(a, b, pattern)
            assert serialize_table(table) == serialize_table(applied)
            assert pretty_cohomology(table) == pretty_cohomology(applied)
            assert table.window == applied.window == window


def test_the_budget_is_checked_before_the_split_table():
    # O(1) + O(6) on [-3, 3] is not a valid table (its left tail goes
    # negative), but the candidate box is larger than the budget.
    a = line_bundle_table(1, 1, (-3, 3))
    b = line_bundle_table(1, 6, (-3, 3))
    with pytest.raises(BudgetExceeded):
        decide_patterns(a, b, budget=1)
    with pytest.raises(InvalidTable):
        decide_patterns(a, b)


def test_a_serre_shift_needs_the_symmetric_mode():
    a, b = pair()
    message = "^serre_shift 3 needs mode 'serre-symmetric'$"
    for run in (enumerate_patterns, rows_with_tables, feasible_set):
        with pytest.raises(ValueError, match=message):
            run(a, b, serre_shift=3)
        assert run(a, b, serre_shift=-0) == run(a, b)


def _random_p1_extension(rng):
    # A and B sums of 1-2 multiples of line bundles on one P^1 window, and a mode.
    window = (rng.randint(-9, -3), rng.randint(2, 8))

    def bundles():
        return reduce(add_tables, [
            scale(line_bundle_table(1, rng.randint(-4, 4), window), rng.randint(1, 3))
            for _ in range(rng.randint(1, 2))])
    return bundles(), bundles(), rng.choice(["full", "serre-symmetric"])


def _decided_or_none(a, b, mode):
    # rows_with_tables' rows with each vector read as a pattern dict.
    try:
        support, rows = rows_with_tables(a, b, mode, budget=3000)
    except (InvalidTable, BudgetExceeded):
        return None
    return [(dict(zip(support, vector)), table) for vector, table in rows]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 48))
def test_decided_patterns_match_the_p1_oracle(seed):
    # The oracle reads second differences and runs no greedy.
    a, b, mode = _random_p1_extension(random.Random(seed))
    decided = _decided_or_none(a, b, mode)
    assume(decided is not None)
    for pattern, table in decided:
        cancelled = apply_cancellation(a, b, pattern)
        try:
            p1_oracle(cancelled)
        except NotInCone:
            assert table is None, pattern
        else:
            assert table == cancelled, pattern
            assert serialize_table(table) == serialize_table(cancelled), pattern


def test_most_random_p1_extensions_are_decided():
    # The oracle test above is not vacuous: most of its draws are decided.
    draws = [_random_p1_extension(random.Random(seed)) for seed in range(40)]
    decided = [_decided_or_none(*draw) for draw in draws]
    assert sum(d is not None for d in decided) > len(draws) // 2
    assert sum(len(d) for d in decided if d) > 1000


def _random_narrow_p1_pair(rng):
    """A and B sums of 1-2 line bundles times fractions on one P^1 window,
    often narrower than a root's distance from it, A dented chi-neutrally
    up to twice (so the split table may leave the cone), and a mode with a
    serre shift."""
    lo = rng.randint(-6, 0)
    window = (lo, lo + rng.randint(0, 7))

    def bundles(lo, hi):
        return reduce(add_tables, [
            scale(line_bundle_table(1, rng.randint(lo, hi), window),
                  F(rng.randint(1, 4), rng.randint(1, 3)))
            for _ in range(rng.randint(1, 2))])
    # Lower degrees in A, so that most boxes are not empty.
    a, b = bundles(-7, 3), bundles(-3, 7)
    for _ in range(rng.randint(0, 2)):
        a = chi_neutral_dent(rng, a)
    if rng.random() < 0.5:
        return a, b, "full", 0
    return a, b, "serre-symmetric", rng.randint(-3, 3)


def _walk_and_greedy(a, b, mode, shift):
    # rows_with_tables' rows, and the greedy's verdict on each candidate cancelled
    # on the widened split table; None when the pair is refused.
    try:
        support, rows = rows_with_tables(a, b, mode, budget=2000, serre_shift=shift)
    except (InvalidTable, BudgetExceeded):
        return None
    decided = [(dict(zip(support, vector)), table) for vector, table in rows]
    wide = coh_decomposition._valid(tables.Numerators(add_tables(a, b)))
    greedy = []
    for pattern in enumerate_patterns(a, b, mode, serre_shift=shift):
        try:
            for _ in coh_decomposition._decompose(extension._cancel(wide, pattern.items())):
                pass
        except NotInCone:
            greedy.append(False)
        else:
            greedy.append(True)
    return decided, greedy


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 48))
def test_the_p1_walk_agrees_with_the_greedy(seed):
    a, b, mode, shift = _random_narrow_p1_pair(random.Random(seed))
    both = _walk_and_greedy(a, b, mode, shift)
    assume(both is not None)
    decided, greedy = both
    assert [table is not None for _, table in decided] == greedy
    for pattern, table in decided:
        if table is not None:
            assert table == apply_cancellation(a, b, pattern), pattern


def test_the_narrow_p1_draws_reach_both_verdicts():
    # The agreement test above is not vacuous: most draws are decided, and
    # both verdicts turn up, also past a narrow window and on dented splits.
    verdicts = {True: 0, False: 0}
    decided = 0
    for seed in range(100):
        both = _walk_and_greedy(*_random_narrow_p1_pair(random.Random(seed)))
        if both is not None:
            decided += 1
            for in_cone in both[1]:
                verdicts[in_cone] += 1
    assert decided > 40
    assert verdicts[True] > 40 and verdicts[False] > 1000


def _random_p2_extension(rng):
    """A and B sums of 1-2 supernatural tables on P^2 over (-6, 4) times
    fractions, and a mode with a serre shift."""
    def sheaf():
        terms = []
        for _ in range(rng.randint(1, 2)):
            f1 = rng.randint(-4, 2)
            f2 = rng.randint(-5, f1 - 1)
            terms.append(supernatural_table(RootSequence(2, (f1, f2)),
                                            F(rng.randint(1, 4), rng.randint(1, 2)), (-6, 4)))
        return reduce(add_tables, terms)
    a, b = sheaf(), sheaf()
    if rng.random() < 0.5:
        return a, b, "full", 0
    return a, b, "serre-symmetric", rng.randint(-3, 3)


def _p2_rows_or_none(a, b, mode, shift):
    # rows_with_tables' rows checked against the public functions and against
    # decompose_cohomology on each cancelled table; None when the pair is
    # refused.
    try:
        support, rows = rows_with_tables(a, b, mode, budget=300, serre_shift=shift)
    except (InvalidTable, BudgetExceeded):
        return None
    patterns = enumerate_patterns(a, b, mode, serre_shift=shift)
    assert [{key: v for key, v in zip(support, vector) if v} for vector, _ in rows] \
        == patterns
    for pattern, (_, table) in zip(patterns, rows):
        cancelled = apply_cancellation(a, b, pattern)
        try:
            decompose_cohomology(cancelled)
        except NotInCone:
            assert table is None, pattern
        else:
            assert table == cancelled, pattern
            assert serialize_table(table) == serialize_table(cancelled), pattern
    return rows


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 48))
def test_the_p2_greedy_rows_match_the_patterns_and_their_tables(seed):
    a, b, mode, shift = _random_p2_extension(random.Random(seed))
    assume(_p2_rows_or_none(a, b, mode, shift) is not None)


def test_the_p2_draws_reach_both_verdicts_in_both_modes():
    # The test above is not vacuous: most draws are decided, boxes with more
    # than one candidate turn up in both modes, and so do both verdicts.
    boxes = {"full": 0, "serre-symmetric": 0}
    verdicts = {True: 0, False: 0}
    decided = 0
    for seed in range(300):
        a, b, mode, shift = _random_p2_extension(random.Random(seed))
        rows = _p2_rows_or_none(a, b, mode, shift)
        if rows is not None:
            decided += 1
            boxes[mode] += len(rows) > 1
            for _, table in rows:
                verdicts[table is not None] += 1
    assert decided > 250
    assert boxes["full"] > 20 and boxes["serre-symmetric"] > 4
    assert verdicts[True] > 300 and verdicts[False] > 1000
