import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import betticone.supernatural as supernatural
from betticone import (CohomologyTable, NotStaircase, RootSequence,
                       WindowTooSmall, chi_eval, corner_roots,
                       line_bundle_table, supernatural_table, validate)
from betticone.diagrams import integral_scale
from helpers import reference_line_bundle_table

F = Fraction


def test_root_sequence_validation():
    with pytest.raises(ValueError):
        RootSequence(2, (0, 0))
    with pytest.raises(ValueError):
        RootSequence(2, (0,))


def test_sigma_p2_roots_0_m3():
    t = supernatural_table(RootSequence(2, (0, -3)), 3, (-6, 3))
    assert [t.value(1, j) for j in (-2, -1)] == [3, 3]
    assert [t.value(0, j) for j in (1, 2, 3)] == [6, 15, 27]
    assert [t.value(2, j) for j in (-4, -5)] == [6, 15]
    assert t.value(0, 0) == 0 and t.value(2, -3) == 0  # roots kill whole columns


def test_sigma_p2_roots_0_m2():
    t = supernatural_table(RootSequence(2, (0, -2)), 2, (-5, 3))
    assert t.value(1, -1) == 1
    assert [t.value(0, j) for j in (1, 2, 3)] == [3, 8, 15]


def test_sigma_p1_line():
    t = supernatural_table(RootSequence(1, (-1,)), 10, (-6, 4))
    assert all(t.value(0, j) == 10 * (j + 1) for j in range(-1, 5))
    assert all(t.value(1, j) == 10 * (-j - 1) for j in range(-6, 0))


def test_sigma_window_too_small():
    with pytest.raises(WindowTooSmall):
        supernatural_table(RootSequence(2, (0, -3)), 1, (-3, 3))


def test_sigma_default_window():
    t = supernatural_table(RootSequence(2, (2, -1)))
    assert t.window == (-2, 3)
    assert validate(t) == []


def test_line_bundle_structure_sheaf():
    t = line_bundle_table(2, 0, (-5, 3))
    assert [t.value(0, j) for j in range(0, 4)] == [1, 3, 6, 10]
    assert [t.value(2, j) for j in (-4, -3)] == [3, 1]
    assert chi_eval(t, -1) == 0 and chi_eval(t, -2) == 0


def test_line_bundle_twist_scaled():
    t = line_bundle_table(1, 2, (-6, 4))
    assert all(5 * t.value(0, j) == 5 * (j + 3) for j in range(-2, 5))


def test_corner_roots_of_rank3_bundle():
    g_entries = {(0, 1): 5, (0, 2): 13, (0, 3): 24, (1, -2): 1, (1, -1): 2,
                 (2, -3): 3, (2, -4): 10, (2, -5): 20}
    g = CohomologyTable(2, (-5, 3), g_entries, [0, F(7, 2), F(3, 2)])
    assert corner_roots(g).roots == (0, -3)


def test_corner_roots_of_split_table():
    split = CohomologyTable(
        1, (-6, 4),
        {(0, j): v for j, v in zip(range(-2, 5), (5, 10, 15, 20, 30, 40, 50))}
        | {(1, j): v for j, v in zip(range(0, -7, -1), (5, 10, 15, 20, 30, 40, 50))},
        [10, 10])
    assert corner_roots(split).roots == (-3,)


def test_corner_roots_requires_outer_rows():
    t = CohomologyTable(2, (-3, 3), {(1, 0): 1},
                                                [0, 0, 0])
    with pytest.raises(NotStaircase):
        corner_roots(t)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 48), st.integers(1, 4))
def test_sigma_tables_validate(seed, n):
    rng = random.Random(seed)
    roots = RootSequence(n, tuple(sorted(rng.sample(range(-8, 9), n), reverse=True)))
    m = F(rng.randint(1, 6), rng.randint(1, 3))
    pad = rng.randint(0, 3)
    t = supernatural_table(roots, m,
                           (roots.roots[-1] - 1 - pad, roots.roots[0] + 1 + pad))
    assert validate(t) == []
    # chi vanishes exactly at the roots, and the whole column with it
    for f in roots.roots:
        assert chi_eval(t, f) == 0
        assert all(t.value(i, f) == 0 for i in range(n + 1))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 48))
def test_corner_roots_inverts_sigma(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    roots = RootSequence(n, tuple(sorted(rng.sample(range(-8, 9), n), reverse=True)))
    t = supernatural_table(roots, rng.randint(1, 5))
    assert corner_roots(t) == roots


@settings(max_examples=200, deadline=None)
@given(st.integers(-8, 8), st.integers(0, 4))
def test_line_bundle_equals_sigma_on_p1(a, pad):
    window = (-a - 2 - pad, -a + pad)
    lb = line_bundle_table(1, a, window)
    sigma = supernatural_table(RootSequence(1, (-a - 1,)), 1, window)
    assert lb == sigma
    assert lb.chi == sigma.chi


def test_consecutive_roots_leave_interior_row_empty():
    t = supernatural_table(RootSequence(2, (0, -1)), 1, (-4, 3))
    assert all(i != 1 for i, _ in t.entries)
    assert corner_roots(t).roots == (0, -1)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4), st.integers(-8, 8), st.integers(-4, 8), st.integers(0, 12))
def test_line_bundle_table_matches_binomials(n, a, offset, width):
    # the staircase spans the n + 2 twists [-a - n - 1, -a]; windows start
    # from 4 twists left of it to past its right end and are 1 to 13 twists
    # wide, so some are narrower than it, some wider, some disjoint from it
    lo = -a - n - 1 + offset
    window = (lo, lo + width)
    t = line_bundle_table(n, a, window)
    reference = reference_line_bundle_table(n, a, window)
    assert t.entries == reference.entries
    assert t.chi == reference.chi
    assert t.window == reference.window


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.integers(-8, 8), st.sampled_from([-1, 1]), st.integers(0, 12))
def test_far_line_bundle_windows_match_binomials(n, a, side, width):
    # windows 10^5 twists left or right of the staircase
    lo = -a + side * 10 ** 5
    window = (lo, lo + width)
    t = line_bundle_table(n, a, window)
    reference = reference_line_bundle_table(n, a, window)
    assert (t.entries, t.chi, t.window) == (reference.entries, reference.chi, reference.window)


def test_line_bundle_table_evaluates_only_its_window(monkeypatch):
    # O(0) on P^2 has roots -1, -2, and the window holds one row-0 segment: its
    # n + 1 = 3 root products, each at a twist of the window, and sums after them
    twists = []

    def counted(factors):
        factors = list(factors)
        twists.append(factors[0] - 1)  # the first factor is j - f_1 = j + 1
        return prod(factors)
    monkeypatch.setattr(supernatural, "prod", counted)
    t = line_bundle_table(2, 0, (2000, 2010))
    assert len(twists) == 3 and all(2000 <= j <= 2010 for j in twists)
    assert t.entries == reference_line_bundle_table(2, 0, (2000, 2010)).entries


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.lists(st.integers(1, 3), min_size=n - 1,
                                                    max_size=n - 1)),
       st.integers(-30, 30), st.sampled_from([0, -10 ** 5, 10 ** 5]), st.integers(-8, 8),
       st.one_of(st.integers(0, 1), st.integers(0, 40)))
def test_sigma_cells_are_the_root_products_on_any_window(gaps, top, far, offset, width):
    # Roots 1 apart leave an interior row empty; the window is 0-40 twists wide,
    # starting near f_n (so clipped inside the staircase) or 10^5 twists off.
    f = [top]
    for gap in gaps:
        f.append(f[-1] - gap)
    lo = f[-1] + far + offset
    hi = lo + width - 1
    rows = list(supernatural._cells(tuple(f), lo, hi))
    assert [row for row, _, _ in rows] == list(range(len(f) + 1))
    cells = {(row, lo + k + m): x for row, k, xs in rows for m, x in enumerate(xs)}
    assert cells == {(sum(fk > j for fk in f), j): abs(prod(j - fk for fk in f))
                     for j in range(lo, hi + 1) if j not in f}


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 48))
def test_integral_multiple_is_the_unit_tables_integral_scale(seed):
    # the multiple takes the roots alone: any window holding the staircase agrees
    rng = random.Random(seed)
    n = rng.randint(1, 5)
    roots = RootSequence(n, tuple(sorted(rng.sample(range(-12, 13), n), reverse=True)))
    s = supernatural._integral_multiple(roots)
    for _ in range(2):
        window = (roots.roots[-1] - 1 - rng.randint(0, 6), roots.roots[0] + 1 + rng.randint(0, 6))
        assert s == integral_scale(supernatural_table(roots, 1, window).entries.values())


def test_integral_multiple_computes_n_plus_one_root_products(monkeypatch):
    calls = []

    def counted(factors):
        calls.append(1)
        return prod(factors)
    monkeypatch.setattr(supernatural, "prod", counted)
    # P = j (j + 3) (j + 7) at j = 1..4 is 32, 90, 180, 308: gcd 2, so 3! / 2
    assert supernatural._integral_multiple(RootSequence(3, (0, -3, -7))) == 3
    assert len(calls) == 4
