"""Sparse cohomology arithmetic against the dense reference, plus work counts.

The property tests compare every operation built on ``combine`` / ``cells``
with the grid walks in ``helpers``; the counter tests pin down that the cost
follows the support and the window difference, not the declared window.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betticone import (CohomologyTable, NegativeEntry, RootSequence,
                       add_tables, apply_cancellation, cancellation_bounds,
                       subtract_checked, supernatural_table, validate)
from betticone.tables import Numerators, _own_violations
from helpers import (dense_apply_cancellation, dense_cancellation_bounds,
                     dense_cells, dense_combine, dense_equal, dense_validate)

F = Fraction

values = st.fractions(min_value=-2, max_value=9, max_denominator=4)
positive_values = st.fractions(min_value=0, max_value=9, max_denominator=4)


@st.composite
def tables(draw, n, cell_values=values, tails="any", near=0):
    """Random P^n table: small window near ``near``, some stray entries.

    ``tails="any"`` draws chi freely (zero, or tails of either sign);
    ``tails="nonneg"`` uses a supernatural chi with roots inside the window,
    whose tails are positive on both sides.
    """
    lo = near + draw(st.integers(-5, 5))
    hi = lo + draw(st.integers(n, 9))
    keys = st.tuples(st.integers(-1, n + 1), st.integers(lo - 2, hi + 2))
    if tails == "nonneg":
        keys = st.tuples(st.integers(0, n), st.integers(lo, hi))
    entries = draw(st.dictionaries(keys, cell_values,
                                   min_size=draw(st.integers(0, 4)), max_size=20))
    if tails == "nonneg":
        roots = draw(st.lists(st.integers(lo, hi), min_size=n, max_size=n,
                              unique=True))
        m = draw(st.integers(1, 3))
        chi = supernatural_table(RootSequence(n, sorted(roots, reverse=True)), m).chi
    else:
        chi = draw(st.one_of(
            st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=3),
                     min_size=n + 1, max_size=n + 1),
            st.just([0] * (n + 1))))
    return CohomologyTable(n, (lo, hi), entries, chi)


@st.composite
def table_pairs(draw, first="any", second="any"):
    """Two tables on the same P^n with overlapping, usually different windows."""
    n = draw(st.integers(1, 3))
    a = draw(tables(n, positive_values if first == "nonneg" else values, first))
    b = draw(tables(n, positive_values if second == "nonneg" else values, second,
                    near=a.window[0]))
    return a, b


def same(t, u):
    """Structural equality: window, chi and stored entries all identical."""
    return (t.n, t.window, t.chi, t.entries) == (u.n, u.window, u.chi, u.entries)


@settings(max_examples=100, deadline=None)
@given(table_pairs())
def test_add_matches_dense(pair):
    a, b = pair
    assert same(add_tables(a, b), dense_combine(a, b, 1))


@settings(max_examples=100, deadline=None)
@given(table_pairs(first="nonneg"))
def test_subtract_matches_dense_including_the_negative_cell(pair):
    a, b = pair
    try:
        expected = dense_combine(a, b, -1)
    except NegativeEntry as exc:
        with pytest.raises(NegativeEntry) as info:
            subtract_checked(a, b)
        assert (info.value.position, info.value.value) == (exc.position, exc.value)
        return
    assert same(subtract_checked(a, b), expected)


@settings(max_examples=100, deadline=None)
@given(table_pairs(), st.integers(0, 3), st.integers(0, 3), st.booleans())
def test_equality_matches_dense(pair, pad_lo, pad_hi, perturb):
    a, b = pair
    assert (a == b) == dense_equal(a, b)
    # the same function over a padded window, possibly with one cell changed
    lo, hi = a.window[0] - pad_lo, a.window[1] + pad_hi
    cells = dense_cells(a, lo, hi)
    if perturb:
        cells[(0, lo)] = cells.get((0, lo), 0) + 1
    wide = CohomologyTable(a.n, (lo, hi), cells, a.chi)
    assert (a == wide) == dense_equal(a, wide) == (wide == a)
    assert (a == wide) is not perturb


@settings(max_examples=100, deadline=None)
@given(table_pairs("nonneg", "nonneg") | table_pairs(), st.randoms(use_true_random=False))
def test_cancellation_matches_dense(pair, rng):
    A, B = pair
    bounds = cancellation_bounds(A, B)
    assert bounds == dense_cancellation_bounds(A, B)
    pattern = {key: rng.randint(0, int(cap)) for key, cap in bounds.items()}
    assert same(apply_cancellation(A, B, pattern),
                dense_apply_cancellation(A, B, pattern))


def test_cancellation_of_an_unvalidated_split_matches_dense():
    # Found by test_cancellation_matches_dense: the split table has a
    # negative cell, which no rank bound rules out, so cancelling just
    # subtracts, as the dense reference does.
    A = CohomologyTable(1, (0, 2), {(0, 2): -2, (1, 2): 1}, (0, 0))
    B = CohomologyTable(1, (0, 1), {}, (1, 0))
    for pattern in ({}, {(0, 2): 0}, {(0, 2): 1}):
        assert same(apply_cancellation(A, B, pattern),
                    dense_apply_cancellation(A, B, pattern))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3).flatmap(tables))
def test_validate_matches_dense(t):
    assert validate(t) == dense_validate(t)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: tables(n, positive_values, "nonneg")))
def test_validate_matches_dense_on_euler_consistent_tables(t):
    # Row 0 carries chi itself, so the Euler check passes and the tails decide.
    lo, hi = t.window
    consistent = CohomologyTable(t.n, t.window,
                                 {(0, j): t.chi_at(j) for j in range(lo, hi + 1)}, t.chi)
    assert validate(consistent) == dense_validate(consistent)


_TAIL_TEXTS = ("right tail negative", "left tail negative", "leading chi coefficient")


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3).flatmap(tables))
def test_own_violations_are_validate_without_the_tails(t):
    # What ext-polytope asks of A and B as given: validate's checks but the
    # tails and chi's lead, in the same words, read off their Numerators.
    own = [text for text in validate(t) if not text.startswith(_TAIL_TEXTS)]
    assert _own_violations(Numerators(t)) == own


# --- work counters ---------------------------------------------------------

@pytest.fixture
def counts(monkeypatch):
    """Count calls of CohomologyTable.value and chi_at."""
    calls = {"value": 0, "chi_at": 0}
    for name in calls:
        original = getattr(CohomologyTable, name)

        def counted(self, *args, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, *args)
        monkeypatch.setattr(CohomologyTable, name, counted)
    return calls


def o_p1(window):
    """O on P^1 over a window: row 0 is j + 1 for j >= 0, row 1 is -j - 1 below."""
    lo, hi = window
    entries = {(0 if j >= 0 else 1, j): abs(j + 1) for j in range(lo, hi + 1) if j != -1}
    return CohomologyTable(1, window, entries, [1, 1])


def test_same_window_arithmetic_evaluates_nothing(counts):
    a = o_p1((-40, 40))
    b = CohomologyTable(1, (-40, 40), {(0, 3): 1, (1, -5): 2}, [F(1, 2), 0])
    add_tables(a, b)
    subtract_checked(a, b)
    assert a == add_tables(a, CohomologyTable(1, (-40, 40)))
    assert counts == {"value": 0, "chi_at": 0}


@pytest.mark.parametrize("pad_lo, pad_hi", [(0, 7), (5, 0), (3, 9)])
def test_window_difference_bounds_chi_evaluations(counts, pad_lo, pad_hi):
    a = o_p1((-30, 30))
    b = o_p1((-30 - pad_lo, 30 + pad_hi))
    d = pad_lo + pad_hi
    for op in (add_tables, subtract_checked, lambda x, y: x == y):
        counts.update(value=0, chi_at=0)
        op(a, b)
        assert counts["value"] == 0
        assert counts["chi_at"] <= 2 * d


def test_wide_empty_table_costs_no_chi_evaluation(counts):
    t = CohomologyTable(1, (-200000, 200000))
    assert validate(t) == []
    assert t == CohomologyTable(1, (-200000, 200000))
    assert counts == {"value": 0, "chi_at": 0}
