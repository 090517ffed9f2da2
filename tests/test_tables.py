import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betticone import (BettiTable, CohomologyTable, DimensionMismatch,
                       NegativeEntry, RootSequence, add_tables, chi_eval,
                       line_bundle_table, scale, subtract_checked,
                       supernatural_table, validate)
import betticone.tables as tables
from betticone.tables import combine, first_twists
from helpers import peel_largest, random_root_chain, root_chain_combination

F = Fraction


def xy2():
    return BettiTable(2, {(0, 0): 1, (1, 1): 1, (1, 2): 1, (2, 3): 1})


def test_add_zero_is_identity():
    assert add_tables(xy2(), BettiTable(2)) == xy2()


def test_add_equals_scale_by_two():
    assert add_tables(xy2(), xy2()) == scale(xy2(), 2)


def test_add_vars_mismatch():
    with pytest.raises(DimensionMismatch):
        add_tables(xy2(), BettiTable(3))


def test_add_line_bundles_gives_split_table():
    a = scale(line_bundle_table(1, -2, (-6, 4)), 5)
    b = scale(line_bundle_table(1, 2, (-6, 4)), 5)
    total = add_tables(a, b)
    assert [total.value(0, j) for j in range(-2, 5)] == [5, 10, 15, 20, 30, 40, 50]
    assert [total.value(1, j) for j in range(0, -7, -1)] == [5, 10, 15, 20, 30, 40, 50]


def test_add_cohomology_unions_windows():
    a = line_bundle_table(1, 0, (-3, 2))
    b = line_bundle_table(1, 0, (-5, 4))
    total = add_tables(a, b)
    assert total.window == (-5, 4)
    # the narrower table's tails were materialized before summing
    assert total.value(0, 4) == 2 * F(5)
    assert total.value(1, -5) == 2 * F(4)


def test_scale_one_and_zero():
    assert scale(xy2(), 1) == xy2()
    assert scale(xy2(), 0).is_zero()
    with pytest.raises(ValueError):
        scale(xy2(), -1)


def test_scale_pure_diagram_by_third():
    diagram = BettiTable(2, {(0, 0): 2, (1, 1): 3, (2, 3): 1})
    scaled = scale(diagram, F(1, 3))
    assert scaled.entries == {(0, 0): F(2, 3), (1, 1): F(1), (2, 3): F(1, 3)}


def test_subtract_self_is_zero():
    assert subtract_checked(xy2(), xy2()).is_zero()


def test_subtract_first_greedy_step():
    step = scale(BettiTable(2, {(0, 0): 2, (1, 1): 3, (2, 3): 1}), F(1, 3))
    remainder = subtract_checked(xy2(), step)
    assert remainder.entries == {(0, 0): F(1, 3), (1, 2): F(1), (2, 3): F(2, 3)}


def test_subtract_negative_entry():
    with pytest.raises(NegativeEntry) as info:
        subtract_checked(xy2(), BettiTable(2, {(1, 1): 2}))
    assert info.value.position == (1, 1)


def test_chi_eval_structure_sheaf():
    t = line_bundle_table(2, 0, (-5, 3))
    assert chi_eval(t, 3) == 10
    assert chi_eval(t, 0) == t.chi[0] == 1


def test_chi_eval_rank3_bundle():
    t = CohomologyTable(2, (-5, 3), {(0, 1): 5}, [0, F(7, 2), F(3, 2)])
    assert chi_eval(t, 2) == 13


def test_validate_passes_structure_sheaf():
    assert validate(line_bundle_table(2, 0, (-5, 3))) == []


def test_validate_euler_violation():
    t = CohomologyTable(1, (0, 1), {(0, 0): 2}, [1, 0])
    problems = validate(t)
    assert any("Euler mismatch at j = 0" in p for p in problems)


def test_validate_positivity_violation():
    t = BettiTable(2, {(0, 0): 1, (1, 1): 0})
    assert validate(t) == ["entry (1, 1) = 0 is not positive"]


def test_validate_interior_row_on_edge():
    t = CohomologyTable(2, (-2, 2), {(1, -2): 1}, [0, F(-1, 2), 0])
    problems = validate(t)
    assert any("interior row 1 touches" in p for p in problems)


def test_validate_tail_guards():
    # chi(j) = -j is negative just past the right window edge
    t = CohomologyTable(1, (-2, -1), {(0, -2): 2, (0, -1): 1}, [0, -1])
    problems = validate(t)
    assert any("right tail negative" in p for p in problems)
    assert any("leading chi coefficient" in p for p in problems)


def test_semantic_equality_ignores_window_padding():
    a = line_bundle_table(1, 0, (-4, 3))
    b = line_bundle_table(1, 0, (-6, 5))
    assert a == b
    assert add_tables(a, b) == scale(a, 2)


entry_values = st.fractions(min_value=F(1, 8), max_value=8, max_denominator=8)
betti_entries = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(-6, 8)), entry_values, max_size=8)


@settings(max_examples=150, deadline=None)
@given(betti_entries, betti_entries, entry_values)
def test_exact_arithmetic_roundtrip(e1, e2, c):
    a = BettiTable(3, e1)
    b = BettiTable(3, e2)
    assert subtract_checked(add_tables(a, b), b) == a
    assert add_tables(a, b) == add_tables(b, a)
    assert scale(add_tables(a, b), c) == add_tables(scale(a, c), scale(b, c))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3), st.integers(-5, 5), st.integers(-4, 0), st.integers(1, 5))
def test_line_bundle_tables_validate(n, a, lo_pad, width):
    t = line_bundle_table(n, a, (lo_pad - n - abs(a), width + abs(a)))
    assert validate(t) == []


def test_random_expression_two_ways():
    rng = random.Random(7)
    for _ in range(50):
        entries = {(rng.randint(0, 3), rng.randint(-5, 5)):
                   F(rng.randint(1, 9), rng.randint(1, 5)) for _ in range(6)}
        a = BettiTable(3, entries)
        b = scale(a, F(rng.randint(1, 4), rng.randint(1, 3)))
        assert subtract_checked(add_tables(a, b), b) == a


def test_peel_largest_on_a_betti_table():
    b = BettiTable(2, {(0, 0): 3, (1, 1): 4, (1, 3): 5, (2, 2): 1})
    koszul = BettiTable(2, {(0, 0): 1, (1, 1): 2, (2, 2): 1})
    q, binding, rest = peel_largest(b, koszul)
    assert (q, binding) == (1, (2, 2))
    assert rest.entries == {(0, 0): 2, (1, 1): 2, (1, 3): 5}


def test_peel_largest_breaks_ties_at_the_smallest_cell():
    koszul = BettiTable(2, {(0, 0): 1, (1, 1): 2, (2, 2): 1})
    q, binding, rest = peel_largest(scale(koszul, 2), koszul)
    assert (q, binding) == (2, (0, 0)) and rest.is_zero()
    # O on P^1 is sigma(-1): every ratio is 3, the smallest cell is (0, 0)
    sigma = line_bundle_table(1, 0, (-3, 2))
    q, binding, rest = peel_largest(scale(sigma, 3), sigma)
    assert (q, binding) == (3, (0, 0)) and rest.is_zero()


def test_peel_largest_reports_a_zero_ratio():
    koszul = BettiTable(2, {(0, 0): 1, (1, 1): 2, (2, 2): 1})
    q, binding, rest = peel_largest(BettiTable(2, {(0, 0): 1, (2, 2): 1}), koszul)
    assert (q, binding) == (0, (1, 1))
    assert rest.entries == {(0, 0): 1, (2, 2): 1}


def test_a_zero_ratio_peel_builds_no_remainder(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return combine(*args, **kwargs)
    monkeypatch.setattr(tables, "combine", counted)
    koszul = BettiTable(2, {(0, 0): 1, (1, 1): 2, (2, 2): 1})
    g = BettiTable(2, {(0, 0): 1, (2, 2): 1})
    q, _, rest = peel_largest(g, koszul)
    assert q == 0 and rest is g
    assert calls == []


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 48))
def test_the_working_form_reads_the_table_times_den(seed):
    # Numerators share the table's reads: each one gives the table's value
    # times den, as an int, on a window wider than the table's on both sides.
    rng = random.Random(seed)
    _, t = root_chain_combination(rng, random_root_chain(rng, rng.randint(1, 3)))
    t = scale(t, F(rng.randint(1, 9), rng.randint(1, 9)))
    work = tables.Numerators(t)
    den = work.den
    lo, hi = t.window[0] - rng.randint(0, 5), t.window[1] + rng.randint(0, 5)
    cells = work.cells(lo, hi)
    assert cells == {key: v * den for key, v in t.cells(lo, hi).items()}
    assert all(type(v) is int for v in cells.values())
    for j in range(lo, hi + 1):
        assert work.chi_at(j) == t.chi_at(j) * den
        for i in range(t.n + 1):
            v = work.value(i, j)
            assert type(v) is int and v == t.value(i, j) * den
    assert work.is_zero() is t.is_zero() is False
    empty = CohomologyTable(t.n, t.window)
    assert tables.Numerators(empty).is_zero() is empty.is_zero() is True


def test_first_twists_for_both_kinds():
    b = BettiTable(3, {(0, 0): 1, (1, 3): 1, (1, 2): 1, (3, 7): 1})
    assert first_twists(b) == {0: 0, 1: 2, 3: 7}
    assert first_twists(BettiTable(3)) == {}
    sigma = supernatural_table(RootSequence(2, (0, -3)), 1, (-6, 3))
    assert first_twists(sigma) == {0: 1, 1: -2, 2: -6}


def test_add_refuses_tables_over_different_projective_spaces():
    with pytest.raises(DimensionMismatch, match=r"^n 1 != 2$"):
        add_tables(line_bundle_table(1, 0, (0, 2)), line_bundle_table(2, 0, (0, 2)))


def test_add_refuses_a_betti_table_with_a_cohomology_table():
    with pytest.raises(DimensionMismatch,
                       match="^cannot combine a Betti table with a cohomology table$"):
        add_tables(xy2(), line_bundle_table(1, 0, (0, 2)))


def test_chi_must_have_one_coefficient_per_row():
    with pytest.raises(ValueError, match=r"^chi needs 2 coefficients, got 3$"):
        CohomologyTable(1, (0, 1), {}, (1, 2, 3))


def test_a_cohomology_table_never_equals_another_type():
    table = line_bundle_table(1, 0, (0, 2))
    assert (table == 3) is False
    assert table != xy2()


def test_table_reprs():
    assert repr(BettiTable(2, {(1, 1): F(1, 2), (0, 0): 1})) == \
        "BettiTable(vars=2, {(0,0): 1, (1,1): 1/2})"
    assert repr(CohomologyTable(1, (0, 1), {(0, 1): F(2, 3), (0, 0): 1}, (1, F(1, 2)))) == \
        "CohomologyTable(n=1, window=(0, 1), chi=['1', '1/2'], {(0,0): 1, (0,1): 2/3})"


@settings(max_examples=300, deadline=None)
@given(st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 30))
def test_a_fraction_set_through_its_slots_is_the_fraction(num, den):
    # tables._fraction sets a Fraction's two slots directly, which relies on
    # CPython's fractions module; the value must hash, compare, print and
    # compute as Fraction's own, on every supported Python.
    ref = Fraction(num, den)
    f = tables._reduced(num, den)
    assert type(f) is Fraction and f.as_integer_ratio() == ref.as_integer_ratio()
    assert f == tables._fraction(ref.numerator, ref.denominator)
    assert hash(f) == hash(ref) and {ref: 1}[f] == 1
    assert f == ref and f <= ref and f >= ref and not f < ref and f < ref + 1
    assert (str(f), repr(f), float(f), int(f), round(f)) == \
        (str(ref), repr(ref), float(ref), int(ref), round(ref))
    assert (f + 1, f - ref, f * f, f / 3, -f, abs(f), f ** 2) == \
        (ref + 1, 0, ref * ref, ref / 3, -ref, abs(ref), ref ** 2)
    assert pickle.loads(pickle.dumps(f)) == ref and copy.copy(f) == ref


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 6).flatmap(lambda n: st.tuples(
           st.just(n), st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=1, max_size=n + 1))),
       st.integers(-10 ** 6, 10 ** 6), st.one_of(st.integers(-2, 8), st.integers(0, 2000)))
def test_a_polynomial_run_is_its_direct_evaluation(case, lo, length):
    # An int polynomial of degree <= n on a run of `length` twists from lo
    # (empty, shorter than n + 1, or long), evaluated at only its first n + 1.
    n, coeffs = case
    called = []

    def direct(j):
        return sum(c * j ** k for k, c in enumerate(coeffs))

    def at(j):
        called.append(j)
        return direct(j)
    hi = lo + length - 1
    assert list(tables._run(at, lo, hi, n)) == [direct(j) for j in range(lo, hi + 1)]
    assert called == list(range(lo, lo + min(n + 1, max(length, 0))))


@given(st.lists(st.integers(-10 ** 12, 10 ** 12), max_size=40))
def test_second_differences_are_the_three_point_stencil(T):
    assert tables._differences(tables._differences(T)) == [
        T[k + 1] - 2 * T[k] + T[k - 1] for k in range(1, len(T) - 1)]
