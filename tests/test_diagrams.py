import random
from fractions import Fraction
from math import comb, gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betticone import (DegreeSequence, DimensionMismatch, Ordering, compare,
                       is_chain, moment_sums, normalized_diagram,
                       smallest_integral)
from betticone.diagrams import _gap_products, integral_diagram
from helpers import hk_solve, random_chain, random_degree_sequence

F = Fraction


def seq(degrees, vars_count, start=0):
    return DegreeSequence(start, tuple(degrees), vars_count)


def test_degree_sequence_validation():
    with pytest.raises(ValueError):
        seq((0, 0), 2)
    with pytest.raises(ValueError):
        seq((0, 1, 2, 3), 2)  # longer than vars + 1
    with pytest.raises(ValueError):
        seq((), 2)


def test_normalized_013():
    diagram = normalized_diagram(seq((0, 1, 3), 2))
    assert diagram.values == (F(1), F(3, 2), F(1, 2))


def test_normalized_0234():
    diagram = normalized_diagram(seq((0, 2, 3, 4), 3))
    assert diagram.values == (1, 6, 8, 3)


def test_normalized_single_term():
    assert normalized_diagram(seq((0,), 1)).values == (F(1),)


def test_moment_sums_vanish_on_integral_example():
    diagram = normalized_diagram(seq((0, 2, 3, 4), 3))
    assert moment_sums(diagram) == [0, 0, 0]


def test_smallest_integral_013():
    diagram = smallest_integral(normalized_diagram(seq((0, 1, 3), 2)))
    assert diagram.values == (2, 3, 1)


def test_smallest_integral_keeps_integral_diagrams():
    d1 = smallest_integral(normalized_diagram(seq((0, 2, 3, 4), 3)))
    assert d1.values == (1, 6, 8, 3)
    d2 = smallest_integral(normalized_diagram(seq((0, 1, 3, 4), 3)))
    assert d2.values == (1, 2, 2, 1)


def test_koszul_degrees_give_binomial_row():
    for v in range(1, 7):
        diagram = smallest_integral(normalized_diagram(seq(range(v + 1), v)))
        assert diagram.values == tuple(comb(v, k) for k in range(v + 1))


def test_compare_termwise():
    assert compare(seq((0, 2), 2), seq((1, 2), 2)) is Ordering.LESS_EQ
    assert compare(seq((1, 2), 2), seq((0, 2), 2)) is Ordering.GREATER_EQ
    assert compare(seq((0, 3), 2), seq((1, 2), 2)) is Ordering.INCOMPARABLE
    assert compare(seq((0, 2), 2), seq((0, 2), 2)) is Ordering.EQUAL


def test_compare_infinity_padding():
    # the longer sequence agreeing on the overlap sits below the shorter one
    assert compare(seq((0, 2, 3, 4), 3), seq((0, 2, 3), 3)) is Ordering.LESS_EQ
    assert compare(seq((0, 2, 3), 3), seq((0, 2, 3, 4), 3)) is Ordering.GREATER_EQ


def test_compare_across_windows():
    # full-length strand below a shifted one: the complex decomposition chain
    assert compare(seq((0, 1, 3), 2), seq((1, 3, 4), 2, start=1)) is Ordering.LESS_EQ
    # a short strand cannot be continued past its end by a shifted sequence
    assert compare(seq((0,), 2), seq((0,), 2, start=1)) is Ordering.INCOMPARABLE


def test_compare_vars_mismatch():
    with pytest.raises(DimensionMismatch):
        compare(seq((0, 2), 2), seq((0, 2), 3))


def test_is_chain_examples():
    assert is_chain([seq((0, 1, 3), 2), seq((0, 2, 3), 2)])
    assert is_chain([seq((0, 2), 3), seq((0, 3), 3), seq((1, 3), 3)])
    assert not is_chain([seq((0, 3), 2), seq((1, 2), 2)])
    assert is_chain([])
    assert is_chain([seq((0, 2), 2)])


@settings(max_examples=250, deadline=None)
@given(st.integers(0, 2 ** 48))
def test_moment_equations_hold(seed):
    rng = random.Random(seed)
    diagram = normalized_diagram(random_degree_sequence(rng))
    assert all(s == 0 for s in moment_sums(diagram))
    assert diagram.values[0] == 1
    assert all(v > 0 for v in diagram.values)


@settings(max_examples=250, deadline=None)
@given(st.integers(0, 2 ** 48))
def test_normalized_matches_linear_solver(seed):
    rng = random.Random(seed)
    sequence = random_degree_sequence(rng)
    assert normalized_diagram(sequence).values == hk_solve(sequence)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 48))
def test_smallest_integral_idempotent_and_coprime(seed):
    rng = random.Random(seed)
    diagram = smallest_integral(normalized_diagram(random_degree_sequence(rng)))
    assert smallest_integral(diagram) == diagram
    assert all(v.denominator == 1 for v in diagram.values)
    assert gcd(*(v.numerator for v in diagram.values)) == 1


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 48))
def test_integral_diagram_is_the_smallest_integral_normalized_one(seed):
    sequence = random_degree_sequence(random.Random(seed))
    diagram = integral_diagram(sequence)
    assert diagram == smallest_integral(normalized_diagram(sequence))
    assert all(type(v) is Fraction and v.denominator == 1 for v in diagram.values)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 48))
def test_compare_is_a_partial_order_on_chains(seed):
    rng = random.Random(seed)
    chain = random_chain(rng, vars_count=rng.randint(1, 5))
    for d in chain:
        assert compare(d, d) is Ordering.EQUAL
    for i in range(len(chain)):
        for j in range(i + 1, len(chain)):
            d, e = chain[i], chain[j]
            # transitivity along the generated chain, and antisymmetry
            assert compare(d, e) in (Ordering.LESS_EQ, Ordering.EQUAL)
            if d != e:
                assert compare(e, d) is Ordering.GREATER_EQ
    assert is_chain(chain)


def test_pure_diagram_table_support():
    diagram = normalized_diagram(seq((1, 3, 4), 2, start=1))
    table = diagram.table()
    assert sorted(table.entries) == [(1, 1), (2, 3), (3, 4)]
    assert table.value(2, 3) == 3


def test_compare_shifted_window_needs_full_length():
    # a capped strand may be continued by a shifted one that dominates the
    # shared positions; an uncapped strand may not
    assert compare(seq((0, 1, 3), 2), seq((2, 4, 5), 2, start=1)) is Ordering.LESS_EQ
    assert compare(seq((0, 1), 2), seq((2, 4, 5), 2, start=1)) is Ordering.INCOMPARABLE


def test_random_chains_are_chains():
    rng = random.Random(11)
    for _ in range(40):
        assert is_chain(random_chain(rng, vars_count=rng.randint(1, 5)))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-60, 20), min_size=1, max_size=14, unique=True))
def test_gap_products_are_the_products_of_distances(degrees):
    d = sorted(degrees)
    assert _gap_products(tuple(d)) == [
        prod(abs(dj - dk) for j, dj in enumerate(d) if j != k) for k, dk in enumerate(d)]
