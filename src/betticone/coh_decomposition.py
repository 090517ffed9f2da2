"""Greedy decomposition of cohomology tables into supernatural tables.

Mirrors the Betti-side greedy: read the staircase corners, subtract the
largest multiple of the matching unit supernatural table that keeps the
window nonnegative and the tails sound, and repeat.  A closed-form second
difference oracle on P^1 cross-checks the whole pipeline.
"""

from fractions import Fraction
from math import factorial

from .errors import InvalidTable, NotInCone, TailGuardFailure
from .supernatural import (CohDecomposition, RootSequence, _cells, _check_window,
                           chi_from_roots, corner_roots)
from .tables import CohomologyTable, Numerators, validate


def peel_supernatural(g, roots):
    """Largest q with g - q * sigma_roots nonnegative on the window, and
    that remainder.  g must be valid (``decompose_cohomology`` validates its
    input once); see ``_peel``.
    """
    work = Numerators(g)
    q = _peel(work, roots)
    return Fraction(*q), work.table()


def _peel(work, roots, sigmas=None):
    """Subtract the largest multiple q of the unit supernatural table
    sigma_roots from a valid working table in place, and return q as ints (n, d).

    ``sigmas``, when given, maps a root tuple to sigma's cells on the window
    and its chi coefficients, and a missing entry is built and kept there.
    Callers share one map only between tables with the same window.

    sigma's cells are the ints P = |prod (j - f_k)| over n!, so the ratio at
    a cell with numerator N is N n! / (den P); the minimum is found by cross
    multiplication, ties going to the smallest cell.  When q > 0 every cell
    of sigma lies in the support, so the peel adds no cell, drives none
    negative and leaves rows, window and edge cells alone; the Euler
    identity holds by linearity.  Only the signs of the polynomial tails can
    break, so the remainder is checked with ``Numerators.tail_violations``
    alone.
    """
    f = roots.roots
    built = sigmas.get(f) if sigmas is not None else None
    if built is None:
        _check_window(f, *work.window)
        built = list(_cells(f, *work.window)), chi_from_roots(f, 1)
        if sigmas is not None:
            sigmas[f] = built
    sigma, chi = built
    entries = work.entries
    binding = None
    for key, x in sigma:
        v = entries.get(key, 0)
        if binding is None or v * p < c * x:
            binding, c, p = key, v, x
            if not v:  # a valid table has no negative cell
                break
    if not c:
        raise NotInCone(0, f"table vanishes at {binding} inside the staircase of {roots}")
    q = c * factorial(roots.n), work.den * p
    work.subtract(c, p, sigma, chi)
    problems = work.tail_violations()
    if problems:
        raise TailGuardFailure("; ".join(problems))
    return q


def decompose_cohomology(g):
    """Write a valid table as a chain combination of unit supernatural tables.

    Raises NotInCone (NotStaircase / TailGuardFailure refine it) when the
    greedy cannot empty the window, and WindowTooSmall when a corner sits too
    close to the window edge to peel safely.
    """
    work = Numerators(g)
    problems = validate(work)
    if problems:
        raise InvalidTable(problems)
    return CohDecomposition(tuple((Fraction(*q), roots) for q, roots in _decompose(work)))


def decompose_valid(work):
    """``decompose_cohomology`` for the ``Numerators`` of a table known to be
    valid, which it empties.  Each peel (q > 0) zeroes its binding cell and
    adds none, so the loop ends; and no row's first twist moves down, so by
    ``corner_roots`` no root does: the roots form a chain without a check."""
    return CohDecomposition(tuple((Fraction(*q), roots) for q, roots in _decompose(work)))


def _decompose(work, sigmas=None):
    # decompose_valid's greedy on a working form, which it empties: one
    # (q as an int pair, roots) per peel; sigmas as in _peel.
    while not work.is_zero():
        roots = corner_roots(work)
        yield _peel(work, roots, sigmas), roots


def _running_sums(mult, twists):
    # (j, sum of m_f |j - f| over the f already passed) along twists.
    row = mass = 0
    for j in twists:
        yield j, row
        mass += mult.get(j, 0)
        row += mass


def p1_oracle(g):
    """Independent P^1 decomposition via second differences.

    With T(j) = gamma_0(j) + gamma_1(j) (tails included), a table in the cone
    satisfies T = sum m_f |j - f|, so m_f is half the second difference of T
    at f.  Any negative second difference, or a reconstruction mismatch,
    means the table is outside the cone.  The rebuild shares no code with the
    greedy: rows 0 and 1 are running sums of m_f (j - f) over f < j and of
    m_f (f - j) over f > j, and chi = (-sum m_f f, sum m_f).  g may be given
    as its ``Numerators``, which is left as it is.
    """
    if g.n != 1:
        raise ValueError(f"oracle only applies on P^1, got n = {g.n}")
    problems = validate(g)
    if problems:
        raise InvalidTable(problems)
    if isinstance(g, Numerators):
        g = g.table()
    lo, hi = g.window
    cells = g.cells(lo - 1, hi + 1)

    def T(j):
        return cells.get((0, j), 0) + cells.get((1, j), 0)

    mult = {}
    for f in range(lo, hi + 1):
        m = Fraction(T(f + 1) - 2 * T(f) + T(f - 1), 2)
        if m < 0:
            raise NotInCone(0, f"negative second difference {2 * m} at j = {f}")
        if m > 0:
            mult[f] = m
    twists = range(lo - 1, hi + 2)
    entries = {(0, j): v for j, v in _running_sums(mult, twists) if v}
    entries.update({(1, j): v for j, v in _running_sums(mult, reversed(twists)) if v})
    chi = (-sum(m * f for f, m in mult.items()), sum(mult.values()))
    if CohomologyTable(1, (lo - 1, hi + 1), entries, chi) != g:
        raise NotInCone(0, "second differences do not reconstruct the table")
    return CohDecomposition(tuple((m, RootSequence(1, (f,))) for f, m in mult.items()))
