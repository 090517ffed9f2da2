"""Greedy decomposition of cohomology tables into supernatural tables.

Mirrors the Betti-side greedy: read the staircase corners, subtract the
largest multiple of the matching unit supernatural table that keeps the
window nonnegative, and repeat, on the table widened by its tail cells.  A
closed-form second difference oracle on P^1, on int numerators,
cross-checks the whole pipeline; its reader of the second differences also
decides the extension candidates on P^1.
"""

from fractions import Fraction
from math import factorial

from .errors import InvalidTable, NotInCone
from .supernatural import (CohDecomposition, RootSequence, _cells, _check_window,
                           chi_from_roots, corner_roots)
from .tables import Numerators, validate


def peel_supernatural(g, roots):
    """Largest q with g - q * sigma_roots nonnegative on g's window and the
    n + 1 twists past each edge (``_valid``), and that remainder on g's
    window.  g must be valid (InvalidTable otherwise) and its window must
    hold the roots' staircase (WindowTooSmall otherwise), so past the window
    the remainder is its chi's tails; NotInCone when it is not a valid table
    (its chi's leading coefficient has turned negative).
    """
    _check_window(roots.roots, *g.window)
    work = _valid(Numerators(g))
    q = _peel(work, roots)
    work.window = lo, hi = g.window
    work.entries = {key: v for key, v in work.entries.items() if lo <= key[1] <= hi}
    problems = validate(work)
    if problems:
        raise NotInCone(0, f"the remainder is not a valid table: {'; '.join(problems)}")
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
    identity holds by linearity.
    """
    f = roots.roots
    built = sigmas.get(f) if sigmas is not None else None
    if built is None:
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
    return q


def decompose_cohomology(g):
    """Write a valid table as a chain combination of unit supernatural tables.

    Raises InvalidTable on an invalid table, and NotInCone (NotStaircase
    refines it) when the greedy cannot empty the widened table (``_valid``),
    its step being the number of peels done before it.
    """
    return decompose_valid(_valid(g))


def _valid(g):
    # The Numerators of g (g itself when it is one), refused when invalid,
    # then widened in place to its cells n + 1 twists past each window edge.
    work = g if isinstance(g, Numerators) else Numerators(g)
    problems = validate(work)
    if problems:
        raise InvalidTable(problems)
    lo, hi = work.window
    W = lo - work.n - 1, hi + work.n + 1
    work.entries, work.window = work.cells(*W), W
    return work


def decompose_valid(work):
    """``decompose_cohomology`` for the ``Numerators`` from ``_valid``, which
    it empties.  No peel moves a row's first twist down, so by
    ``corner_roots`` no root does: the roots form a chain without a check."""
    return CohDecomposition(tuple((Fraction(*q), roots) for q, roots in _decompose(work)))


def _decompose(work, sigmas=None):
    # decompose_valid's greedy on a widened working form, which it empties:
    # one (q as an int pair, roots) per peel; sigmas as in _peel.  A refusal
    # is renumbered with the count of peels done before it.
    # No guard needed: cells stay >= 0 and tail cells follow chi, so emptied means g = sum q sigma.
    step = 0
    try:
        while not work.is_zero():
            roots = corner_roots(work)
            yield _peel(work, roots, sigmas), roots
            step += 1
    except NotInCone as exc:
        raise type(exc)(step, exc.detail) from None


def p1_oracle(g):
    """Independent P^1 decomposition via second differences, on ints.

    With T(j) = gamma_0(j) + gamma_1(j), a table in the cone satisfies
    T = sum m_f |j - f|, so m_f is half the second difference of T at f.
    ``_second_differences`` reads them off the widened form (``_valid``),
    and any negative one means the table is outside the cone.  The check
    shares no code with the greedy.  g may be given as its ``Numerators``,
    which is widened in place.
    """
    if g.n != 1:
        raise ValueError(f"oracle only applies on P^1, got n = {g.n}")
    w = _valid(g)
    diffs = _second_differences(w)
    for f, m in diffs.items():
        if m < 0:
            raise NotInCone(0, f"negative second difference {w.fraction(m)} at j = {f}")
    return CohDecomposition(tuple((Fraction(m, 2 * w.den), RootSequence(1, (f,)))
                                  for f, m in diffs.items() if m))


def _second_differences(w):
    """The second differences M_f = T(f + 1) - 2 T(f) + T(f - 1) of
    T = row 0 + row 1 of a widened P^1 working form (``_valid``), as ints
    (2 den m_f) for f strictly inside its window, in order.

    S = sum M_f |j - f| / (2 den) has T's second differences, and past the
    window S and T are the tails of their chi, so S = T iff the chi agree:
    (-sum f M_f, sum M_f) = 2 den (c_0, c_1).  That identity needs no
    check: summed by parts, the two sums keep only T at the four outermost
    twists, which are +-chi there by construction (``cells``), so it holds
    on every widened form, valid or not.
    """
    lo, hi = w.window  # two twists past each edge of the table's window
    entries = w.entries
    T = [entries.get((0, j), 0) + entries.get((1, j), 0) for j in range(lo, hi + 1)]
    return {f: T[k + 1] - 2 * T[k] + T[k - 1] for k, f in enumerate(range(lo + 1, hi), 1)}
