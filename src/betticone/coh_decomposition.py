"""Greedy decomposition of cohomology tables into supernatural tables.

Mirrors the Betti-side greedy: read the staircase corners, subtract the
largest multiple of the matching unit supernatural table that keeps the
window nonnegative, and repeat, on the table widened by its tail cells
(the ``Rows`` that ``_valid`` returns).  A closed-form second difference
oracle on P^1, on the same ints, cross-checks the whole pipeline; its
reader of the second differences also decides the extension candidates on
P^1.  ``_empties`` drains a greedy (this one, the Betti one, or the
extension's) into a yes or no.
"""

from fractions import Fraction
from itertools import count
from math import factorial, gcd
from operator import add

from .errors import InvalidTable, NotInCone
from .supernatural import (CohDecomposition, RootSequence, _cells, _check_window, _corner,
                           chi_from_roots)
from .tables import Numerators, Rows, _differences, validate


def peel_supernatural(g, roots):
    """Largest q with g - q * sigma_roots nonnegative on g's window and the
    n + 1 twists past each edge (``_valid``), and that remainder on g's
    window.  g must be valid (InvalidTable otherwise) and its window must
    hold the roots' staircase (WindowTooSmall otherwise), so past the window
    the remainder is its chi's tails; NotInCone when it is not a valid table
    (its chi's leading coefficient has turned negative).
    """
    _check_window(roots.roots, *g.window)
    work = _valid(g)
    q = _peel(work, roots)
    rest = work.table()
    problems = validate(rest)
    if problems:
        raise NotInCone(0, f"the remainder is not a valid table: {'; '.join(problems)}")
    return Fraction(*q), rest


def _peel(work, roots, sigmas=None, step=0):
    """Subtract the largest multiple q of the unit supernatural table
    sigma_roots from valid ``Rows`` in place, and return q as ints (n, d).

    ``sigmas``, when given, maps a root tuple to sigma's row segments and chi
    coefficients; a missing one is built and kept.  Share it only on one window.
    A refusal (NotInCone) carries ``step``.

    sigma's cells are the ints P = |prod (j - f_k)| over n!, so the ratio at
    a cell with numerator N is N n! / (den P); the minimum c / p is found by
    cross multiplication, ties going to the smallest cell.  When q > 0 every
    cell of sigma lies in the support, so the peel adds no cell, drives none
    negative and leaves rows, window and edge cells alone; the Euler identity holds by
    linearity.  With c / p in lowest terms each v becomes p v - c x over p den:
    when p > 1 every cell is first multiplied by p, then c x is subtracted on
    sigma's row segments alone, and the result is reduced by the gcd.
    """
    f, cells, w, lo = roots.roots, work.cells, work.width, work.window[0]
    built = sigmas.get(f) if sigmas is not None else None
    if built is None:
        built = [(i * w + k, xs) for i, k, xs in _cells(f, *work.window)], chi_from_roots(f, 1)
        if sigmas is not None:
            sigmas[f] = built
    sigma, chi = built
    binding, c, p = None, 1, 0  # c / p starts above every ratio
    for start, xs in sigma:
        for k, x in enumerate(xs, start):
            if cells[k] * p < c * x:
                binding, c, p = (k // w, lo + k % w), cells[k], x
        if not c:  # a valid table has no negative cell
            raise NotInCone(step, f"table vanishes at {binding} inside the staircase of {roots}")
    q = c * factorial(roots.n), work.den * p
    c, p = c // (g := gcd(c, p)), p // g
    if p > 1:  # a new denominator: every cell is rescaled to it first
        work.den *= p
        cells[:] = [p * v for v in cells]
    for start, xs in sigma:
        end = start + len(xs)
        cells[start:end] = [v - c * x for v, x in zip(cells[start:end], xs)]
    work.chi = [p * a - c * b for a, b in zip(work.chi, chi)]
    if p > 1 and (g := gcd(work.den, *work.chi, *cells)) > 1:
        work.den, work.chi = work.den // g, [a // g for a in work.chi]
        cells[:] = [v // g for v in cells]
    return q


def decompose_cohomology(g):
    """Write a valid table as a chain combination of unit supernatural tables.

    Raises InvalidTable on an invalid table, and NotInCone (NotStaircase
    refines it) when the greedy cannot empty the widened table (``_valid``),
    its step being the number of peels done before it.
    """
    return decompose_valid(_valid(g))


def _valid(g):
    # The widened Rows of g (a table or its Numerators, which are left as
    # they are), once g is found valid.
    work = g if isinstance(g, Numerators) else Numerators(g)
    problems = validate(work)
    if problems:
        raise InvalidTable(problems)
    return Rows(work)


def decompose_valid(wide):
    """``decompose_cohomology`` on the widened ``Rows`` from ``_valid``,
    which it empties.  No peel moves a row's first twist down, so by
    ``corner_roots`` no root does: the roots form a chain without a check."""
    return CohDecomposition(tuple((Fraction(*q), roots) for q, roots in _decompose(wide)))


def _empties(steps):
    # Whether a greedy's steps run to the end, emptying its table, rather
    # than refuse (NotInCone); the steps themselves are dropped.
    try:
        for _ in steps:
            pass
    except NotInCone:
        return False
    return True


def _decompose(work, sigmas=None):
    # decompose_valid's greedy on a widened table's Rows, which it empties: one (q as
    # an int pair, roots) per peel; sigmas as in _peel.  firsts holds a lower bound of
    # each row's first nonzero index, moved right as the greedy reads, since no peel
    # adds a cell.  A refusal's step counts the peels done before it.
    # No guard needed: cells stay >= 0 and tail cells follow chi, so emptied means g = sum q sigma.
    cells, lo, width = work.cells, work.window[0], work.width
    firsts = [0] * (work.n + 1)
    for step in count():
        for i, k in enumerate(firsts):
            start = i * width
            while k < width and not cells[start + k]:
                k += 1
            firsts[i] = k
        minima = {i: lo + k for i, k in enumerate(firsts) if k < width}
        if not minima and not any(work.chi):
            return
        roots = _corner(work.n, minima, work.chi, step)
        yield _peel(work, roots, sigmas, step), roots


def p1_oracle(g):
    """Independent P^1 decomposition via second differences, on ints.

    With T(j) = gamma_0(j) + gamma_1(j), a table in the cone satisfies
    T = sum m_f |j - f|, so m_f is half the second difference of T at f.
    ``_second_differences`` reads them off the widened ``Rows``
    (``_valid``), and any negative one means the table is outside the cone.
    The check shares no code with the greedy.  g may be given as its
    ``Numerators``, which it leaves as they are.
    """
    if g.n != 1:
        raise ValueError(f"oracle only applies on P^1, got n = {g.n}")
    return _p1_oracle(_valid(g))


def _p1_oracle(wide):
    # p1_oracle on the widened P^1 Rows from _valid, which it only reads.
    diffs = _second_differences(wide)
    for f, m in diffs.items():
        if m < 0:
            raise NotInCone(0, f"negative second difference {Fraction(m, wide.den)} at j = {f}")
    return CohDecomposition(tuple((Fraction(m, 2 * wide.den), RootSequence(1, (f,)))
                                  for f, m in diffs.items() if m))


def _second_differences(w):
    """The second differences M_f = T(f + 1) - 2 T(f) + T(f - 1) of
    T = row 0 + row 1 of widened P^1 ``Rows`` (``_valid``), as ints
    (2 den m_f) for f strictly inside its window, in order.

    S = sum M_f |j - f| / (2 den) has T's second differences, and past the
    window S and T are the tails of their chi, so S = T iff the chi agree:
    (-sum f M_f, sum M_f) = 2 den (c_0, c_1).  That identity needs no
    check: summed by parts, the two sums keep only T at the four outermost
    twists, which are +-chi there by construction (``cells``), so it holds
    on the widened ``Rows`` of every table, valid or not.
    """
    lo, hi = w.window  # two twists past each edge of the table's window
    T = list(map(add, w.cells[:w.width], w.cells[w.width:]))
    return dict(zip(range(lo + 1, hi), _differences(_differences(T))))
