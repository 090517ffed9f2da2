"""Greedy decomposition of cohomology tables into supernatural tables.

Mirrors the Betti-side greedy: read the staircase corners, subtract the
largest multiple of the matching unit supernatural table that keeps the
window nonnegative and the tails sound, and repeat.  A closed-form second
difference oracle on P^1 cross-checks the whole pipeline.
"""

from fractions import Fraction

from .errors import InvalidTable, NotInCone, TailGuardFailure
from .supernatural import (CohDecomposition, RootSequence, corner_roots,
                           supernatural_table)
from .tables import CohomologyTable, combine, peel_largest, tail_violations, validate


def peel_supernatural(g, roots):
    """Largest q with g - q * sigma_roots nonnegative on the window.

    g must be valid (``decompose_cohomology`` validates its input once).  q
    is the minimum ratio over the unit table's cells, so when q > 0 every
    cell of sigma lies in g's support and the peel adds no cell, drives none
    negative and leaves rows, window and edge cells alone; the Euler identity
    holds by linearity.  Only the signs of the polynomial tails can break, so
    the remainder is checked with ``tail_violations`` alone.
    """
    q, binding, remainder = peel_largest(g, supernatural_table(roots, 1, g.window))
    if q == 0:
        raise NotInCone(0, f"table vanishes at {binding} inside the staircase of {roots}")
    problems = tail_violations(remainder)
    if problems:
        raise TailGuardFailure("; ".join(problems))
    return q, remainder


def decompose_cohomology(g):
    """Write a valid table as a chain combination of unit supernatural tables.

    Raises NotInCone (NotStaircase / TailGuardFailure refine it) when the
    greedy cannot empty the window, and WindowTooSmall when a corner sits too
    close to the window edge to peel safely.
    """
    problems = validate(g)
    if problems:
        raise InvalidTable(problems)
    terms = []
    work = g
    max_steps = len(g.entries) + 1
    while not work.is_zero():
        if len(terms) >= max_steps:
            raise NotInCone(len(terms), "greedy loop failed to make progress")
        roots = corner_roots(work)
        q, work = peel_supernatural(work, roots)
        terms.append((q, roots))
    for step, ((_, f), (_, h)) in enumerate(zip(terms, terms[1:]), start=1):
        if any(a > b for a, b in zip(f.roots, h.roots)):
            raise NotInCone(step, f"roots {f} and {h} are not termwise nondecreasing")
    return CohDecomposition(tuple(terms))


def p1_oracle(g):
    """Independent P^1 decomposition via second differences.

    With T(j) = gamma_0(j) + gamma_1(j) (tails included), a table in the cone
    satisfies T = sum m_f |j - f|, so m_f is half the second difference of T
    at f.  Any negative second difference, or a reconstruction mismatch,
    means the table is outside the cone.
    """
    if g.n != 1:
        raise ValueError(f"oracle only applies on P^1, got n = {g.n}")
    problems = validate(g)
    if problems:
        raise InvalidTable(problems)
    lo, hi = g.window
    cells = g.cells(lo - 1, hi + 1)

    def T(j):
        return cells.get((0, j), 0) + cells.get((1, j), 0)

    terms = []
    for f in range(lo, hi + 1):
        m = Fraction(T(f + 1) - 2 * T(f) + T(f - 1), 2)
        if m < 0:
            raise NotInCone(0, f"negative second difference {2 * m} at j = {f}")
        if m > 0:
            terms.append((m, RootSequence(1, (f,))))
    rebuilt = CohomologyTable(1, g.window)
    for m, roots in terms:
        rebuilt = combine(rebuilt, supernatural_table(roots, m, (lo - 1, hi + 1)))
    if rebuilt != g:
        raise NotInCone(0, "second differences do not reconstruct the table")
    return CohDecomposition(tuple(terms))
