"""Greedy decomposition of cohomology tables into supernatural tables.

Mirrors the Betti-side greedy: read the staircase corners, subtract the
largest multiple of the matching unit supernatural table that keeps the
window nonnegative and the tails sound, and repeat.  A closed-form second
difference oracle on P^1 cross-checks the whole pipeline.
"""

from fractions import Fraction

from .errors import InvalidTable, NotInCone, TailGuardFailure
from .supernatural import (CohDecomposition, RootSequence, _sigma_cells,
                           chi_from_roots, corner_roots, supernatural_table)
from .tables import CohomologyTable, combine, validate

from math import factorial


def peel_supernatural(g, roots):
    """Largest q with g - q * sigma_roots nonnegative on the window.

    q is the minimum ratio over the unit table's window support; the
    remainder must then pass full validation (tail guards included) or the
    peel is rejected.
    """
    sigma = supernatural_table(roots, 1, g.window)
    q = None
    binding = None
    for (i, j), s in sorted(sigma.entries.items()):
        ratio = g.value(i, j) / s
        if q is None or ratio < q:
            q, binding = ratio, (i, j)
    if q is None:
        raise NotInCone(0, f"unit table of roots {roots} has empty window support")
    if q == 0:
        raise NotInCone(0, f"table vanishes at {binding} inside the staircase of {roots}")
    remainder = combine(g, sigma, -q)
    problems = validate(remainder)
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


def _sum_of_sigmas(n, window, terms):
    entries = {}
    chi = tuple([Fraction(0)] * (n + 1))
    for m, roots in terms:
        for key, v in _sigma_cells(roots, m, window).items():
            entries[key] = entries.get(key, Fraction(0)) + v
        term_chi = chi_from_roots(roots.roots, Fraction(m, factorial(n)))
        chi = tuple(a + b for a, b in zip(chi, term_chi))
    return CohomologyTable(n, window, entries, chi)


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
    rebuilt = _sum_of_sigmas(1, g.window, terms)
    if rebuilt != g:
        raise NotInCone(0, "second differences do not reconstruct the table")
    return CohDecomposition(tuple(terms))
