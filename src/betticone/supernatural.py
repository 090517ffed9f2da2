"""Supernatural cohomology tables on P^n and root-sequence bookkeeping.

A supernatural table concentrates all cohomology in one row per twist: row i
is supported exactly on f_{i+1} < j < f_i for a strictly decreasing root
sequence f_1 > ... > f_n (with f_0 = +inf, f_{n+1} = -inf), and the entry is
|prod_k (j - f_k)| / n! times the multiplicity.  These are the extremal rays
of the cone of vector-bundle cohomology tables.
"""

from fractions import Fraction
from math import factorial, gcd, prod

from .errors import NotStaircase, WindowTooSmall
from .tables import CohomologyTable, Record, _run, first_twists


class RootSequence(Record):
    __slots__ = ("n", "roots")

    def __post_init__(self):
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "roots", tuple(int(f) for f in self.roots))
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        if len(self.roots) != self.n:
            raise ValueError(f"expected {self.n} roots, got {len(self.roots)}")
        for a, b in zip(self.roots, self.roots[1:]):
            if a <= b:
                raise ValueError(f"roots not strictly decreasing: {self.roots}")

    def __str__(self):
        return ",".join(str(f) for f in self.roots)


class CohDecomposition(Record):
    """Ordered (coefficient, root sequence) terms against unit tables."""

    __slots__ = ("terms",)

    def __iter__(self):
        return iter(self.terms)

    def __len__(self):
        return len(self.terms)


def chi_from_roots(roots, lead):
    """Coefficients c_0..c_n of lead * prod_k (x - f_k) in the monomial
    basis, ints for an int lead."""
    coeffs = [lead]
    for f in roots:
        shifted = [0] + coeffs
        coeffs = [s - f * c for s, c in zip(shifted, coeffs + [0])]
    return tuple(coeffs)


def supernatural_table(roots, multiplicity=1, window=None):
    """The rank-one supernatural table of the given roots, scaled.

    The window must contain [f_n - 1, f_1 + 1] so that every corner of the
    staircase is visible; it defaults to exactly that range.
    """
    m = Fraction(multiplicity)
    if m <= 0:
        raise ValueError(f"multiplicity must be positive, got {m}")
    f = roots.roots
    if window is None:
        window = (f[-1] - 1, f[0] + 1)
    _check_window(f, *window)
    return _scaled(roots.n, f, m / factorial(roots.n), window)


def _check_window(f, lo, hi):
    """Raise WindowTooSmall unless [lo, hi] holds every staircase corner of
    the roots f."""
    if lo > f[-1] - 1 or hi < f[0] + 1:
        raise WindowTooSmall(
            f"window [{lo}, {hi}] must contain [{f[-1] - 1}, {f[0] + 1}]")


def _scaled(n, f, unit, window):
    # unit times the integer supernatural table of f, on the window.
    entries = {(row, j): unit * x for row, k, xs in _cells(f, *window)
               for j, x in enumerate(xs, window[0] + k)}
    return CohomologyTable(n, window, entries, chi_from_roots(f, unit))


def _cells(f, lo, hi):
    # sigma's cells |prod_k (j - f_k)| on [lo, hi] per row i (twists between f_{i+1} and f_i,
    # where prod has sign (-1)^i): (i, first twist's index from lo, values, maybe none), each
    # row segment one run (n + 1 prods, then _run).
    n = len(f)
    for row in range(n + 1):
        first = lo if row == n else max(lo, f[row] + 1)
        last = hi if row == 0 else min(hi, f[row - 1] - 1)
        yield row, first - lo, list(_run(lambda j: (-1) ** row * prod(j - fk for fk in f),
                                         first, last, n))


def _integral_multiple(roots):
    """The smallest positive s making s times the unit supernatural table of
    the roots integral at every twist, so on every window that holds the
    staircase [f_n - 1, f_1 + 1]: that range already has n + 2 consecutive twists.

    The entries are the int cells |P(j)| over n!, P(j) = prod_k (j - f_k), so
    s = n! / gcd(P).  P at any n + 1 consecutive twists gives P at every
    twist by int sums and differences (as ``tables._run`` extends a run), so
    the gcd is read at f_1 + 1, ..., f_1 + n + 1, where only row 0 has cells.
    """
    f = roots.roots
    _, _, xs = next(_cells(f, f[0] + 1, f[0] + roots.n + 1))  # row 0 comes first
    return Fraction(factorial(roots.n), gcd(*xs))


def line_bundle_table(n, a, window):
    """Cohomology table of O(a) on P^n over the given window.

    It is the unit supernatural table of the roots -a-1 > ... > -a-n (row 0
    carries binomial(a + j + n, n), row n binomial(-a - j - 1, n)), evaluated
    on the window's twists only, so the window need not hold the staircase.
    """
    f = RootSequence(n, tuple(-a - k for k in range(1, n + 1))).roots
    return _scaled(n, f, Fraction(1, factorial(n)), window)


def corner_roots(g):
    """Read the root sequence off the staircase corners of a table.

    f_i is one less than the smallest twist supporting row i - 1, except
    that a row minimum at or above the previous root cannot belong to the
    corner staircase (the corner's row is empty there, so its roots are
    forced consecutive: f_i = f_{i-1} - 1).  When row 0 or n is empty on the
    window, raises NotStaircase if chi vanishes, and WindowTooSmall if not:
    the row then continues past the window edge, and so does its corner.
    The greedy's widened form holds n + 1 tail twists of both rows, so it
    never meets the latter.  g may be a ``CohomologyTable`` or its
    ``Numerators`` working form.
    Each root is at most the previous one minus 1, so they strictly decrease.
    """
    return _corner(g.n, first_twists(g), g.chi)


def _corner(n, minima, chi, step=0):
    # corner_roots from chi and each nonempty row's smallest twist (minima); a
    # refusal (NotStaircase) carries step.
    for row in (0, n):
        if row not in minima and any(chi):
            raise WindowTooSmall(f"row {row} has no support on the window "
                                 f"but continues past its edge")
        if row not in minima:
            raise NotStaircase(step, f"row {row} has no support on the window")
    roots = [minima[0] - 1]
    for row in range(1, n):
        roots.append(min(minima.get(row, roots[-1]), roots[-1]) - 1)
    return RootSequence._trusted(n, tuple(roots))
