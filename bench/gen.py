"""Seeded table generators, written with the benchmark's own exact arithmetic.

Nothing here imports betticone: the program under test only ever sees the
exchange files these functions write, and the checkers in ``check.py`` judge
its answers against the same independent arithmetic.

Betti side: chains of degree sequences in the fan order (the shapes of the
property tests, stretched to hundreds of terms) and their positive rational
combinations of pure diagrams.  Cohomology side: chains of root sequences
and their integer combinations of supernatural tables over wide windows,
line bundles on P^1 and chi-neutral cancellations.
"""

from fractions import Fraction
from math import factorial, gcd, lcm, prod


# --- Betti tables ---------------------------------------------------------

def pure_values(degrees):
    """Pure diagram of a degree sequence, first entry 1 (closed form)."""
    d = degrees
    numerator = prod(abs(x - d[0]) for x in d[1:])
    return [Fraction(numerator, prod(abs(x - d[k]) for m, x in enumerate(d) if m != k))
            for k in range(len(d))]


def smallest_integral(values):
    """The least positive multiple of ``values`` that is integral (set-gcd 1)."""
    den = lcm(*(v.denominator for v in values))
    ints = [v.numerator * (den // v.denominator) for v in values]
    g = gcd(*ints)
    return [x // g for x in ints]


def betti_chain(rng, vars_count, length, shifts):
    """``length`` distinct (start, degrees) pairs forming a chain in the fan order.

    A step raises each degree by 0..2 (keeping them increasing), and every
    50th step also drops the last position.  With ``shifts``, the other
    10th steps from a full vars + 1 sequence (so the first four) instead
    move the window 1 or 2 positions right and refill it to full length,
    as the complex-shaped property tests do.
    """
    full = vars_count + 1
    degrees = sorted(rng.sample(range(-10, 2 + 3 * vars_count), full))
    chain = [(0, tuple(degrees))]
    while len(chain) < length:
        start, prev = chain[-1]
        drop = len(chain) % 50 == 0 and len(prev) > 1
        move = 0
        if shifts and not drop and len(prev) == full and len(chain) % 10 == 0:
            move = 1 + len(chain) // 10 % 2
        out = []
        for d in prev[move:len(prev) - drop]:
            out.append(max(d, out[-1] + 1 if out else d) + rng.randint(0, 2))
        while move and len(out) < full:
            out.append(out[-1] + rng.randint(1, 3))
        nxt = (start + move, tuple(out))
        if nxt != chain[-1]:
            chain.append(nxt)
    return chain


def betti_combination(rng, chain):
    """Sum of random positive multiples of the chain's smallest-integral diagrams."""
    entries = {}
    for start, degrees in chain:
        ints = smallest_integral(pure_values(degrees))
        coeff = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        for k, (d, v) in enumerate(zip(degrees, ints)):
            key = (start + k, d)
            entries[key] = entries.get(key, 0) + coeff * v
    return entries


def betti_text(vars_count, entries):
    lines = ["betti-table v1", f"vars {vars_count}"]
    lines += [f"entry {i} {j} {v}" for (i, j), v in sorted(entries.items())]
    return "\n".join(lines) + "\n"


# --- cohomology tables ----------------------------------------------------

def root_product(roots, j):
    return prod(j - f for f in roots)


def poly_from_roots(roots):
    """Integer coefficients c_0..c_n of prod_k (x - f_k)."""
    coeffs = [1]
    for f in roots:
        coeffs = [a - f * b for a, b in zip([0] + coeffs, coeffs + [0])]
    return coeffs


def root_chain(rng, n, terms, lo, hi):
    """``terms`` distinct root sequences, termwise nondecreasing, in (lo, hi)."""
    span = hi - lo - 2
    step = max(1, span // (2 * terms))
    roots = sorted(rng.sample(range(lo + 1, lo + 2 + span // 2), n), reverse=True)
    chain = [tuple(roots)]
    while len(chain) < terms:
        prev = chain[-1]
        new = []
        for k, f in enumerate(prev):
            top = hi - 1 - k if k == 0 else new[-1] - 1
            new.append(min(f + rng.randint(0, step), top))
        new = tuple(new)
        if new != prev:
            chain.append(new)
        elif prev[-1] >= hi - n:
            break  # packed against the window's top: no room to move
    return chain


class CohTable:
    """Cohomology table with integer numerators over the common denominator ``den``."""

    def __init__(self, n, window, cells, chi, den):
        self.n, self.window, self.cells, self.chi, self.den = n, window, cells, chi, den

    def entries(self):
        return {k: Fraction(v, self.den) for k, v in self.cells.items() if v}

    def chi_fractions(self):
        return [Fraction(c, self.den) for c in self.chi]

    def text(self):
        lines = ["coh-table v1", f"n {self.n}",
                 f"window {self.window[0]} {self.window[1]}",
                 "chi " + " ".join(str(c) for c in self.chi_fractions())]
        lines += [f"entry {i} {j} {v}" for (i, j), v in sorted(self.entries().items())]
        return "\n".join(lines) + "\n"


def supernatural_sum(n, window, terms):
    """Sum of q * sigma_f over (q, roots) terms; q rational, sigma_f = |prod(j - f)| / n!."""
    scale = lcm(*(Fraction(q).denominator for q, _ in terms))
    lo, hi = window
    cells = {}
    chi = [0] * (n + 1)
    for q, roots in terms:
        q = Fraction(q)
        a = q.numerator * (scale // q.denominator)
        for j in range(lo, hi + 1):
            p = root_product(roots, j)
            if p:
                key = (sum(1 for f in roots if f > j), j)
                cells[key] = cells.get(key, 0) + a * abs(p)
        chi = [c + a * b for c, b in zip(chi, poly_from_roots(roots))]
    return CohTable(n, window, cells, chi, scale * factorial(n))


def cancel_p1(table, j, c):
    """Chi-neutral cancellation of c at twist j in both rows of a P^1 table."""
    cells = dict(table.cells)
    for key in ((0, j), (1, j)):
        cells[key] = cells[key] - c * table.den
        if cells[key] == 0:
            del cells[key]
    return CohTable(1, table.window, cells, table.chi, table.den)


def line_bundle_p1(a, m, window):
    """m copies of O(a) on P^1: h^0 = m (a + j + 1) for j >= -a and
    h^1 = m (-a - j - 1) for j <= -a - 2."""
    lo, hi = window
    cells = {}
    for j in range(lo, hi + 1):
        if a + j >= 0:
            cells[(0, j)] = m * (a + j + 1)
        elif a + j <= -2:
            cells[(1, j)] = m * (-a - j - 1)
    return CohTable(1, window, cells, [m * (a + 1), m], 1)
