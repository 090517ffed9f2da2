"""Shared test utilities: independent oracles, dense reference arithmetic and
random table generators."""

import argparse
import re
from fractions import Fraction
from itertools import combinations
from math import comb, factorial

from betticone import (BettiDecomposition, BettiTable, CohomologyTable,
                       DegreeSequence, InvalidTable, NegativeEntry, NotInCone,
                       RootSequence, StrandNotIncreasing, add_tables, corner_roots, is_chain, normalized_diagram,
                       scale, smallest_integral, supernatural_table, validate)
from betticone import cli
from betticone.diagrams import integral_scale
from betticone.errors import ParseError
from betticone.exchange import _int, parse_rational
from betticone.extension import _separate
from betticone.supernatural import CohDecomposition, chi_from_roots
from betticone.tables import combine, first_twists


def hk_solve(seq):
    """Solve the moment equations by Gaussian elimination, first entry 1.

    Deliberately independent of the closed-form product the library uses:
    sets up sum_k (-1)^k x_k d_k^m = 0 for m = 0..l-1 with x_0 = 1 and
    eliminates exactly over Fractions.
    """
    d = seq.degrees
    l = len(d) - 1
    if l == 0:
        return (Fraction(1),)
    rows = []
    for m in range(l):
        coeffs = [Fraction((-1) ** k) * Fraction(d[k]) ** m for k in range(1, l + 1)]
        rows.append(coeffs + [-Fraction(d[0]) ** m])
    for col in range(l):
        pivot = next(r for r in range(col, l) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(l):
            if r != col and rows[r][col] != 0:
                f = rows[r][col] / rows[col][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return tuple([Fraction(1)] + [rows[k][-1] / rows[k][k] for k in range(l)])


def random_degree_sequence(rng, max_vars=8, lo=-20, hi=20):
    v = rng.randint(1, max_vars)
    length = rng.randint(1, v + 1)
    degrees = sorted(rng.sample(range(lo, hi + 1), length))
    return DegreeSequence(0, tuple(degrees), v)


def random_chain(rng, vars_count=4, max_terms=4, lo=-10):
    """Random chain of degree sequences under the fan order."""
    length = rng.randint(1, vars_count + 1)
    base = sorted(rng.sample(range(lo, lo + 12), length))
    seqs = [DegreeSequence(0, tuple(base), vars_count)]
    while len(seqs) < max_terms and rng.random() < 0.8:
        prev = seqs[-1]
        if len(prev.degrees) == vars_count + 1 and rng.random() < 0.4:
            shift = rng.randint(1, 2)
            start = prev.start + shift
            degrees = []
            for i in range(start, prev.end + 1):
                floor_val = prev.degrees[i - prev.start]
                if degrees:
                    floor_val = max(floor_val, degrees[-1] + 1)
                degrees.append(floor_val + rng.randint(0, 2))
            if not degrees:
                degrees = [prev.degrees[-1] + rng.randint(0, 3)]
            while len(degrees) < vars_count + 1 and rng.random() < 0.5:
                degrees.append(degrees[-1] + rng.randint(1, 3))
            nxt = DegreeSequence(start, tuple(degrees), vars_count)
        else:
            length = rng.randint(1, len(prev.degrees))
            degrees = []
            for k in range(length):
                floor_val = prev.degrees[k]
                if degrees:
                    floor_val = max(floor_val, degrees[-1] + 1)
                degrees.append(floor_val + rng.randint(0, 2))
            nxt = DegreeSequence(prev.start, tuple(degrees), vars_count)
        if nxt != prev:
            seqs.append(nxt)
    return seqs


def chain_combination(rng, seqs):
    """Random positive combination of the chain's smallest-integral diagrams."""
    terms = []
    total = BettiTable(seqs[0].vars)
    for seq in seqs:
        coeff = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        diagram = smallest_integral(normalized_diagram(seq))
        terms.append((coeff, diagram))
        total = add_tables(total, scale(diagram.table(), coeff))
    return terms, total


def random_root_chain(rng, n, max_terms=4, lo=-8, hi=8):
    """Random termwise nondecreasing chain of distinct root sequences."""
    roots = tuple(sorted(rng.sample(range(lo, hi + 1), n), reverse=True))
    chain = [RootSequence(n, roots)]
    while len(chain) < max_terms and rng.random() < 0.7:
        prev = chain[-1].roots
        new = []
        for k, f in enumerate(prev):
            top = f + 2 if k == 0 else min(f + 2, new[-1] - 1)
            new.append(rng.randint(f, top))
        nxt = RootSequence(n, tuple(new))
        if nxt != chain[-1]:
            chain.append(nxt)
    return chain


def root_chain_combination(rng, chain, slack=2):
    """Integer combination of unit supernatural tables over a generous window."""
    lo = min(r.roots[-1] for r in chain) - 1 - slack
    hi = max(r.roots[0] for r in chain) + 1 + slack
    terms = []
    total = None
    for roots in chain:
        m = rng.randint(1, 4)
        terms.append((Fraction(m), roots))
        table = supernatural_table(roots, m, (lo, hi))
        total = table if total is None else add_tables(total, table)
    return terms, total


# Dense reference arithmetic for cohomology tables.  These walk the whole
# (n + 1) x window grid through ``value`` and ``chi_at``, exactly as the
# library did before its arithmetic went sparse; the property tests check the
# sparse code against them cell for cell.

def chi_neutral_dent(rng, t):
    """Lower rows i and i + 1 at one twist by the same amount: the Euler
    polynomial is unchanged, positivity and staircase shape may not be."""
    cells = [(i, j) for (i, j) in t.entries if i < t.n and (i + 1, j) in t.entries]
    if not cells:
        return t
    i, j = rng.choice(cells)
    cap = min(t.entries[(i, j)], t.entries[(i + 1, j)])
    c = cap if rng.random() < 0.5 else cap * Fraction(rng.randint(1, 9), 10)
    return combine(t, CohomologyTable(t.n, t.window, {(i, j): c, (i + 1, j): c}), -1)


def _union(a, b):
    return min(a.window[0], b.window[0]), max(a.window[1], b.window[1])


def dense_cells(t, lo, hi):
    return {(i, j): t.value(i, j) for i in range(t.n + 1)
            for j in range(lo, hi + 1) if t.value(i, j) != 0}


def dense_combine(a, b, sign):
    """a + sign * b over the union window; sign -1 raises NegativeEntry."""
    lo, hi = _union(a, b)
    merged = {}
    for i in range(a.n + 1):
        for j in range(lo, hi + 1):
            d = a.value(i, j) + sign * b.value(i, j)
            if sign < 0 and d < 0:
                raise NegativeEntry(i, j, d)
            if d != 0:
                merged[(i, j)] = d
    chi = tuple(x + sign * y for x, y in zip(a.chi, b.chi))
    return CohomologyTable(a.n, (lo, hi), merged, chi)


def dense_equal(a, b):
    if a.n != b.n or a.chi != b.chi:
        return False
    lo, hi = _union(a, b)
    return dense_cells(a, lo, hi) == dense_cells(b, lo, hi)


def dense_cancellation_bounds(A, B):
    lo, hi = _union(A, B)
    bounds = {}
    for i in range(A.n):
        for j in range(lo, hi + 1):
            cap = min(B.value(i, j), A.value(i + 1, j))
            if cap > 0:
                bounds[(i, j)] = cap
    return bounds


def dense_apply_cancellation(A, B, pattern):
    lo, hi = _union(A, B)
    entries = {}
    for i in range(A.n + 1):
        for j in range(lo, hi + 1):
            v = (A.value(i, j) + B.value(i, j)
                 - pattern.get((i - 1, j), 0) - pattern.get((i, j), 0))
            if v != 0:
                entries[(i, j)] = v
    chi = tuple(a + b for a, b in zip(A.chi, B.chi))
    return CohomologyTable(A.n, (lo, hi), entries, chi)


def dense_validate(t):
    """Cohomology invariants with the Euler check rescanning every twist."""
    violations = []
    n = t.n
    lo, hi = t.window
    for (i, j), v in sorted(t.entries.items()):
        if v <= 0:
            violations.append(f"entry ({i}, {j}) = {v} is not positive")
        if not 0 <= i <= n:
            violations.append(f"entry ({i}, {j}) lies outside rows 0..{n}")
        elif not lo <= j <= hi:
            violations.append(f"entry ({i}, {j}) lies outside the window [{lo}, {hi}]")
        elif 1 <= i <= n - 1 and (j == lo or j == hi):
            violations.append(f"interior row {i} touches the window edge at j = {j}")
    for j in range(lo, hi + 1):
        alt = sum((v if i % 2 == 0 else -v)
                  for (i, jj), v in t.entries.items() if jj == j and 0 <= i <= n)
        if alt != t.chi_at(j):
            violations.append(f"Euler mismatch at j = {j}: "
                              f"alternating sum {alt} != chi {t.chi_at(j)}")
    for k in range(1, n + 2):
        right = t.chi_at(hi + k)
        if right < 0:
            violations.append(f"right tail negative: chi({hi + k}) = {right}")
        left = t.chi_at(lo - k)
        if n % 2 == 1:
            left = -left
        if left < 0:
            violations.append(f"left tail negative: (-1)^{n} chi({lo - k}) = {left}")
    lead = next((c for c in reversed(t.chi) if c != 0), None)
    if lead is not None and lead < 0:
        violations.append(f"leading chi coefficient {lead} is negative")
    return violations


# References computed another way than the library: every hull point
# tested against all the others (the library tests it against the vertices
# found so far), by the library's simplex and by Caratheodory elimination;
# the separation simplex on Fraction rows (the library pivots in ints); and
# line bundles from binomials (the library cuts them out of supernatural
# tables).

def _in_hull(x, points):
    """Exact membership of x in the convex hull of points."""
    return _separate(x, points) is None


def reference_separate(x, points):
    """The separation simplex as it was on ``Fraction`` rows: None when x is
    in the convex hull of points, else the direction a = (y_0, ..., y_{d-1})
    read off the phase-I cost row.  The library pivots the same tableau in
    ints and returns a positive multiple of this a."""
    d = len(x)
    m = len(points)
    A = [[Fraction(p[k] - x[k]) for p in points] for k in range(d)] + [[Fraction(1)] * m]
    tableau = [A[r] + [Fraction(int(r == s)) for s in range(d + 1)] + [Fraction(int(r == d))]
               for r in range(d + 1)]
    basis = [m + r for r in range(d + 1)]
    cost = [sum(column) for column in zip(*A)] + [Fraction(0)] * (d + 1)
    while (entering := next((c for c, v in enumerate(cost) if v > 0), None)) is not None:
        pivot_row = min((r for r in range(d + 1) if tableau[r][entering] > 0),
                        key=lambda r: (tableau[r][-1] / tableau[r][entering], basis[r]))
        pivot = tableau[pivot_row][entering]
        tableau[pivot_row] = [a / pivot for a in tableau[pivot_row]]
        for r in range(d + 1):
            if r != pivot_row and tableau[r][entering] != 0:
                f = tableau[r][entering]
                tableau[r] = [a - f * p for a, p in zip(tableau[r], tableau[pivot_row])]
        f = cost[entering]
        cost = [a - f * p for a, p in zip(cost, tableau[pivot_row])]
        basis[pivot_row] = entering
    y = [c + 1 for c in cost[m:]]
    return None if y[d] == 0 else y[:d]


def reference_polytope_vertices(patterns, support):
    """Extreme points, each point tested against all the other points."""
    vectors = [tuple(Fraction(p.get(key, 0)) for key in support) for p in patterns]
    return [patterns[k] for k, vec in enumerate(vectors)
            if not _in_hull(vec, vectors[:k] + vectors[k + 1:])]


def caratheodory_inside(x, points):
    """x lies in the convex hull of points, decided without any LP.

    By Caratheodory's theorem x is in the hull iff it has nonnegative
    barycentric coordinates over some affinely independent subset of at most
    d + 1 of the points; each subset is solved by exact Gauss-Jordan
    elimination, and a dependent one is skipped (a smaller subset covers it).
    """
    for size in range(1, len(x) + 2):
        for subset in combinations(points, size):
            coords = _barycentric(x, subset)
            if coords is not None and all(c >= 0 for c in coords):
                return True
    return False


def _barycentric(x, subset):
    # lambda with sum lambda_s p_s = x and sum lambda_s = 1, or None when the
    # points are affinely dependent or x is off their affine hull.
    s = len(subset)
    rows = [[Fraction(p[k]) for p in subset] + [Fraction(x[k])] for k in range(len(x))]
    rows.append([Fraction(1)] * (s + 1))
    for col in range(s):
        pivot = next((r for r in range(col, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [v / rows[col][col] for v in rows[col]]
        for r in range(len(rows)):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    if any(row[-1] != 0 for row in rows[s:]):
        return None
    return [rows[k][-1] for k in range(s)]


def caratheodory_vertices(patterns, support):
    """Extreme points of distinct patterns: those outside the hull of all the
    others by ``caratheodory_inside``.  Shares no code with the library's
    simplex."""
    vectors = [tuple(p.get(key, 0) for key in support) for p in patterns]
    return [patterns[k] for k, vec in enumerate(vectors)
            if not caratheodory_inside(vec, vectors[:k] + vectors[k + 1:])]


def reference_line_bundle_table(n, a, window):
    """O(a) on P^n from binomials: binomial(a + j + n, n) on row 0 for
    a + j >= 0, binomial(-a - j - 1, n) on row n for a + j <= -n - 1."""
    lo, hi = window
    entries = {}
    for j in range(lo, hi + 1):
        if a + j >= 0:
            v = comb(a + j + n, n)
            if v:
                entries[(0, j)] = Fraction(v)
        elif a + j <= -n - 1:
            v = comb(-a - j - 1, n)
            if v:
                entries[(n, j)] = Fraction(v)
    chi = chi_from_roots([-a - k for k in range(1, n + 1)],
                         Fraction(1, factorial(n)))
    return CohomologyTable(n, window, entries, chi)


def reference_p1_oracle(g):
    """``p1_oracle`` rebuilding its answer as a sum of supernatural tables,
    one whole-window table per term, as the library once did; f runs one
    twist past each window edge, and the tables two."""
    if g.n != 1:
        raise ValueError(f"oracle only applies on P^1, got n = {g.n}")
    problems = validate(g)
    if problems:
        raise InvalidTable(problems)
    lo, hi = g.window
    cells = g.cells(lo - 2, hi + 2)

    def T(j):
        return cells.get((0, j), 0) + cells.get((1, j), 0)

    terms = []
    for f in range(lo - 1, hi + 2):
        m = Fraction(T(f + 1) - 2 * T(f) + T(f - 1), 2)
        if m < 0:
            raise NotInCone(0, f"negative second difference {2 * m} at j = {f}")
        if m > 0:
            terms.append((m, RootSequence(1, (f,))))
    rebuilt = CohomologyTable(1, g.window)
    for m, roots in terms:
        rebuilt = add_tables(rebuilt, supernatural_table(roots, m, (lo - 2, hi + 2)))
    if rebuilt != g:
        raise NotInCone(0, "second differences do not reconstruct the table")
    return CohDecomposition(tuple(terms))


def random_point_set(rng, dim, max_points=10):
    """Distinct integer points in ``dim`` dimensions, in random order.

    The points lie on a random affine subspace of dimension 0..dim, so
    single points, collinear and coplanar sets come up as often as
    full-dimensional ones; the direction vectors may themselves be
    dependent, which lowers the dimension further.
    """
    rank = rng.randint(0, dim)
    base = [rng.randint(-3, 3) for _ in range(dim)]
    directions = [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(rank)]
    points = {}
    for _ in range(rng.randint(1, max_points)):
        c = [rng.randint(-2, 2) for _ in range(rank)]
        point = tuple(b + sum(ck * d[k] for ck, d in zip(c, directions))
                      for k, b in enumerate(base))
        points[point] = None
    return list(points)


# The greedies as they were on Fraction tables: every cohomology peel builds
# the whole-window unit table and a new remainder through ``combine``, and
# every Betti step rescans the support for the column minima and copies the
# table.  The library now works on a mutable remainder (int numerators over
# one denominator on the cohomology side); the suites compare outcomes.

def peel_largest(g, unit):
    """(q, binding cell, g - q * unit) for q the minimum of g / unit over the
    unit's cells, ties going to the smallest cell; the caller refuses q <= 0,
    so a zero ratio returns g itself.

    This is the greedy step on immutable tables of either kind.  The two
    greedies take the same step in place on their working remainders, and
    the reference greedies of the tests are built on this one.
    """
    q, binding = min((g.value(i, j) / s, (i, j)) for (i, j), s in unit.entries.items())
    return q, binding, combine(g, unit, -q) if q else g


def reference_peel_supernatural(g, roots):
    q, binding, remainder = peel_largest(g, supernatural_table(roots, 1, g.window))
    if q == 0:
        raise NotInCone(0, f"table vanishes at {binding} inside the staircase of {roots}")
    return q, remainder


def reference_widened_peel(g, roots):
    """``peel_supernatural`` on ``Fraction`` tables: one
    ``reference_peel_supernatural`` step on g with its cells n + 1 twists
    past each window edge, cut back to g's window, and refused when
    ``dense_validate`` finds the remainder invalid."""
    supernatural_table(roots, 1, g.window)  # WindowTooSmall unless it holds the staircase
    lo, hi = g.window
    wide = (lo - g.n - 1, hi + g.n + 1)
    q, rest = reference_peel_supernatural(CohomologyTable(g.n, wide, g.cells(*wide), g.chi),
                                          roots)
    rest = CohomologyTable(g.n, g.window, {(i, j): v for (i, j), v in rest.entries.items()
                                           if lo <= j <= hi}, rest.chi)
    problems = dense_validate(rest)
    if problems:
        raise NotInCone(0, f"the remainder is not a valid table: {'; '.join(problems)}")
    return q, rest


def reference_decompose_cohomology(g):
    """``decompose_cohomology`` on ``Fraction`` tables, validated densely,
    then peeled on the window widened by n + 1 twists on each side."""
    problems = dense_validate(g)
    if problems:
        raise InvalidTable(problems)
    lo, hi = g.window
    window = (lo - g.n - 1, hi + g.n + 1)
    terms = []
    work = CohomologyTable(g.n, window, g.cells(*window), g.chi)
    while not work.is_zero():
        try:
            roots = corner_roots(work)
            q, work = reference_peel_supernatural(work, roots)
        except NotInCone as exc:
            # the step of a refusal is the number of peels done before it
            raise type(exc)(len(terms), exc.detail) from None
        terms.append((q, roots))
    for step, ((_, f), (_, h)) in enumerate(zip(terms, terms[1:]), start=1):
        if any(a > b for a, b in zip(f.roots, h.roots)):
            raise NotInCone(step, f"roots {f} and {h} are not termwise nondecreasing")
    return CohDecomposition(tuple(terms))


def reference_peel(b, seq):
    """``peel`` on ``Fraction`` tables: one ``peel_largest`` step against the
    normalized pure diagram of ``seq``, refusing q <= 0 as the greedy does."""
    q, binding, remainder = peel_largest(b, normalized_diagram(seq).table())
    if q < 0:
        raise ValueError(f"scale factor must be nonnegative, got {q}")
    if q == 0:
        raise ValueError(f"strand position {binding} absent from table")
    return q, remainder


def reference_decompose(b, normalized=False):
    """``decompose`` with a ``first_twists`` rescan and a ``reference_peel``
    copy of the table at every step, on a table validated first."""
    problems = validate(b)
    if problems:
        raise InvalidTable(problems)
    terms = []
    seqs = []
    truncations = []
    work = b
    while not work.is_zero():
        minima = first_twists(work)
        a = min(minima)
        degrees = [minima[a]]
        truncated_at = None
        i = a + 1
        while len(degrees) < b.vars + 1 and i in minima:
            if minima[i] <= degrees[-1]:
                truncated_at = i
                break
            degrees.append(minima[i])
            i += 1
        seq = DegreeSequence(a, tuple(degrees), b.vars)
        q, work = reference_peel(work, seq)
        pi = normalized_diagram(seq)
        if normalized:
            terms.append((q, pi))
        else:
            terms.append((q / integral_scale(pi.values), smallest_integral(pi)))
        seqs.append(seq)
        truncations.append(truncated_at)
    for step, (d, e) in enumerate(zip(seqs, seqs[1:]), start=1):
        if not is_chain([d, e]):
            detail = f"strands {d} and {e} are not comparable"
            if truncations[step - 1] is not None:
                raise StrandNotIncreasing(step, truncations[step - 1], detail)
            raise NotInCone(step, detail)
    return BettiDecomposition(tuple(terms))


# Flags whose values may start with a minus sign; they are glued to the flag
# before argparse sees them, since bare "-6,3" looks like an option.
_ABSORB = {"--window", "--roots", "-f", "--degrees", "-d", "--serre-shift"}


def _absorb_negative_values(argv):
    out = []
    skip = False
    for k, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        if tok in _ABSORB and k + 1 < len(argv) and re.match(r"^-\d", argv[k + 1]):
            nxt = argv[k + 1]
            out.append(f"{tok}={nxt}" if tok.startswith("--") else tok + nxt)
            skip = True
        else:
            out.append(tok)
    return out


def _parser():
    parser = argparse.ArgumentParser(
        prog="betticone",
        description="Exact decomposition of Betti and cohomology tables "
                    "into extremal diagrams.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pure", help="pure diagram of a degree sequence")
    p.add_argument("-d", "--degrees", required=True,
                   help="degree sequence, e.g. 0,2,3,4 or 1:[1,3,4]")
    p.add_argument("--vars", type=_int, required=True)
    p.add_argument("--integral", action="store_true",
                   help="smallest integral multiple instead of first entry 1")
    p.set_defaults(handler=cli._cmd_pure)

    p = sub.add_parser("decompose", help="greedy chain decomposition of a Betti table")
    p.add_argument("table")
    p.add_argument("--normalized", action="store_true",
                   help="report coefficients against first-entry-1 diagrams")
    p.set_defaults(handler=cli._cmd_decompose)

    p = sub.add_parser("member", help="cone membership of a table file")
    p.add_argument("table")
    p.set_defaults(handler=cli._cmd_member)

    p = sub.add_parser("supernatural", help="supernatural table from a root sequence")
    p.add_argument("-n", type=_int, required=True)
    p.add_argument("-f", "--roots", required=True, help="roots, e.g. 0,-3")
    p.add_argument("-m", "--multiplicity", default="1")
    p.add_argument("--window", help="lo,hi (default: smallest legal window)")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(handler=cli._cmd_supernatural)

    p = sub.add_parser("coh-decompose",
                       help="greedy supernatural decomposition of a cohomology table")
    p.add_argument("table")
    p.add_argument("--check-oracle", action="store_true",
                   help="cross-check against the second-difference oracle on P^1")
    p.add_argument("--integral", action="store_true",
                   help="rescale terms to integral window entries")
    p.set_defaults(handler=cli._cmd_coh_decompose)

    p = sub.add_parser("stillman", help="virtual pure diagram family scan")
    p.add_argument("-e", type=_int, required=True)
    p.add_argument("-r", type=_int, required=True)
    p.add_argument("--p-max", type=_int, required=True)
    p.add_argument("--tsv", action="store_true")
    p.set_defaults(handler=cli._cmd_stillman)

    p = sub.add_parser("ext-polytope",
                       help="feasible cancellation patterns of an extension")
    p.add_argument("a", metavar="A.ct")
    p.add_argument("b", metavar="B.ct")
    p.add_argument("--symmetric", action="store_true",
                   help="restrict to Serre-symmetric patterns")
    p.add_argument("--max-points", type=_int, default=10 ** 6)
    p.add_argument("--serre-shift", type=_int, default=0)
    p.set_defaults(handler=cli._cmd_ext_polytope)

    p = sub.add_parser("pretty", help="human-readable grid for a table file")
    p.add_argument("table")
    p.set_defaults(handler=cli._cmd_pretty)

    p = sub.add_parser("validate", help="check every table invariant")
    p.add_argument("table")
    p.set_defaults(handler=cli._cmd_validate)

    return parser


def reference_parse(argv):
    """The CLI's argument parsing before its grammar table: an argparse
    parser with a minus-sign pre-pass for the listed flags.  Returns the
    ``argparse.Namespace``; a refusal raises ``SystemExit`` (after argparse
    prints its message) or, for a bad integer, ``ParseError``."""
    return _parser().parse_args(_absorb_negative_values(list(argv)))


# Each header's directives besides "entry", in the order a missing one is
# reported, with the usage of a line of integers (None: chi's rationals).
_REFERENCE_DIRECTIVES = {
    "betti-table v1": {"vars": "<v>"},
    "coh-table v1": {"n": "<n>", "window": "<j_lo> <j_hi>", "chi": None},
}


def reference_parse_table(text):
    """The exchange grammar read token by token through ``_int`` and
    ``parse_rational`` into ``Fraction``s, and built by the tables' checking
    constructors: ``parse_table`` without its int-pair reader."""
    rows = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            rows.append((line_no, line.split()))
    if not rows:
        raise ParseError(0, "empty input")
    (line_no, first), *rows = rows
    header = " ".join(first)
    if header not in _REFERENCE_DIRECTIVES:
        raise ParseError(line_no, f"unknown header {header!r}")
    directives = _REFERENCE_DIRECTIVES[header]
    fields, line_of, entries = {}, {}, {}
    for line_no, parts in rows:
        name = parts[0]
        if name == "entry":
            if len(parts) != 4:
                raise ParseError(line_no, "entry lines read: entry <i> <j> <value>")
            key = (_int(parts[1], line_no), _int(parts[2], line_no))
            if key in entries:
                raise ParseError(line_no, f"duplicate entry {key}")
            entries[key] = parse_rational(parts[3], line_no)
        elif name not in directives:
            raise ParseError(line_no, f"unknown directive {name!r}")
        elif name in fields:
            raise ParseError(line_no, f"repeated {name} line")
        elif directives[name] is None:
            fields[name] = [parse_rational(tok, line_no) for tok in parts[1:]]
            line_of[name] = line_no
        elif len(parts) != len(directives[name].split()) + 1:
            raise ParseError(line_no, f"{name} lines read: {name} {directives[name]}")
        else:
            fields[name] = [_int(tok, line_no) for tok in parts[1:]]
            line_of[name] = line_no
    for name in directives:
        if name not in fields:
            raise ParseError(0, f"missing {name} line")
    try:
        if header == "betti-table v1":
            return BettiTable(*fields["vars"], entries)
        (n,), chi = fields["n"], fields["chi"]
        if len(chi) != n + 1:
            raise ParseError(line_of["chi"], f"chi needs {n + 1} coefficients, got {len(chi)}")
        return CohomologyTable(n, tuple(fields["window"]), entries, chi)
    except ValueError as exc:
        raise ParseError(0, str(exc)) from None
