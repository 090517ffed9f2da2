"""Cohomology tables of an extension under consecutive cancellations.

A short exact sequence 0 -> A -> E -> B -> 0 pins gamma(E) between the split
sum and whatever the connecting maps H^i(B(j)) -> H^{i+1}(A(j)) cancel.  Each
candidate pattern of connecting-map ranks produces one table; the feasible
ones are those in the cone, and they form the integer points of a polytope.
On P^1 the cone is cut out by the second differences of row 0 + row 1 and
one chi identity (``coh_decomposition._second_differences``), which the
candidates are walked against without a greedy; on P^2 and P^3 the greedy
decomposition decides each one.
"""

from fractions import Fraction
from functools import partial
from itertools import product, tee
from math import floor, gcd, prod
from operator import mul

from .coh_decomposition import _decompose, _second_differences, _valid
from .errors import BoundViolation, BudgetExceeded, NotInCone
from .tables import Numerators, _cleared, _union_cells, add_tables


def cancellation_bounds(A, B):
    """Rank caps min(gamma_i(B)(j), gamma_{i+1}(A)(j)) for the connecting maps."""
    _, a_cells, b_cells = _union_cells(A, B)
    bounds = {}
    for (i, j), b in sorted(b_cells.items()):
        cap = min(b, a_cells.get((i + 1, j), 0))
        if cap > 0:
            bounds[(i, j)] = cap
    return bounds


def apply_cancellation(A, B, pattern):
    """Table of the extension whose connecting maps have the given ranks.

    Row i at twist j loses c_{i-1,j} + c_{i,j} from the split value; the
    Euler polynomial is untouched because cancellations are chi-neutral.
    """
    bounds = cancellation_bounds(A, B)
    for (i, j), v in sorted(pattern.items()):
        if v < 0 or v > bounds.get((i, j), 0):
            raise BoundViolation(i, j, v, bounds.get((i, j), Fraction(0)))
    return _cancel(Numerators(add_tables(A, B)), pattern).table()


def _cancel(split, pattern):
    """A working copy of the split table's ``Numerators`` in which row i at
    twist j and row i + 1 at twist j each lose the rank c_{i,j}, that is
    c * den in numerators; a cell that reaches zero is dropped.  The ranks
    are ints, or the caller's Fractions in ``apply_cancellation``, whose
    ``table()`` reads them the same way."""
    work = split.copy()
    entries, den = work.entries, split.den
    for (i, j), c in pattern.items():
        c *= den
        for key in ((i, j), (i + 1, j)):
            v = entries.get(key, 0) - c
            if v:
                entries[key] = v
            else:
                entries.pop(key, None)
    return work


def _serre_orbits(support, n, shift):
    # Pair (i, j) with (n-1-i, -n-1-j+shift); orbits sharing one rank value.
    seen = set()
    orbits = []
    for key in sorted(support):
        if key in seen:
            continue
        i, j = key
        mirror = (n - 1 - i, -n - 1 - j + shift)
        orbit = sorted({key, mirror} & set(support))
        forced_zero = mirror not in support and mirror != key
        seen.update(orbit)
        orbits.append((orbit, forced_zero))
    return orbits


def enumerate_patterns(A, B, mode="full", budget=10 ** 6, serre_shift=0):
    """All candidate integer patterns within the rank bounds, lex ordered.

    ``mode`` is "full" (every integer point of the bound box) or
    "serre-symmetric" (ranks constant on twist pairs mirrored by the
    involution (i, j) <-> (n-1-i, -n-1-j+shift)); a nonzero ``serre_shift``
    needs the latter.  Enumerations larger than ``budget`` raise
    BudgetExceeded before any work is done.
    """
    return list(_patterns(_groups(A, B, mode, budget, serre_shift)))


def _groups(A, B, mode, budget, serre_shift):
    # The (keys, cap) groups of enumerate_patterns, each key of a group
    # taking the group's value; its checks come before the caller's.
    if mode not in ("full", "serre-symmetric"):
        raise ValueError(f"unknown mode {mode!r}")
    if serre_shift and mode == "full":
        raise ValueError(f"serre_shift {serre_shift} needs mode 'serre-symmetric'")
    bounds = cancellation_bounds(A, B)
    support = sorted(bounds)
    caps = {key: floor(bounds[key]) for key in support}
    if mode == "full":
        groups = [([key], caps[key]) for key in support]
    else:
        groups = []
        for orbit, forced_zero in _serre_orbits(support, A.n, serre_shift):
            cap = 0 if forced_zero else min(caps[key] for key in orbit)
            groups.append((orbit, cap))
    volume = prod(cap + 1 for _, cap in groups)
    if volume > budget:
        raise BudgetExceeded(f"{volume} candidate patterns exceed budget {budget}")
    return groups


def _patterns(groups):
    # The groups' candidate patterns as a lazy stream, lex by value vector.
    return ({key: v for (orbit, _), v in zip(groups, values) if v for key in orbit}
            for values in product(*(range(cap + 1) for _, cap in groups)))


def decide_patterns(A, B, mode="full", budget=10 ** 6, serre_shift=0):
    """(pattern, extension table or None when it is outside the cone) for
    every candidate, in enumeration order: lex by the pattern's value vector
    over the bound support.

    Only the split table (the all-zero pattern's) is validated: a
    cancellation within the rank bounds is chi-neutral, keeps every entry
    nonnegative, adds no cell and leaves the window, the edge cells and the
    tails alone, so every cancelled table is valid too.  The split table's
    ``Numerators`` are widened once by ``_valid``.  On P^1 the candidates
    are decided by ``_p1_walk`` on its second differences, with no greedy;
    on P^2 and P^3 each one runs the greedy on its own copy of the widened
    table (all have that window, so sigma's cells are built once per root
    sequence).  One in the cone is cancelled again on the unwidened split
    table, so its table keeps the split table's window, as
    ``apply_cancellation``'s does.
    """
    groups = _groups(A, B, mode, budget, serre_shift)
    split = Numerators(add_tables(A, B))
    wide = _valid(split.copy())
    patterns = _patterns(groups)
    if wide.n == 1:
        verdicts = _p1_walk(groups, wide)
    else:
        patterns, drawn = tee(patterns)
        verdicts = map(partial(_accepts, wide, {}), drawn)
    return [(pattern, _cancel(split, pattern).table() if in_cone else None)
            for pattern, in_cone in zip(patterns, verdicts)]


def _accepts(wide, sigmas, pattern):
    # Whether the greedy empties the widened split table cancelled by pattern.
    try:
        for _ in _decompose(_cancel(wide, pattern), sigmas):
            pass
    except NotInCone:
        return False
    return True


def _p1_walk(groups, wide):
    """Whether each candidate of the groups is in the cone, in the order of
    ``_patterns``, on P^1, from the widened split table's second
    differences (``_second_differences``).

    A cancellation of rank c at twist j lowers T = row 0 + row 1 by 2c at j
    and nowhere else, so it shifts the second differences at j - 1, j and
    j + 1 by (-2c, +4c, -2c).  These shifts have zero sum and zero first
    moment, so they leave the chi identity as the split table has it.  The
    box is walked as an odometer, the last group turning fastest: a group
    that steps up shifts by its stencil, one that wraps back to 0 by its
    cap times the opposite, and a count of the negative second differences
    (plus one for a failed chi identity) decides each candidate in O(1)
    amortized.
    """
    diffs, reconstructs = _second_differences(wide)
    blocked = sum(m < 0 for m in diffs.values()) + (not reconstructs)
    caps, stencils = [], []  # of the groups that can move
    for keys, cap in groups:
        if cap:
            stencil = {}
            for _, j in keys:
                for f, w in ((j - 1, -2), (j, 4), (j + 1, -2)):
                    stencil[f] = stencil.get(f, 0) + w * wide.den
            caps.append(cap)
            stencils.append(list(stencil.items()))
    values = [0] * len(caps)
    while True:
        yield not blocked
        k = len(caps) - 1
        while k >= 0 and values[k] == caps[k]:
            blocked += _shift(diffs, stencils[k], -caps[k])
            values[k] = 0
            k -= 1
        if k < 0:
            return
        blocked += _shift(diffs, stencils[k], 1)
        values[k] += 1


def _shift(diffs, stencil, times):
    # Add times the stencil to the second differences; returns the change
    # in their count of negatives.
    change = 0
    for f, w in stencil:
        m = diffs[f]
        diffs[f] = new = m + times * w
        change += (new < 0) - (m < 0)
    return change


def feasible_set(A, B, mode="full", budget=10 ** 6, serre_shift=0):
    """The (pattern, table) pairs of ``decide_patterns`` inside the cone."""
    return [pair for pair in decide_patterns(A, B, mode, budget, serre_shift)
            if pair[1] is not None]


def _vector(pattern, support):
    return tuple(pattern.get(key, 0) for key in support)


def polytope_vertices(patterns, support):
    """Extreme points of the convex hull of the given integer patterns, in
    input order; of a point given twice, the last copy is kept.

    Clarkson's method: each point is tested against the vertices found so
    far.  While it is separated from their hull by a direction a, the point
    maximizing (a.p, p, index) is added; it is the lex-largest point of the
    face maximizing a, so a vertex, and it lies outside the current hull.
    """
    vectors = [_vector(p, support) for p in patterns]

    def top(a):
        return max(range(len(vectors)),
                   key=lambda k: (sum(map(mul, a, vectors[k])), vectors[k], k))
    found = {top([0] * len(support))} if vectors else set()
    for vec in vectors:
        while (a := _separate(vec, [vectors[k] for k in found])) is not None:
            found.add(top(a))
    return [patterns[k] for k in sorted(found)]


def _separate(x, points):
    """None when x lies in the convex hull of points, else a direction a with
    a.p < a.x for every point p.

    Phase-I simplex with Bland's rule on sum lambda_s (p_s - x) = 0,
    sum lambda_s = 1.  At the optimum the cost row under artificial column r
    holds y_r - 1 for duals y with y.(p_s - x, 1) <= 0 for every s, and y_d
    is the phase-I objective: x is in the hull iff y_d = 0, and otherwise
    a = (y_0, ..., y_{d-1}) has a.(p_s - x) <= -y_d < 0.

    The tableau is fraction-free (Edmonds 1967): each row is held as ints
    that are a positive multiple of the rational row, reduced by their gcd
    after every update, and the cost row as ints over a positive int
    denominator.  Signs and ratios are those of the rational tableau, so
    Bland's rule takes the same pivots, and the direction returned is a
    positive multiple of a, in ints.
    """
    d = len(x)
    m = len(points)
    rows = [[p[k] - x[k] for p in points] for k in range(d)] + [[1] * m]
    # One artificial variable per row; the right-hand side is (0, ..., 0, 1).
    tableau = [_cleared(rows[r] + [int(r == s) for s in range(d + 1)] + [int(r == d)])[0]
               for r in range(d + 1)]
    basis = [m + r for r in range(d + 1)]
    cost, den = _cleared([sum(column) for column in zip(*rows)] + [0] * (d + 1))
    while (entering := next((c for c, v in enumerate(cost) if v > 0), None)) is not None:
        # The entering column has a positive entry: the phase-I objective is
        # bounded below by 0, so the program is never unbounded.  Ratio test
        # rhs / entry by cross multiplication, ties to the smaller basis index.
        pivot_row = None
        for r, row in enumerate(tableau):
            a = row[entering]
            if a > 0 and (pivot_row is None or (row[-1] * pivot, basis[r])
                          < (rhs * a, basis[pivot_row])):
                pivot_row, pivot, rhs = r, a, row[-1]
        prow = tableau[pivot_row]
        for r, row in enumerate(tableau):
            f = row[entering]
            if r != pivot_row and f:
                row = [pivot * a - f * p for a, p in zip(row, prow)]
                g = gcd(*row)
                tableau[r] = [a // g for a in row] if g > 1 else row
        f = cost[entering]
        cost = [pivot * a - f * p for a, p in zip(cost, prow)]
        den *= pivot
        g = gcd(den, *cost)
        if g > 1:
            den //= g
            cost = [a // g for a in cost]
        basis[pivot_row] = entering
    y = [c + den for c in cost[m:]]
    return None if y[d] == 0 else y[:d]
