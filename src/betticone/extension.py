"""Cohomology tables of an extension under consecutive cancellations.

A short exact sequence 0 -> A -> E -> B -> 0 pins gamma(E) between the split
sum and whatever the connecting maps H^i(B(j)) -> H^{i+1}(A(j)) cancel.  Each
candidate pattern of connecting-map ranks produces one table; the feasible
ones are those in the cone, and they form the integer points of a polytope.
The candidates are drawn as rank vectors over the sorted bound support from
one lazy stream (``_vectors``), and ``decide_patterns`` turns it into a lazy
stream of (vector, verdict) rows; patterns as dicts and cancelled tables are
built only by the public functions.  On P^1 the cone is cut out by the
signs of the second differences of row 0 + row 1
(``coh_decomposition._second_differences``), which the candidates are walked
against without a greedy; on P^2 and P^3 the greedy decomposition decides
each one.
"""

from fractions import Fraction
from itertools import compress, product
from math import floor, gcd, prod
from operator import itemgetter, mul, ne

from .coh_decomposition import _decompose, _empties, _second_differences, _valid
from .errors import BoundViolation, BudgetExceeded, InvalidTable
from .tables import Numerators, Rows, _cleared, _own_violations, _union_cells, add_tables


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
        if v != int(v):
            raise ValueError(f"rank {v} at {(i, j)} is not an integer")
        if v < 0 or v > bounds.get((i, j), 0):
            raise BoundViolation(i, j, v, bounds.get((i, j), Fraction(0)))
    ranks = [(key, int(v)) for key, v in pattern.items() if v]
    return _cancel(Rows(Numerators(add_tables(A, B))), ranks).table()


def _cancel(split, ranks):
    """A copy of the split table's ``Rows`` in which, for each (key (i, j), int rank
    c) of ``ranks``, rows i and i + 1 lose c (c * den in numerators) at twist j."""
    work = split.copy()
    cells, w, lo, den = work.cells, work.width, work.window[0], work.den
    for (i, j), c in ranks:
        cells[i * w + j - lo] -= c * den
        cells[(i + 1) * w + j - lo] -= c * den
    return work


def _serre_groups(support, caps, n, shift):
    # Each key's group and each group's cap in the symmetric mode: (i, j)
    # shares its rank with its mirror (n-1-i, -n-1-j+shift), and is forced
    # to 0 when the mirror is outside the support.
    position = {key: k for k, key in enumerate(support)}
    groups, group_caps = [None] * len(support), []
    for k, (i, j) in enumerate(support):
        if groups[k] is None:  # else its mirror came first
            mirror = position.get((n - 1 - i, -n - 1 - j + shift))
            groups[k] = len(group_caps)
            if mirror is not None:
                groups[mirror] = groups[k]
            group_caps.append(0 if mirror is None else min(caps[k], caps[mirror]))
    return groups, group_caps


def enumerate_patterns(A, B, mode="full", budget=10 ** 6, serre_shift=0):
    """All candidate integer patterns within the rank bounds, lex ordered.

    ``mode`` is "full" (every integer point of the bound box) or
    "serre-symmetric" (ranks constant on twist pairs mirrored by the
    involution (i, j) <-> (n-1-i, -n-1-j+shift)); a nonzero ``serre_shift``
    needs the latter.  Enumerations larger than ``budget`` raise
    BudgetExceeded before any work is done.
    """
    support, _, groups, group_caps = _box(A, B, mode, budget, serre_shift)
    return [_pattern(support, vector) for vector in _vectors(groups, group_caps)]


def _box(A, B, mode, budget, serre_shift):
    """The candidate box: the sorted bound support, each key's cap, each
    key's group (the keys of a group take one value) and each group's cap.
    Its checks come before the caller's.  A and B must each pass
    ``_own_violations`` on their ``Numerators`` (InvalidTable, in
    ``validate``'s words): the bounds read both tables through ``cells``,
    which drop a misplaced entry, and in A + B one's Euler mismatch can
    cancel the other's.  Their tails are not checked here."""
    if mode not in ("full", "serre-symmetric"):
        raise ValueError(f"unknown mode {mode!r}")
    if serre_shift and mode == "full":
        raise ValueError(f"serre_shift {serre_shift} needs mode 'serre-symmetric'")
    bounds = cancellation_bounds(A, B)
    violations = [f"{name}: {text}" for name, t in (("A", A), ("B", B))
                  for text in _own_violations(Numerators(t))]
    if violations:
        raise InvalidTable(violations)
    support = sorted(bounds)
    caps = [floor(bounds[key]) for key in support]
    groups, group_caps = ((range(len(support)), caps) if mode == "full"
                          else _serre_groups(support, caps, A.n, serre_shift))
    volume = prod(cap + 1 for cap in group_caps)
    if volume > budget:
        raise BudgetExceeded(f"{volume} candidate patterns exceed budget {budget}")
    return support, caps, groups, group_caps


def _vectors(groups, group_caps):
    # The candidates as a lazy stream of rank vectors over the support, lex
    # ordered: each group's first key precedes the next group's.
    values = product(*(range(cap + 1) for cap in group_caps))
    if len(group_caps) == len(groups):  # one key a group: the values are the vector
        return values
    return map(itemgetter(*groups), values)  # two keys or more: a tuple each


def _pattern(support, vector):
    # A rank vector as the public functions' pattern dict, without zeros.
    return {key: v for key, v in zip(support, vector) if v}


def decide_patterns(A, B, mode="full", budget=10 ** 6, serre_shift=0):
    """(support, caps, split, rows): the sorted bound support, each key's
    rank cap, the split table's widened ``Rows`` (``_valid``), and a lazy
    stream of rows (vector, in_cone), one for every candidate rank vector
    over the support, in enumeration order.

    Every check runs here, before any row is drawn: the box's (``_box``),
    then the split table's validation.  No candidate needs its own: a
    cancellation within the rank bounds is chi-neutral, keeps every entry
    nonnegative, adds no cell and leaves the window, the edge cells and the
    tails alone, so every cancelled table is valid too, and drawing the
    rows raises nothing.  The one ``Rows`` built here is that widened split
    table, which decides every candidate and is left as it is: on P^1
    through ``_p1_walk`` on the second differences, with no greedy; on P^2
    and P^3 through ``_greedy``, on copies.  No table is built: a reader
    that wants one cancels the vector on a copy of ``split`` and cuts it
    back to the split table's window with ``table``, as ``feasible_set`` does.
    """
    support, caps, groups, group_caps = _box(A, B, mode, budget, serre_shift)
    split = _valid(Numerators(add_tables(A, B)))
    decide = _p1_walk if split.n == 1 else _greedy
    return support, caps, split, decide(split, support, _vectors(groups, group_caps))


def _greedy(wide, support, vectors):
    # Each rank vector with whether the greedy empties the widened split table's Rows
    # cancelled by it, on a copy; all share a window, so each sigma is built once.
    sigmas = {}
    for vector in vectors:
        yield vector, _empties(_decompose(_cancel(wide, zip(support, vector)), sigmas))


def _p1_walk(wide, support, vectors):
    """Each rank vector over the support with whether it is in the cone, on
    P^1: whether every second difference M_f of the widened split table
    cancelled by it is nonnegative (``_second_differences``).

    A cancellation of rank c at twist j lowers T = row 0 + row 1 by 2c at j
    and nowhere else, so it shifts the second differences at j - 1, j and
    j + 1 by (-2c, +4c, -2c).  Each vector is compared whole with the
    previous one (a group with cap 0 never moves, so the changed keys need
    not be a suffix); a key (0, j) whose rank changed by d shifts them by d
    times that stencil, and a count of the negative second differences
    decides the vector in one pass over it.
    """
    diffs = _second_differences(wide)
    blocked = sum(m < 0 for m in diffs.values())
    previous = (0,) * len(support)
    for vector in vectors:
        for k in compress(range(len(support)), map(ne, vector, previous)):
            j = support[k][1]
            step = (vector[k] - previous[k]) * wide.den
            for f, w in ((j - 1, -2), (j, 4), (j + 1, -2)):
                m = diffs[f]
                diffs[f] = shifted = m + w * step
                blocked += (shifted < 0) - (m < 0)
        previous = vector
        yield vector, not blocked


def feasible_set(A, B, mode="full", budget=10 ** 6, serre_shift=0):
    """The (pattern, table) pairs of the candidates inside the cone, in
    enumeration order; each table is its vector cancelled on a copy of
    ``decide_patterns``' widened split ``Rows``, on the split table's window."""
    support, _, split, rows = decide_patterns(A, B, mode, budget, serre_shift)
    return [(_pattern(support, vector), _cancel(split, zip(support, vector)).table())
            for vector, in_cone in rows if in_cone]


def polytope_vertices(patterns, support):
    """Extreme points of the convex hull of the given integer patterns, in
    input order; of a point given twice, the last copy is kept."""
    vectors = [tuple(p.get(key, 0) for key in support) for p in patterns]
    return [patterns[k] for k in _hull_vertices(vectors)]


def _hull_vertices(vectors):
    """The positions of the extreme points among the given integer vectors,
    ascending; of a point given twice, the last copy's.

    Clarkson's method: each point is tested against the vertices found so
    far.  While it is separated from their hull by a direction a, the point
    maximizing (a.p, p, index) is added; it is the lex-largest point of the
    face maximizing a, so a vertex, and it lies outside the current hull.
    """
    def top(a):
        return max(range(len(vectors)),
                   key=lambda k: (sum(map(mul, a, vectors[k])), vectors[k], k))
    found = {top([0] * len(vectors[0]))} if vectors else set()
    for vec in vectors:
        while (a := _separate(vec, [vectors[k] for k in found])) is not None:
            found.add(top(a))
    return sorted(found)


def _separate(x, points):
    """None when x lies in the convex hull of points, else a direction a with
    a.p < a.x for every point p.

    Phase-I simplex with Bland's rule on sum lambda_s (p_s - x) = 0,
    sum lambda_s = 1.  The cost row is the tableau's last row, with the
    phase-I objective on the right.  At the optimum it reads
    (y_0 - 1, ..., y_d - 1 | y_d) under the artificial columns and the
    right-hand side, for duals y with y.(p_s - x, 1) <= 0 for every s: x is
    in the hull iff y_d = 0, and otherwise a = (y_0, ..., y_{d-1}) has
    a.(p_s - x) <= -y_d < 0.

    The tableau is fraction-free (Edmonds 1967): each row, the cost row
    too, is held as ints that are a positive multiple of the rational row,
    reduced by their gcd after every update.  Signs and ratios are those of
    the rational tableau, so Bland's rule takes the same pivots.  The cost
    row's multiple, its denominator, is read off it as its right-hand side
    less its last artificial entry, and the direction returned is that
    multiple of a, in ints.
    """
    d = len(x)
    m = len(points)
    rows = [[p[k] - x[k] for p in points] for k in range(d)] + [[1] * m]
    # One artificial variable per row; the right-hand side is (0, ..., 0, 1),
    # and the phase-I objective starts at their sum, 1.
    tableau = [_cleared([v.as_integer_ratio() for v in
                         rows[r] + [int(r == s) for s in range(d + 1)] + [int(r == d)]])[0]
               for r in range(d + 1)]
    tableau.append(_cleared([v.as_integer_ratio() for v in
                             [sum(column) for column in zip(*rows)] + [0] * (d + 1) + [1]])[0])
    basis = [m + r for r in range(d + 1)]
    while (entering := next((c for c, v in enumerate(tableau[-1][:-1]) if v > 0), None)) is not None:
        # The entering column has a positive entry: the phase-I objective is
        # bounded below by 0, so the program is never unbounded.  Ratio test
        # rhs / entry by cross multiplication over the constraint rows, ties
        # to the smaller basis index.
        pivot_row = None
        for r, row in enumerate(tableau[:-1]):
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
        basis[pivot_row] = entering
    *cost, objective = tableau[-1]
    den = objective - cost[m + d]
    return None if objective == 0 else [c + den for c in cost[m:m + d]]
