"""Independent checkers for the stdout of each benchmark job.

Every checker returns a list of problems; an empty list means the output is
right.  None of them imports betticone: answers are re-derived with the
benchmark's own exact arithmetic (``gen.py``), by methods other than the
greedy decompositions under test:

* Betti decompositions are recomposed term by term and must equal the input
  exactly; each printed diagram must satisfy the Herzog-Kuhl moment
  equations, and consecutive degree sequences must follow the fan order.
* Cohomology decompositions are rebuilt from |prod(j - f_k)| / n! and must
  reproduce every window entry and the Euler polynomial.
* P^1 verdicts (cone membership, extension feasibility) come from second
  differences of h^0 + h^1.
* Polytope vertices are the closed-form triangle for symmetric k = 2, and
  otherwise pass an exact Caratheodory hull check over the checked
  feasible points.
"""

import re
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm

from gen import supernatural_sum


def _ints(text):
    return tuple(int(x) for x in text.split(","))


def _fracs(text):
    return [Fraction(x) for x in text.split(",")]


# --- Betti tables ---------------------------------------------------------

TERM_RE = re.compile(r"term (\S+) window=(-?\d+) degrees=(\S+) values=(\S+)")


def _moments_vanish(degrees, values):
    den = lcm(*(v.denominator for v in values))
    ints = [v.numerator * (den // v.denominator) for v in values]
    for m in range(len(degrees) - 1):
        if sum((-1) ** k * x * d ** m for k, (d, x) in enumerate(zip(degrees, ints))):
            return False
    return True


def fan_le(d, e, vars_count):
    """(start, degrees) d <= e: windows ordered, degrees dominated where both
    are finite, and e runs past d's end only when d already has vars + 1 terms."""
    (ds, dd), (es, ed) = d, e
    d_end, e_end = ds + len(dd) - 1, es + len(ed) - 1
    if ds > es:
        return False
    if any(dd[i - ds] > ed[i - es] for i in range(es, min(d_end, e_end) + 1)):
        return False
    return e_end <= d_end or len(dd) == vars_count + 1


def check_betti_decomposition(out, vars_count, entries, normalized):
    problems = []
    total = {}
    seqs = []
    for line in out.splitlines():
        match = TERM_RE.fullmatch(line)
        if not match:
            return [f"unparsable line {line!r}"]
        coeff = Fraction(match.group(1))
        start = int(match.group(2))
        degrees = _ints(match.group(3))
        values = _fracs(match.group(4))
        where = f"term {len(seqs) + 1} {start}:{list(degrees)}"
        if coeff <= 0 or any(v <= 0 for v in values):
            problems.append(f"{where}: nonpositive coefficient or value")
        if len(values) != len(degrees) or not 1 <= len(degrees) <= vars_count + 1:
            problems.append(f"{where}: bad length")
            continue
        if any(a >= b for a, b in zip(degrees, degrees[1:])):
            problems.append(f"{where}: degrees not increasing")
        if not _moments_vanish(degrees, values):
            problems.append(f"{where}: moment equations fail")
        if normalized and values[0] != 1:
            problems.append(f"{where}: first entry {values[0]} != 1")
        if not normalized and (any(v.denominator != 1 for v in values)
                               or gcd(*(int(v) for v in values)) != 1):
            problems.append(f"{where}: not the smallest integral diagram")
        for k, (d, v) in enumerate(zip(degrees, values)):
            key = (start + k, d)
            total[key] = total.get(key, 0) + coeff * v
        seqs.append((start, degrees))
    for k, (d, e) in enumerate(zip(seqs, seqs[1:]), start=1):
        if not fan_le(d, e, vars_count):
            problems.append(f"terms {k}, {k + 1} break the chain order")
    total = {key: v for key, v in total.items() if v}
    if total != entries:
        problems.append("terms do not recompose the input table")
    return problems


def check_stillman(out, e, r, p_max):
    lines = out.splitlines()
    if not lines or lines[0] != "p\tdegrees\tvalues\tintegral\tcodim\tobstruction":
        return ["missing TSV header"]
    rows = lines[1:]
    if len(rows) != p_max + 1:
        return [f"{len(rows)} rows for p = 0..{p_max}"]
    problems = []
    for p, row in enumerate(rows):
        cols = row.split("\t")
        if len(cols) != 6:
            return [f"row {p}: {len(cols)} columns"]
        n = r + p * (r - 1)
        degrees = tuple([0, e] + [e * (p + i) for i in range(2, n + 1)])
        values = _fracs(cols[2])
        integral = all(v.denominator == 1 for v in values)
        verdict = "not-realizable-as-cyclic" if n > r else "inconclusive"
        if (int(cols[0]) != p or _ints(cols[1]) != degrees
                or len(values) != len(degrees) or values[:2] != [1, r]
                or not _moments_vanish(degrees, values)
                or cols[3] != ("Y" if integral else "N")
                or int(cols[4]) != n or cols[5] != verdict):
            problems.append(f"row {p} wrong: {row}")
    return problems


# --- cohomology tables ----------------------------------------------------

def table_fractions(t):
    """(entries, chi) of a gen.CohTable as Fractions."""
    return t.entries(), t.chi_fractions()


def parse_coh(text):
    """Read the coh-table exchange format: (n, window, entries, chi)."""
    n = window = chi = None
    entries = {}
    for line in text.splitlines():
        parts = line.split()
        if not parts or parts[0].startswith("#") or line == "coh-table v1":
            continue
        if parts[0] == "n":
            n = int(parts[1])
        elif parts[0] == "window":
            window = (int(parts[1]), int(parts[2]))
        elif parts[0] == "chi":
            chi = [Fraction(x) for x in parts[1:]]
        elif parts[0] == "entry":
            entries[(int(parts[1]), int(parts[2]))] = Fraction(parts[3])
        else:
            raise ValueError(f"unexpected line {line!r}")
    return n, window, entries, chi


def _chi_at(chi, j):
    return sum(c * j ** k for k, c in enumerate(chi))


def validity_problems(n, window, entries, chi):
    """Every table invariant of the exchange format, re-derived."""
    lo, hi = window
    problems = []
    alt = {}
    for (i, j), v in entries.items():
        if v <= 0 or not 0 <= i <= n or not lo <= j <= hi:
            problems.append(f"bad entry ({i}, {j}) = {v}")
        elif 1 <= i <= n - 1 and j in (lo, hi):
            problems.append(f"interior row {i} on the window edge")
        alt[j] = alt.get(j, 0) + (v if i % 2 == 0 else -v)
    if any(alt.get(j, 0) != _chi_at(chi, j) for j in range(lo, hi + 1)):
        problems.append("Euler characteristic mismatch")
    for k in range(1, n + 2):
        if _chi_at(chi, hi + k) < 0 or (-1) ** n * _chi_at(chi, lo - k) < 0:
            problems.append("negative tail")
    lead = next((c for c in reversed(chi) if c), 0)
    if lead < 0:
        problems.append("negative leading chi coefficient")
    return problems


COH_TERM_RE = re.compile(r"term (\S+) roots=(\S+)")


def check_coh_decomposition(out, table):
    terms = []
    for line in out.splitlines():
        match = COH_TERM_RE.fullmatch(line)
        if not match:
            return [f"unparsable line {line!r}"]
        q, roots = Fraction(match.group(1)), _ints(match.group(2))
        if q <= 0 or len(roots) != table.n or any(a <= b for a, b in zip(roots, roots[1:])):
            return [f"bad term {line!r}"]
        terms.append((q, roots))
    problems = []
    for k, ((_, f), (_, h)) in enumerate(zip(terms, terms[1:]), start=1):
        if any(a > b for a, b in zip(f, h)):
            problems.append(f"terms {k}, {k + 1} are not termwise nondecreasing")
    rebuilt = supernatural_sum(table.n, table.window, terms)
    if table_fractions(rebuilt) != table_fractions(table):
        problems.append("terms do not rebuild the input table")
    return problems


def p1_in_cone(window, entries, chi):
    """P^1 cone membership by second differences of T = h^0 + h^1, tails included."""
    lo, hi = window

    def T(j):
        if j > hi:
            return _chi_at(chi, j)
        if j < lo:
            return -_chi_at(chi, j)
        return entries.get((0, j), 0) + entries.get((1, j), 0)

    terms = []
    for f in range(lo, hi + 1):
        m = Fraction(T(f + 1) - 2 * T(f) + T(f - 1), 2)
        if m < 0:
            return False
        if m:
            terms.append((m, (f,)))
    return table_fractions(supernatural_sum(1, window, terms)) == (entries, list(chi))


def check_member(out, verdict):
    want = f"in-cone {'yes' if verdict else 'no'}"
    return [] if out == want + "\n" else [f"expected {want!r}, got {out.strip()!r}"]


def check_validate(out, table):
    problems = validity_problems(table.n, table.window, *table_fractions(table))
    if problems:
        return [f"the benchmark generated an invalid table: {problems[0]}"]
    return [] if out == "valid\n" else [f"validate said {out.strip()[:80]!r}"]


def check_supernatural(out, expected):
    try:
        got = parse_coh(out)
    except (ValueError, IndexError, ZeroDivisionError) as exc:
        return [f"unparsable output: {exc}"]
    want = (expected.n, expected.window) + table_fractions(expected)
    return [] if got == want else ["serialized table differs from the closed form"]


# --- extension polytopes --------------------------------------------------

def p1_bounds(A, B):
    """Caps min(h^0(B)(j), h^1(A)(j)) of the connecting maps, keyed (0, j)."""
    ea, eb = A.entries(), B.entries()
    lo, hi = A.window
    caps = {}
    for j in range(lo, hi + 1):
        cap = min(eb.get((0, j), 0), ea.get((1, j), 0))
        if cap > 0:
            caps[(0, j)] = int(cap)
    return caps


def candidate_vectors(caps, symmetric):
    """Every candidate pattern as a vector over the sorted support, lex ordered."""
    support = sorted(caps)
    if not symmetric:
        return sorted(product(*(range(caps[key] + 1) for key in support)))
    position = {key: k for k, key in enumerate(support)}
    groups = []
    seen = set()
    for key in support:
        if key in seen:
            continue
        mirror = (0, -2 - key[1])  # Serre involution on P^1: (i, j) <-> (-i, -2 - j)
        orbit = sorted({key, mirror} & set(support))
        seen.update(orbit)
        cap = min(caps[k] for k in orbit) if mirror in caps else 0
        groups.append(([position[k] for k in orbit], cap))
    out = []
    for values in product(*(range(cap + 1) for _, cap in groups)):
        vec = [0] * len(support)
        for (idxs, _), v in zip(groups, values):
            for k in idxs:
                vec[k] = v
        out.append(tuple(vec))
    return sorted(out)


def extension_feasible(A, B, support, vec):
    ea, eb = A.entries(), B.entries()
    cut = dict(zip(support, vec))
    entries = {}
    for i in (0, 1):
        for j in range(A.window[0], A.window[1] + 1):
            v = ea.get((i, j), 0) + eb.get((i, j), 0) - cut.get((0, j), 0)
            if v:
                entries[(i, j)] = v
    chi = [a + b for a, b in zip(A.chi_fractions(), B.chi_fractions())]
    return p1_in_cone(A.window, entries, chi)


def _inverse(rows):
    """Exact inverse of a square matrix, or None when it is singular."""
    size = len(rows)
    m = [[Fraction(x) for x in row] + [Fraction(int(r == c)) for c in range(size)]
         for r, row in enumerate(rows)]
    for col in range(size):
        pivot = next((r for r in range(col, size) if m[r][col]), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        m[col] = [a / m[col][col] for a in m[col]]
        for r in range(size):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return [row[size:] for row in m]


def _affine_coordinates(points):
    """Project points injectively onto coordinates of their affine hull."""
    base = points[0]
    basis = []  # reduced rows of the difference space, with pivot columns
    pivots = []
    for p in points[1:]:
        v = [Fraction(a - b) for a, b in zip(p, base)]
        for row, c in zip(basis, pivots):
            if v[c]:
                f = v[c] / row[c]
                v = [a - f * b for a, b in zip(v, row)]
        c = next((k for k, a in enumerate(v) if a), None)
        if c is not None:
            basis.append(v)
            pivots.append(c)
    return [tuple(p[c] for c in pivots) for p in points]


def hull_problems(points, vertices):
    """Exact check that ``vertices`` are exactly the extreme points of ``points``.

    Caratheodory: inside the affine hull (dimension d), a point lies in the
    convex hull of a set iff it lies in a d-simplex spanned by points of the
    set.  So every other point must lie in a simplex of claimed vertices,
    and no claimed vertex may lie in a simplex of the remaining ones.
    """
    if not set(vertices) <= set(points):
        return ["a vertex is not a feasible point"]
    coords = dict(zip(points, _affine_coordinates(points)))
    d = len(coords[points[0]])
    simplices = []
    for subset in combinations(vertices, d + 1):
        cols = [list(coords[v]) + [1] for v in subset]
        inv = _inverse([list(r) for r in zip(*cols)])
        if inv is not None:
            simplices.append((set(subset), inv))

    def inside(p, exclude=None):
        x = list(coords[p]) + [1]
        for members, inv in simplices:
            if exclude not in members and all(
                    sum(a * b for a, b in zip(row, x)) >= 0 for row in inv):
                return True
        return False

    problems = [f"point {p} lies outside the claimed hull"
                for p in points if p not in vertices and not inside(p)]
    problems += [f"claimed vertex {v} is not extreme"
                 for v in vertices if len(vertices) > 1 and inside(v, exclude=v)]
    if len(vertices) == 1 and len(points) > 1:
        problems.append("one vertex for several points")
    return problems


def check_ext_polytope(out, A, B, k, m, symmetric):
    caps = p1_bounds(A, B)
    support = sorted(caps)
    lines = out.splitlines()
    header = "# support " + " ".join(f"({i},{j})" for i, j in support)
    if lines[:2] != [header, "pattern\tfeasible\tbinding"]:
        return ["wrong header lines"]
    rows = [line.split("\t") for line in lines[2:] if not line.startswith("vertex\t")]
    vertex_rows = [_ints(line.split("\t")[1]) for line in lines
                   if line.startswith("vertex\t")]
    candidates = candidate_vectors(caps, symmetric)
    if [_ints(r[0]) for r in rows] != candidates:
        return [f"{len(rows)} candidate rows, expected {len(candidates)}"]
    problems = []
    feasible = []
    for (vec_text, flag, binding), vec in zip(rows, candidates):
        ok = extension_feasible(A, B, support, vec)
        if flag != ("Y" if ok else "N"):
            problems.append(f"pattern {vec_text} flagged {flag}")
        tight = [f"{i},{j}" for (i, j), v in zip(support, vec) if v == caps[(i, j)]]
        if binding != (";".join(tight) if ok and tight else "-"):
            problems.append(f"pattern {vec_text}: binding {binding}")
        if ok:
            feasible.append(vec)
    if vertex_rows != sorted(vertex_rows):
        problems.append("vertices not in lexicographic order")
    if symmetric and k == 2:
        if vertex_rows != [(0, 0, 0), (m, m, m), (m, 2 * m, m)]:
            problems.append(f"vertices {vertex_rows} are not the triangle for m = {m}")
    elif feasible or vertex_rows:
        problems += hull_problems(feasible, vertex_rows)
    return problems
