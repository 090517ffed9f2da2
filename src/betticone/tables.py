"""Sparse exact tables: graded Betti tables and sheaf cohomology tables.

All values are ``fractions.Fraction`` (arbitrary precision, always reduced,
positive denominator); nothing in this package touches floating point.
Table arithmetic never stores a zero entry.  The constructors and the
parser keep the entries they are given, zeros included, and ``validate``
(as ``ext-polytope`` on A and B) reports a stored zero as not positive.

Table arithmetic is one primitive, ``combine`` (a + coeff * b over
``CohomologyTable.cells``), costing the two supports plus a run of chi per
tail where the windows differ (``_run``: n + 1 values, then sums of their
differences), never the (n + 1) x window grid.  Two cohomology tables are read over their union window by ``_union_cells``
alone, and denominators are cleared by ``_cleared`` alone, on reduced int
(numerator, denominator) pairs.  ``first_twists`` reads the smallest
stored twist (degree) of every row (column).  The greedies subtract the
largest multiple of a unit table in place on a working remainder instead
of building a table per step.

``validate`` reads ``Numerators``, the sparse working form of a cohomology
table: int numerators over one common denominator.  Every verdict reads
``Rows``, a dense form of the same ints, always over the window widened by
n + 1 twists past each edge, that ``coh_decomposition._valid`` returns for
a valid table: the cohomology greedy, ``peel_supernatural``, the P^1 oracle
and the extension's candidates.  Peels and cancellations change a ``Rows``
(or a copy of one), never the ``Numerators`` it was read from, and
``Rows.table`` cuts it back to the window it was widened from; values leave
both forms as ``Fraction``.  The table forms share reads and printing
(``_TwistReads``).  Each entry point builds the ``Numerators`` once:
``validate``, ``decompose_cohomology``, ``is_member`` and ``p1_oracle``
from the table they are given (or take this form as it is),
``peel_supernatural`` from its table, ``decide_patterns`` from A and B
(for ``_own_violations``, in ``extension._box``) and from the split
table, and the CLI's ``member``, ``validate`` and ``coh-decompose``
straight from the exchange reader's int pairs, without a
``CohomologyTable``; so every invariant check reads ints.  The Betti
greedy keeps a reduced int (numerator, denominator) pair per cell instead
(see ``betti_decomposition``): a common denominator would rescale the
whole table whenever a step's coefficient brings a new one, while a pair
per cell keeps each peel O(strand).
``decompose``, ``peel`` and ``is_member`` take the pairs off a
``BettiTable``, and the CLI's ``member`` reads them from the file.  Reduced
pairs become ``Fraction``s through ``_fraction``, with no second gcd, and
a whole table of them (the exchange reader's or the Betti greedy's)
becomes a table through ``_table``.

``Record`` is the base of the package's small immutable value types
(both tables, degree and root sequences, pure diagrams, decompositions).
"""

from fractions import Fraction
from functools import cache
from itertools import accumulate, islice, repeat
from math import gcd, lcm
from operator import attrgetter, sub

from .errors import DimensionMismatch, NegativeEntry

ZERO = Fraction(0)


def _as_entries(entries):
    return {(int(i), int(j)): Fraction(v) for (i, j), v in dict(entries).items()}


class Record:
    """Base of the package's small immutable value types.

    A subclass names its fields, in order, as ``__slots__``.  They are set
    positionally or by keyword, bound as Python binds a function's
    arguments, then ``__post_init__`` checks them and may normalize them
    through ``object.__setattr__``.  Assignment raises AttributeError;
    equality and hash go by exact class and field values, and the repr
    reads ``Name(field=value, ...)``.  A subclass with default
    arguments (the tables) writes its own ``__init__`` and hands the finished
    fields to ``Record.__init__``; ``_trusted`` sets fields the caller has
    already put in that form.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        # Once per class: the slots' own setters, which bypass __setattr__,
        # and a getter of the field values (a bare value for one field).
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)
        cls._key = attrgetter(*cls.__slots__)

    def __init__(self, *args, **kwargs):
        setters = self._setters
        if kwargs or len(args) != len(setters):
            args = _binder(type(self))(*args, **kwargs)
        for set_field, value in zip(setters, args):
            set_field(self, value)
        self.__post_init__()

    @classmethod
    def _trusted(cls, *fields):
        # The fields in slot order, set as given: no checks, no normalization.
        r = object.__new__(cls)
        for set_field, value in zip(cls._setters, fields):
            set_field(r, value)
        return r

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # copy and pickle rebuild through __init__, since assignment raises.
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


@cache
def _binder(cls):
    # def Name(fields): return fields, -- through which Python binds, or
    # refuses in its own words, a call that is not exactly positional.
    fields = ", ".join(cls.__slots__)
    scope = {}
    exec(f"def {cls.__name__}({fields}): return {fields},", scope)
    return scope[cls.__name__]


class BettiTable(Record):
    """Finitely supported map (homological index, internal degree) -> rational.

    ``vars`` is the number of polynomial ring variables; it bounds strand
    lengths during decomposition.  Homological indices may be any integers
    (complexes shift their window), internal degrees likewise.
    """

    __slots__ = ("vars", "entries")

    def __init__(self, vars, entries=()):
        if vars < 1:
            raise ValueError(f"vars must be positive, got {vars}")
        super().__init__(int(vars), _as_entries(entries))

    def value(self, i, j):
        return self.entries.get((i, j), ZERO)

    def support(self):
        return sorted(self.entries)

    def is_zero(self):
        return not self.entries

    __hash__ = None

    def __repr__(self):
        cells = ", ".join(f"({i},{j}): {v}" for (i, j), v in sorted(self.entries.items()))
        return f"BettiTable(vars={self.vars}, {{{cells}}})"


def _differences(xs):
    """The forward differences xs[k + 1] - xs[k] of a list."""
    return list(map(sub, xs[1:], xs))


def _run(at, lo, hi, n):
    """at(j) for j = lo..hi, lazily, for a polynomial ``at`` of degree <= n: ``at``
    is called at the first n + 1 twists only, and the rest is summed from their
    difference table, whose n-th row is constant (Knuth, TAOCP 2, 4.6.4)."""
    rows = [[at(j) for j in range(lo, min(hi, lo + n) + 1)]]
    while rows[-1]:
        rows.append(_differences(rows[-1]))
    run = repeat(0)
    for xs in reversed(rows[:-1]):
        run = accumulate(run, initial=xs[0])
    return islice(run, max(hi - lo + 1, 0))


class _TwistReads:
    """Reads of a cohomology table at every twist, exact in the subclass's
    numbers (``CohomologyTable``'s Fractions, ``Numerators``' ints).

    Outside the ``window`` row 0 carries chi(j) to the right, row n carries
    (-1)^n chi(j) to the left, and all other rows vanish; ``value`` and
    ``cells`` are the only code that knows this.
    """

    __slots__ = ()
    _zero = 0

    def chi_at(self, j):
        """chi(j) = sum c_k j^k, by Horner's rule."""
        total = 0
        for c in reversed(self.chi):
            total = total * j + c
        return total

    def value(self, i, j):
        """Entry at (i, j), materializing the two polynomial tails."""
        lo, hi = self.window
        if lo <= j <= hi:
            return self.entries.get((i, j), self._zero)
        if j > hi:
            return self.chi_at(j) if i == 0 else self._zero
        if i == self.n:
            return self.chi_at(j) if self.n % 2 == 0 else -self.chi_at(j)
        return self._zero

    def cells(self, lo, hi):
        """Nonzero ``value``s on rows 0..n over [lo, hi], which contains our
        window; costs the support plus one run of chi (``_run``) per tail."""
        n = self.n
        w_lo, w_hi = self.window
        out = {(i, j): v for (i, j), v in self.entries.items()
               if v and 0 <= i <= n and w_lo <= j <= w_hi}
        if any(self.chi):
            for row, sign, first, last in ((0, 1, w_hi + 1, hi), (n, (-1) ** n, lo, w_lo - 1)):
                out.update(((row, j), sign * v)
                           for j, v in enumerate(_run(self.chi_at, first, last, n), first) if v)
        return out

    def is_zero(self):
        return not self.entries and not any(self.chi)


class CohomologyTable(Record, _TwistReads):
    """Cohomology rows 0..n over a finite twist window, plus the Euler polynomial.

    ``chi`` holds monomial-basis coefficients c_0..c_n of chi(j) = sum c_k j^k.
    Outside the window the table continues by chi's two tails, which
    ``value`` and ``cells`` (from ``_TwistReads``) materialize.
    """

    __slots__ = ("n", "window", "entries", "chi")
    _zero = ZERO

    def __init__(self, n, window, entries=(), chi=None):
        if n < 1:
            raise ValueError(f"n must be positive, got {n}")
        lo, hi = window
        if lo > hi:
            raise ValueError(f"empty window {window}")
        if chi is None:
            chi = [0] * (n + 1)
        chi = tuple(Fraction(c) for c in chi)
        if len(chi) != n + 1:
            raise ValueError(f"chi needs {n + 1} coefficients, got {len(chi)}")
        super().__init__(int(n), (int(lo), int(hi)), _as_entries(entries), chi)

    def support(self):
        return sorted(self.entries)

    def __eq__(self, other):
        """Semantic equality: same table as a function, windows may differ."""
        if not isinstance(other, CohomologyTable):
            return NotImplemented
        if self.n != other.n or self.chi != other.chi:
            return False
        _, mine, theirs = _union_cells(self, other)
        return mine == theirs

    def __repr__(self):
        cells = ", ".join(f"({i},{j}): {v}" for (i, j), v in sorted(self.entries.items()))
        return (f"CohomologyTable(n={self.n}, window={self.window}, "
                f"chi={[str(c) for c in self.chi]}, {{{cells}}})")


def _union_cells(a, b):
    """The union (lo, hi) of two cohomology tables' windows and each one's
    ``cells`` on it; tables over different P^n raise DimensionMismatch."""
    if a.n != b.n:
        raise DimensionMismatch(f"n {a.n} != {b.n}")
    lo = min(a.window[0], b.window[0])
    hi = max(a.window[1], b.window[1])
    return (lo, hi), a.cells(lo, hi), b.cells(lo, hi)


def _cleared(pairs):
    """(ints, den): a list of reduced (numerator, positive denominator) int
    pairs, as ``as_integer_ratio`` gives them for ints and Fractions, as int
    numerators over their least common denominator den > 0."""
    den = lcm(*(d for _, d in pairs))
    return [num * (den // d) for num, d in pairs], den


def _fraction(num, den=1):
    # The Fraction num / den of coprime ints, den > 0, without Fraction's
    # checks and gcd.  This relies on CPython's fractions module, where a
    # Fraction is its two slots, _numerator and _denominator, and nothing
    # else (from 3.12 on, Fraction._from_coprime_ints does the same).
    # tests/test_tables.py checks that such a value hashes, compares and
    # computes as Fraction(num, den) does.
    f = object.__new__(Fraction)
    f._numerator, f._denominator = num, den
    return f


def _table(cls, fields, pairs):
    # The table that the exchange reader's (cls, fields, pairs) stand for:
    # its class, its fields besides the entries, its reduced int pairs.
    entries = {key: _fraction(*pair) for key, pair in pairs.items()}
    if cls is BettiTable:
        return BettiTable._trusted(*fields, entries)
    n, window, chi = fields
    return CohomologyTable._trusted(n, window, entries, chi)


def _reduced(num, den):
    # The Fraction num / den for ints, den > 0, from one gcd.
    g = gcd(num, den)
    return _fraction(num // g, den // g)


def chi_eval(t, j):
    """Exact value of the Euler polynomial of a cohomology table at twist j."""
    return t.chi_at(j)


def combine(a, b, coeff=1, nonneg=False):
    """Entrywise a + coeff * b; cohomology windows are unioned, tails filled in.

    Copies a's cells once, then visits b's cells in sorted (i, j) order;
    with ``nonneg`` the first cell that goes negative raises NegativeEntry
    (when a is nonnegative, that is the first negative cell of the sum).
    """
    coeff = Fraction(coeff)
    if isinstance(a, BettiTable) and isinstance(b, BettiTable):
        if a.vars != b.vars:
            raise DimensionMismatch(f"vars {a.vars} != {b.vars}")
        merged, b_cells = dict(a.entries), b.entries
    elif isinstance(a, CohomologyTable) and isinstance(b, CohomologyTable):
        window, merged, b_cells = _union_cells(a, b)
    else:
        raise DimensionMismatch("cannot combine a Betti table with a cohomology table")
    for key, v in sorted(b_cells.items()):
        s = merged.get(key, ZERO) + coeff * v
        if nonneg and s < 0:
            raise NegativeEntry(key[0], key[1], s)
        if s == 0:
            merged.pop(key, None)
        else:
            merged[key] = s
    if isinstance(a, BettiTable):
        return BettiTable._trusted(a.vars, merged)
    chi = tuple(x + coeff * y for x, y in zip(a.chi, b.chi))
    return CohomologyTable._trusted(a.n, window, merged, chi)


def first_twists(t):
    """Each stored row i (a Betti column) mapped to its smallest stored
    twist j (internal degree)."""
    first = {}
    for (i, j) in t.entries:
        if i not in first or j < first[i]:
            first[i] = j
    return first


def add_tables(a, b):
    """Entrywise sum.  Cohomology windows are unioned with tails materialized."""
    return combine(a, b)


def scale(t, c):
    """Entrywise multiple by a nonnegative rational; c = 0 gives the zero table."""
    c = Fraction(c)
    if c < 0:
        raise ValueError(f"scale factor must be nonnegative, got {c}")
    if isinstance(t, BettiTable):
        return combine(BettiTable(t.vars), t, c)
    return combine(CohomologyTable(t.n, t.window), t, c)


def subtract_checked(a, b):
    """Entrywise a - b, refusing to go negative on any cell of b; its tails
    beyond the union window are the caller's concern."""
    return combine(a, b, -1, nonneg=True)


def validate(t):
    """Check every type invariant (``_own_violations``, then the signs of
    chi's tails and lead); returns the (possibly empty) violation list.  A
    cohomology table may be given as its ``Numerators`` instead."""
    if isinstance(t, BettiTable):
        return [f"entry ({i}, {j}) = {v} is not positive"
                for (i, j), v in sorted(t.entries.items()) if v <= 0]

    w = t if isinstance(t, Numerators) else Numerators(t)
    violations = _own_violations(w)
    if not any(w.chi):  # a zero chi's tails vanish
        return violations
    n, (lo, hi) = w.n, w.window
    # The tails' signs, n + 1 twists past each window edge, and chi's lead.
    for k in range(1, n + 2):
        right = w.value(0, hi + k)
        if right < 0:
            violations.append(f"right tail negative: chi({hi + k}) = {w.fraction(right)}")
        left = w.value(n, lo - k)
        if left < 0:
            violations.append(f"left tail negative: (-1)^{n} chi({lo - k}) = "
                              f"{w.fraction(left)}")
    lead = next(c for c in reversed(w.chi) if c)
    if lead < 0:
        violations.append(f"leading chi coefficient {w.fraction(lead)} is negative")
    return violations


def _own_violations(t):
    """``validate``'s checks of a cohomology table's ``Numerators`` t on its
    own window, in its words (values as ``fraction`` gives them): each
    stored entry positive, inside rows 0..n and the window, and on no
    interior row at a window edge; then the Euler identity at every twist of
    the window.  The tails are not read."""
    violations, alt = [], {}
    n, (lo, hi) = t.n, t.window
    for (i, j), v in sorted(t.entries.items()):
        if v <= 0:
            violations.append(f"entry ({i}, {j}) = {t.fraction(v)} is not positive")
        if not 0 <= i <= n:
            violations.append(f"entry ({i}, {j}) lies outside rows 0..{n}")
        elif not lo <= j <= hi:
            violations.append(f"entry ({i}, {j}) lies outside the window [{lo}, {hi}]")
        else:
            if 1 <= i <= n - 1 and (j == lo or j == hi):
                violations.append(f"interior row {i} touches the window edge at j = {j}")
            alt[j] = alt.get(j, 0) + (v if i % 2 == 0 else -v)
    # A zero chi can only mismatch where the alternating sum is supported.
    chis = enumerate(_run(t.chi_at, lo, hi, n), lo) if any(t.chi) else zip(sorted(alt), repeat(0))
    for j, chi in chis:
        if (total := alt.get(j, 0)) != chi:
            violations.append(f"Euler mismatch at j = {j}: alternating sum "
                              f"{t.fraction(total)} != chi {t.fraction(chi)}")
    return violations


class Numerators(_TwistReads):
    """Sparse working form of a cohomology table, not exported: int numerators
    over one positive common denominator ``den``, for the stored entries and
    for chi.

    Values leave it as ``Fraction`` through ``fraction``.  No code changes
    one once it is built: ``validate`` reads it, and the verdicts read the
    ``Rows`` that ``_valid`` fills from its ``cells``.  ``first_twists``,
    ``corner_roots`` and ``validate`` take either a table or this form, and
    so do the reads ``chi_at``, ``value``, ``cells`` and ``is_zero``
    (``_TwistReads``), which give numerators here.
    """

    __slots__ = ("n", "window", "den", "entries", "chi")

    def __init__(self, t):
        """The working form of t: a ``CohomologyTable``, or the exchange
        reader's (n, window, chi, pairs), each entry a reduced int
        (num, den) pair."""
        if isinstance(t, CohomologyTable):
            t = t.n, t.window, t.chi, {key: v.as_integer_ratio()
                                       for key, v in t.entries.items()}
        self.n, self.window, chi, pairs = t
        ints, self.den = _cleared([*pairs.values(), *(c.as_integer_ratio() for c in chi)])
        self.entries = dict(zip(pairs, ints))
        self.chi = ints[len(pairs):]

    def fraction(self, v):
        """The value whose numerator over ``den`` is v."""
        return Fraction(v, self.den)


class Rows:
    """Dense working form of a ``Numerators``, not exported: its ``cells`` on
    rows 0..n over its window widened by n + 1 twists past each edge (the
    tail cells included), back to back in one int list, row i from
    i * ``width``, zeros included, with its chi and ``den``.  Peels and
    cancellations only lower cells in place."""

    __slots__ = ("n", "window", "width", "den", "chi", "cells")

    def __init__(self, work):
        n, (lo, hi) = work.n, work.window
        lo, hi = lo - n - 1, hi + n + 1
        self.n, self.window, self.den, self.chi = n, (lo, hi), work.den, work.chi
        self.width = width = hi - lo + 1
        self.cells = cells = [0] * ((n + 1) * width)
        for (i, j), v in work.cells(lo, hi).items():
            cells[i * width + j - lo] = v

    def copy(self):
        """An independent working copy."""
        new = Rows.__new__(Rows)
        new.n, new.window, new.width, new.den, new.chi, new.cells = (
            self.n, self.window, self.width, self.den, self.chi, self.cells[:])
        return new

    def table(self):
        """The ``CohomologyTable`` it stands for, on the window it was widened from."""
        n, w = self.n, self.width
        lo, hi = self.window[0] + n + 1, self.window[1] - n - 1
        return CohomologyTable._trusted(n, (lo, hi), {
            (i, j): Fraction(v, self.den) for i in range(n + 1)
            for j, v in enumerate(self.cells[i * w + n + 1:(i + 1) * w - n - 1], lo) if v},
            tuple(Fraction(c, self.den) for c in self.chi))
