"""Greedy chain decomposition of Betti tables into pure diagrams.

Each round reads off the top strand (minimal degree per column from the
first nonempty column), subtracts the largest multiple of its pure diagram
that keeps the table nonnegative, and repeats.  A table lies in the cone
exactly when this empties the table along a chain of degree sequences.

The greedy works on ints: each cell's value is held as a reduced
(numerator, positive denominator) pair, and a peel reads and rewrites the
strand's cells only, with one gcd per cell, so it costs O(strand) whatever
the table's support.  ``_decompose`` is the greedy on that pair form: it
yields each peel's strand, coefficient and diagram as ints.  ``decompose``
builds its ``Fraction`` terms from them with one gcd per fraction, and
``is_member`` builds none; the CLI's ``member`` reads a file straight into
the pair form (``exchange._read``).

Every strand cell is its column's minimum, so a peel can only raise a
column's least degree and never refills an emptied column.  Hence column
minima come from one stack of degrees per column, smallest on top, popped
where a peel zeroed a cell; and each strand starts no earlier than the last
and dominates it on their shared columns.  The chain can then break only
where a strand runs past the end of a last strand shorter than vars + 1,
and the greedy refuses there, before peeling it.
"""

from fractions import Fraction
from math import gcd

from .coh_decomposition import _decompose as _coh_decompose, _empties, _valid
from .diagrams import DegreeSequence, _gap_products, _integral, _integral_values, _normalized
from .errors import InvalidTable, NotInCone, StrandNotIncreasing
from .tables import BettiTable, Record, _reduced, _table, combine, first_twists, validate


class BettiDecomposition(Record):
    """Ordered (coefficient, pure diagram) terms; sequences form a chain."""

    __slots__ = ("terms",)

    def sequences(self):
        return [diagram.sequence for _, diagram in self.terms]

    def __iter__(self):
        return iter(self.terms)

    def __len__(self):
        return len(self.terms)


def _strand_info(minima, vars):
    # The top strand of a table with the given column minima: strictly
    # increasing and at most vars + 1 long by construction, so unchecked.
    # A shorter one stops at column end + 1, empty or not above its end.
    a = min(minima)
    degrees = [minima[a]]
    i = a + 1
    while len(degrees) < vars + 1 and i in minima and minima[i] > degrees[-1]:
        degrees.append(minima[i])
        i += 1
    return DegreeSequence._trusted(a, tuple(degrees), vars)


def min_strand(b):
    """Degree sequence of the table's top strand.

    Starts at the first nonempty column with that column's minimal degree and
    extends through consecutive columns while the minima strictly increase,
    stopping at v+1 terms.
    """
    if b.is_zero():
        raise ValueError("zero table has no strand")
    return _strand_info(first_twists(b), b.vars)


def peel(b, seq):
    """One greedy step against the normalized pure diagram of ``seq``.

    q is the minimum ratio along the strand, so the remainder stays
    nonnegative and at least one strand entry reaches zero.
    """
    work = _pairs(b)
    w = _integral_values(_gap_products(seq.degrees))
    n, d = _peel(work, seq, w)
    # the normalized diagram is w / w_0
    return Fraction(n * w[0], d), _table(BettiTable, (b.vars,), work)


def _pairs(b):
    # The greedy's working form of a table: cell -> (numerator, denominator).
    return {key: v.as_integer_ratio() for key, v in b.entries.items()}


def _peel(work, seq, w):
    # Subtract the largest multiple q of the diagram with positive int
    # entries w along seq's strand from the working form in place, and
    # return q as an int pair (n, d).  A cell N / D has ratio N / (D w_k);
    # the least one binds, found by cross-multiplication, ties going to the
    # first (smallest) cell.  Each strand cell becomes N / D - q w_k with
    # one gcd, and the binding cell is dropped.
    start = seq.start
    strand = [(start + k, dk) for k, dk in enumerate(seq.degrees)]
    binding = None
    for key, wk in zip(strand, w):
        N, D = work.get(key, (0, 1))
        if binding is None or N * d < n * D * wk:
            binding, n, d = key, N, D * wk
    if n < 0:
        # reported against the first-entry-1 diagram, whichever w peels
        raise ValueError(f"scale factor must be nonnegative, got {Fraction(n * w[0], d)}")
    if n == 0:
        raise ValueError(f"strand position {binding} absent from table")
    for key, wk in zip(strand, w):
        N, D = work[key]
        rest = N * d - n * wk * D
        if rest:
            D *= d
            g = gcd(rest, D)
            work[key] = (rest // g, D // g)
        else:
            del work[key]
    return n, d


def decompose(b, normalized=False):
    """Write ``b`` as a positive rational chain combination of pure diagrams.

    Coefficients are reported against smallest-integral diagrams unless
    ``normalized`` asks for first-entry-1 diagrams.  Raises InvalidTable on
    an entry that is not positive, and NotInCone (or its
    StrandNotIncreasing refinement) before peeling the first strand that
    breaks the chain, so its step is the number of peels done.  The greedy
    peels the integral diagram w; the normalized one is w / w_0, with
    coefficient q w_0.
    """
    terms = []
    for seq, n, d, D, w in _decompose(b.vars, _pairs(b)):
        if normalized:
            terms.append((_reduced(n * w[0], d), _normalized(seq, D)))
        else:
            terms.append((_reduced(n, d), _integral(seq, w)))
    return BettiDecomposition(tuple(terms))


def _decompose(vars, work):
    # decompose's greedy on a working form (``_pairs``) over vars variables,
    # which it empties: per peel, the strand seq, q = n / d against the
    # integral diagram, the gap products D and the integral entries w.  Each
    # peel (q > 0) zeroes its binding cell and adds none, so the loop ends;
    # a refusal's step is the number of peels done.
    if any(N <= 0 for N, _ in work.values()):
        raise InvalidTable(validate(_table(BettiTable, (vars,), work)))
    columns = {}
    for i, d in sorted(work, reverse=True):
        columns.setdefault(i, []).append(d)
    minima = {i: stack[-1] for i, stack in columns.items()}
    step, last = 0, None
    while work:
        seq = _strand_info(minima, vars)
        # the one fan-order clause a peel can break (module docstring); a
        # short last strand stopped at column last.end + 1, which its peel
        # left alone
        if last is not None and seq.end > last.end and len(last.degrees) <= vars:
            detail = f"strands {last} and {seq} are not comparable"
            if last.end + 1 in minima:
                raise StrandNotIncreasing(step, last.end + 1, detail)
            raise NotInCone(step, detail)
        D = _gap_products(seq.degrees)
        w = _integral_values(D)
        n, d = _peel(work, seq, w)
        yield seq, n, d, D, w
        step, last = step + 1, seq
        for i in range(seq.start, seq.start + len(seq.degrees)):
            if (i, minima[i]) not in work:
                stack = columns[i]
                stack.pop()
                if stack:
                    minima[i] = stack[-1]
                else:
                    del columns[i], minima[i]


def recompose(decomposition, vars=1):
    """Exact sum of coefficient * diagram; inverse of decompose."""
    terms = list(decomposition.terms)
    total = BettiTable(terms[0][1].sequence.vars if terms else vars)
    for coeff, diagram in terms:
        total = combine(total, diagram.table(), coeff)
    return total


def is_member(t):
    """Cone membership of a Betti or cohomology table (or its
    ``Numerators``): does the matching greedy decomposition succeed?  Its
    steps are drained without building a term."""
    if isinstance(t, BettiTable):
        return _empties(_decompose(t.vars, _pairs(t)))
    return _empties(_coh_decompose(_valid(t)))
