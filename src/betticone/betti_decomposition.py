"""Greedy chain decomposition of Betti tables into pure diagrams.

Each round reads off the top strand (minimal degree per column from the
first nonempty column), subtracts the largest multiple of its pure diagram
that keeps the table nonnegative, and repeats.  A table lies in the cone
exactly when this empties the table along a chain of degree sequences.
"""

from heapq import heapify, heappop

from .coh_decomposition import decompose_cohomology
from .diagrams import (DegreeSequence, PureDiagram, integral_diagram, is_chain,
                       normalized_diagram)
from .errors import NotInCone, StrandNotIncreasing
from .tables import BettiTable, Record, combine, first_twists


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
    # The top strand of a table with the given column minima, plus the
    # column (or None) at which a nonempty column with non-increasing
    # minimum forced truncation.
    a = min(minima)
    degrees = [minima[a]]
    truncated_at = None
    i = a + 1
    while len(degrees) < vars + 1:
        if i not in minima:
            break
        if minima[i] <= degrees[-1]:
            truncated_at = i
            break
        degrees.append(minima[i])
        i += 1
    return DegreeSequence(a, tuple(degrees), vars), truncated_at


def min_strand(b):
    """Degree sequence of the table's top strand.

    Starts at the first nonempty column with that column's minimal degree and
    extends through consecutive columns while the minima strictly increase,
    stopping at v+1 terms.
    """
    if b.is_zero():
        raise ValueError("zero table has no strand")
    return _strand_info(first_twists(b), b.vars)[0]


def peel(b, seq):
    """One greedy step against the normalized pure diagram of ``seq``.

    q is the minimum ratio along the strand, so the remainder stays
    nonnegative and at least one strand entry reaches zero.
    """
    work = dict(b.entries)
    q = _peel(work, normalized_diagram(seq))
    return q, BettiTable(b.vars, work)


def _peel(work, pi):
    # peel on a mutable cell map: q * pi comes off the strand's cells only,
    # ties for the binding cell going to the smallest one.
    seq = pi.sequence
    strand = [((seq.start + k, d), v)
              for k, (d, v) in enumerate(zip(seq.degrees, pi.values))]
    q, binding = min((work.get(key, 0) / v, key) for key, v in strand)
    if q < 0:
        # reported against the first-entry-1 diagram, whichever pi peels
        raise ValueError(f"scale factor must be nonnegative, got {q * pi.values[0]}")
    if q == 0:
        raise ValueError(f"strand position {binding} absent from table")
    for key, v in strand:
        rest = work[key] - q * v
        if rest:
            work[key] = rest
        else:
            del work[key]
    return q


def _minima(work, columns):
    # Smallest stored degree of every nonempty column.  Each column keeps a
    # min-heap of its degrees; a degree whose cell was peeled away is
    # dropped when it reaches the top.
    minima = {}
    for i, heap in list(columns.items()):
        while heap and (i, heap[0]) not in work:
            heappop(heap)
        if heap:
            minima[i] = heap[0]
        else:
            del columns[i]
    return minima


def decompose(b, normalized=False):
    """Write ``b`` as a positive rational chain combination of pure diagrams.

    Coefficients are reported against smallest-integral diagrams unless
    ``normalized`` asks for first-entry-1 diagrams.  Raises NotInCone (or its
    StrandNotIncreasing refinement) when the strands fail to form a chain.
    Each peel (q > 0) zeroes its binding cell and adds none, so the loop
    ends, and the column heaps never need a degree added.  The greedy peels
    the integral diagram w; the normalized one is w / w_0, with coefficient
    q w_0.
    """
    terms = []
    seqs = []
    truncations = []
    work = dict(b.entries)
    columns = {}
    for i, d in work:
        columns.setdefault(i, []).append(d)
    for heap in columns.values():
        heapify(heap)
    while work:
        seq, truncated_at = _strand_info(_minima(work, columns), b.vars)
        w = integral_diagram(seq)
        q = _peel(work, w)
        if normalized:
            w0 = w.values[0]
            terms.append((q * w0, PureDiagram(seq, tuple(v / w0 for v in w.values))))
        else:
            terms.append((q, w))
        seqs.append(seq)
        truncations.append(truncated_at)
    for step, (d, e) in enumerate(zip(seqs, seqs[1:]), start=1):
        if not is_chain([d, e]):
            detail = f"strands {d} and {e} are not comparable"
            if truncations[step - 1] is not None:
                raise StrandNotIncreasing(step, truncations[step - 1], detail)
            raise NotInCone(step, detail)
    return BettiDecomposition(tuple(terms))


def recompose(decomposition, vars=1):
    """Exact sum of coefficient * diagram; inverse of decompose."""
    terms = list(decomposition.terms)
    total = BettiTable(terms[0][1].sequence.vars if terms else vars)
    for coeff, diagram in terms:
        total = combine(total, diagram.table(), coeff)
    return total


def is_member(t):
    """Cone membership of a Betti or cohomology table: does the matching
    greedy decomposition succeed?"""
    try:
        (decompose if isinstance(t, BettiTable) else decompose_cohomology)(t)
    except NotInCone:
        return False
    return True
