"""Greedy chain decomposition of Betti tables into pure diagrams.

Each round reads off the top strand (minimal degree per column from the
first nonempty column), subtracts the largest multiple of its pure diagram
that keeps the table nonnegative, and repeats.  A table lies in the cone
exactly when this empties the table along a chain of degree sequences.
"""

from dataclasses import dataclass

from .coh_decomposition import decompose_cohomology
from .diagrams import (DegreeSequence, integral_scale, is_chain,
                       normalized_diagram, smallest_integral)
from .errors import NotInCone, StrandNotIncreasing
from .tables import BettiTable, combine, first_twists, peel_largest


@dataclass(frozen=True)
class BettiDecomposition:
    """Ordered (coefficient, pure diagram) terms; sequences form a chain."""

    terms: tuple

    def sequences(self):
        return [diagram.sequence for _, diagram in self.terms]

    def __iter__(self):
        return iter(self.terms)

    def __len__(self):
        return len(self.terms)


def _strand_info(b):
    # Returns the top strand plus the column (or None) at which a nonempty
    # column with non-increasing minimum forced truncation.
    minima = first_twists(b)
    a = min(minima)
    degrees = [minima[a]]
    truncated_at = None
    i = a + 1
    while len(degrees) < b.vars + 1:
        if i not in minima:
            break
        if minima[i] <= degrees[-1]:
            truncated_at = i
            break
        degrees.append(minima[i])
        i += 1
    return DegreeSequence(a, tuple(degrees), b.vars), truncated_at


def min_strand(b):
    """Degree sequence of the table's top strand.

    Starts at the first nonempty column with that column's minimal degree and
    extends through consecutive columns while the minima strictly increase,
    stopping at v+1 terms.
    """
    if b.is_zero():
        raise ValueError("zero table has no strand")
    return _strand_info(b)[0]


def peel(b, seq):
    """One greedy step against the normalized pure diagram of ``seq``.

    q is the minimum ratio along the strand, so the remainder stays
    nonnegative and at least one strand entry reaches zero.
    """
    return _peel(b, normalized_diagram(seq))


def _peel(b, pi):
    q, binding, remainder = peel_largest(b, pi.table())
    if q < 0:
        raise ValueError(f"scale factor must be nonnegative, got {q}")
    if q == 0:
        raise ValueError(f"strand position {binding} absent from table")
    return q, remainder


def decompose(b, normalized=False):
    """Write ``b`` as a positive rational chain combination of pure diagrams.

    Coefficients are reported against smallest-integral diagrams unless
    ``normalized`` asks for first-entry-1 diagrams.  Raises NotInCone (or its
    StrandNotIncreasing refinement) when the strands fail to form a chain.
    Each peel (q > 0) zeroes its binding cell and adds none, so the loop ends.
    """
    terms = []
    seqs = []
    truncations = []
    work = b
    while not work.is_zero():
        seq, truncated_at = _strand_info(work)
        pi = normalized_diagram(seq)
        q, work = _peel(work, pi)
        if normalized:
            terms.append((q, pi))
        else:
            s = integral_scale(pi.values)
            terms.append((q / s, smallest_integral(pi)))
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
