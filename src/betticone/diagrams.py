"""Degree sequences and the pure diagrams they determine.

A degree sequence is a strictly increasing run of integers d_a, ..., d_{a+l}
attached to consecutive homological positions starting at ``start`` = a.
Positions past the last entry are implicitly infinite (a shorter diagram),
and the run can never exceed vars + 1 terms.  Each sequence determines, up
to scale, one pure diagram: the extremal rays of the cone of Betti tables.
"""

from enum import Enum
from fractions import Fraction
from math import gcd, lcm

from .errors import DimensionMismatch
from .tables import BettiTable, Record, _cleared, _fraction, _reduced


class DegreeSequence(Record):
    __slots__ = ("start", "degrees", "vars")

    def __post_init__(self):
        object.__setattr__(self, "start", int(self.start))
        object.__setattr__(self, "degrees", tuple(int(d) for d in self.degrees))
        object.__setattr__(self, "vars", int(self.vars))
        if self.vars < 1:
            raise ValueError(f"vars must be positive, got {self.vars}")
        if not 1 <= len(self.degrees) <= self.vars + 1:
            raise ValueError(f"length {len(self.degrees)} not in 1..{self.vars + 1}")
        for a, b in zip(self.degrees, self.degrees[1:]):
            if a >= b:
                raise ValueError(f"degrees not strictly increasing: {self.degrees}")

    def __len__(self):
        return len(self.degrees)

    @property
    def end(self):
        """Last homological position carrying a finite degree."""
        return self.start + len(self.degrees) - 1

    def __str__(self):
        body = ",".join(str(d) for d in self.degrees)
        return f"{self.start}:[{body}]" if self.start else body


class PureDiagram(Record):
    __slots__ = ("sequence", "values")

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(Fraction(v) for v in self.values))
        if len(self.values) != len(self.sequence):
            raise ValueError("one value per degree required")
        if any(v <= 0 for v in self.values):
            raise ValueError(f"diagram values must be positive: {self.values}")

    def table(self):
        """The diagram as a sparse Betti table."""
        seq = self.sequence
        entries = {(seq.start + k, d): v
                   for k, (d, v) in enumerate(zip(seq.degrees, self.values))}
        return BettiTable(seq.vars, entries)


class Ordering(Enum):
    LESS_EQ = "<="
    GREATER_EQ = ">="
    EQUAL = "=="
    INCOMPARABLE = "<>"


def _gap_products(d):
    # D_k = prod_{j != k} |d_j - d_k| for strictly increasing degrees d; the
    # pure diagram of d is proportional to 1 / D_k.  Each gap d_j - d_k
    # (k < j) is taken once and multiplied into both D_k and D_j.
    D = [1] * len(d)
    for k, dk in enumerate(d):
        for j in range(k + 1, len(d)):
            gap = d[j] - dk
            D[k] *= gap
            D[j] *= gap
    return D


def normalized_diagram(seq):
    """The pure diagram of ``seq`` normalized so its first entry is 1.

    Entry k is D_0 / D_k for D_k = prod_{j != k} |d_j - d_k|, the unique
    positive solution of the moment equations
    sum_k (-1)^k beta_k d_k^m = 0 for m = 0..l-1 with beta_0 = 1.
    """
    return _normalized(seq, _gap_products(seq.degrees))


def _normalized(seq, D):
    # normalized_diagram from the gap products D of seq; its entries are
    # positive by construction, so the constructor's checks are skipped.
    return PureDiagram._trusted(seq, tuple(_reduced(D[0], Dk) for Dk in D))


def integral_diagram(seq):
    """The smallest pure diagram of ``seq`` with all-integer entries.

    Entry k is L / D_k for L = lcm(D); these entries already have gcd 1,
    since gcd_k(L / D_k) = L / lcm(D).
    """
    return _integral(seq, _integral_values(_gap_products(seq.degrees)))


def _integral_values(D):
    # The int entries L // D_k of the smallest integral diagram with gap
    # products D.
    L = lcm(*D)
    return [L // Dk for Dk in D]


def _integral(seq, w):
    # integral_diagram from its int entries w, positive by construction.
    return PureDiagram._trusted(seq, tuple(map(_fraction, w)))


def moment_sums(diagram):
    """The l moment sums sum_k (-1)^k beta_k d_k^m, m = 0..l-1 (all zero iff pure)."""
    d = diagram.sequence.degrees
    ints, den = _cleared([v.as_integer_ratio() for v in diagram.values])
    signed = [(deg, x if k % 2 == 0 else -x) for k, (deg, x) in enumerate(zip(d, ints))]
    return [_reduced(sum(x * deg ** m for deg, x in signed), den) for m in range(len(d) - 1)]


def integral_scale(values):
    """Smallest positive rational multiplier making all values integers."""
    scaled, den = _cleared([Fraction(v).as_integer_ratio() for v in values])
    return Fraction(den, gcd(*scaled))


def smallest_integral(diagram):
    """Rescale to the smallest diagram with all-integer entries (set-gcd 1)."""
    s = integral_scale(diagram.values)
    if s == 1:
        return diagram
    return PureDiagram(diagram.sequence, tuple(v * s for v in diagram.values))


def _dominates(d, e):
    # d <= e in the fan order: window starts ordered, degrees dominated at
    # shared positions, and e may outrun d's end only when d already has the
    # maximal v+1 terms (otherwise d's implicit trailing infinity wins).
    if d.start > e.start:
        return False
    for i in range(e.start, min(d.end, e.end) + 1):
        if d.degrees[i - d.start] > e.degrees[i - e.start]:
            return False
    if e.end > d.end and len(d.degrees) != d.vars + 1:
        return False
    return True


def compare(d, e):
    """Termwise partial order underlying the simplicial fan structure.

    For sequences in the same window this is the classical termwise order
    with infinity padding on the right: a longer sequence that agrees on the
    overlap sits below the shorter one.  Shifted windows compare so that the
    greedy peel order of a decomposable complex table is monotone.  The
    order is antisymmetric: when each side dominates, the starts and the
    overlap agree, and the ends too, since neither may outrun v + 1 terms.
    """
    if d.vars != e.vars:
        raise DimensionMismatch(f"vars {d.vars} != {e.vars}")
    if d == e:
        return Ordering.EQUAL
    if _dominates(d, e):
        return Ordering.LESS_EQ
    if _dominates(e, d):
        return Ordering.GREATER_EQ
    return Ordering.INCOMPARABLE


def is_chain(sequences):
    """True iff consecutive sequences compare LessEq or Equal."""
    seqs = list(sequences)
    return all(compare(a, b) in (Ordering.LESS_EQ, Ordering.EQUAL)
               for a, b in zip(seqs, seqs[1:]))
