"""A family of pure lattice diagrams shaped like algebras with r forms of degree e.

For each p >= 0 the degree sequence (0, e, e(p+2), ..., e(p+n)) with
n = r + p(r-1) determines a pure diagram whose normalized entries are all
integers, with beta_0 = 1 and beta_1 = r at degree e.  These lattice points
look like Betti tables of cyclic algebras but, for p > 0, sit in codimension
n > r and therefore cannot come from one.
"""

from .diagrams import DegreeSequence, normalized_diagram
from .errors import IntegralityViolation
from .tables import Record


class StillmanParams(Record):
    __slots__ = ("e", "r", "p")

    def __post_init__(self):
        if self.e < 1:
            raise ValueError(f"e must be >= 1, got {self.e}")
        if self.r < 2:
            raise ValueError(f"r must be >= 2, got {self.r}")
        if self.p < 0:
            raise ValueError(f"p must be >= 0, got {self.p}")

    @property
    def n(self):
        return self.r + self.p * (self.r - 1)


class Obstruction(Record):
    # verdict is "not-realizable-as-cyclic" or "inconclusive"
    __slots__ = ("verdict", "codim", "generators")


def stillman_sequence(params):
    """Degree sequence (0, e, e(p+2), ..., e(p+n)) on n = r + p(r-1) variables."""
    e, p, n = params.e, params.p, params.n
    degrees = [0, e] + [e * (p + i) for i in range(2, n + 1)]
    return DegreeSequence(0, tuple(degrees), n)


def stillman_diagram(params):
    """Normalized pure diagram of the family member; entries must be integers.

    Integrality is recomputed exactly rather than assumed, so a failure here
    falsifies the family's defining property at these parameters.
    """
    diagram = normalized_diagram(stillman_sequence(params))
    v = _first_fraction(diagram)
    if v is not None:
        raise IntegralityViolation(f"entry {v} of the {params} diagram is not an integer")
    return diagram


def _first_fraction(diagram):
    # The first entry of the diagram that is not an integer, or None.
    return next((v for v in diagram.values if v.denominator != 1), None)


def realizability_obstruction(diagram, r):
    """Codimension bound: a cyclic algebra with r generators has codim <= r."""
    codim = len(diagram.sequence) - 1
    verdict = "not-realizable-as-cyclic" if codim > r else "inconclusive"
    return Obstruction(verdict, codim, r)


class ScanRow(Record):
    __slots__ = ("p", "sequence", "diagram", "integral", "obstruction")


def scan(e, r, p_max):
    """Family members for p = 0..p_max, each with its integrality and codim report."""
    StillmanParams(e, r, p_max)  # checks all three, also when p_max < 0
    rows = []
    for p in range(p_max + 1):
        sequence = stillman_sequence(StillmanParams(e, r, p))
        diagram = normalized_diagram(sequence)
        rows.append(ScanRow(p, sequence, diagram, _first_fraction(diagram) is None,
                            realizability_obstruction(diagram, r)))
    return rows
