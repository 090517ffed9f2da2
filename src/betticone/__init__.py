"""Exact-arithmetic decomposition of Betti tables and sheaf cohomology tables.

Everything here works over exact rationals.  Betti tables decompose greedily
into pure diagrams along chains of degree sequences; cohomology tables of
vector-bundle shape decompose into supernatural tables along chains of root
sequences.  Supporting machinery covers the virtual pure-diagram family tied
to projective dimension bounds and the cancellation polytopes of extensions.
"""

from .betti_decomposition import (BettiDecomposition, decompose, is_member,
                                  min_strand, peel, recompose)
from .coh_decomposition import decompose_cohomology, p1_oracle, peel_supernatural
from .diagrams import (DegreeSequence, Ordering, PureDiagram, compare, is_chain,
                       moment_sums, normalized_diagram, smallest_integral)
from .errors import (BettiConeError, BoundViolation, BudgetExceeded,
                     DimensionMismatch, IntegralityViolation, InvalidTable,
                     NegativeEntry, NotInCone, NotStaircase, OracleMismatch,
                     ParseError, StrandNotIncreasing, WindowTooSmall)
from .exchange import parse_table, pretty_betti, pretty_cohomology, serialize_table
from .extension import (apply_cancellation, cancellation_bounds,
                        enumerate_patterns, feasible_set, polytope_vertices)
from .stillman import (Obstruction, StillmanParams, realizability_obstruction,
                       scan, stillman_diagram, stillman_sequence)
from .supernatural import (CohDecomposition, RootSequence, corner_roots,
                           line_bundle_table, supernatural_table)
from .tables import (BettiTable, CohomologyTable, add_tables, chi_eval, scale,
                     subtract_checked, validate)

__all__ = [
    "BettiConeError", "BettiDecomposition", "BettiTable", "BoundViolation",
    "BudgetExceeded", "CohDecomposition", "CohomologyTable", "DegreeSequence",
    "DimensionMismatch", "IntegralityViolation", "InvalidTable", "NegativeEntry",
    "NotInCone", "NotStaircase", "Obstruction", "OracleMismatch", "Ordering",
    "ParseError", "PureDiagram", "RootSequence", "StillmanParams",
    "StrandNotIncreasing", "WindowTooSmall",
    "add_tables", "apply_cancellation", "cancellation_bounds", "chi_eval",
    "compare", "corner_roots", "decompose", "decompose_cohomology",
    "enumerate_patterns", "feasible_set", "is_chain", "is_member",
    "line_bundle_table", "min_strand", "moment_sums", "normalized_diagram",
    "p1_oracle", "parse_table", "peel", "peel_supernatural",
    "polytope_vertices", "pretty_betti", "pretty_cohomology",
    "realizability_obstruction", "recompose", "scale", "scan",
    "serialize_table", "smallest_integral", "stillman_diagram",
    "stillman_sequence", "subtract_checked", "supernatural_table", "validate",
]
