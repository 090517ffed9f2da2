"""Exception types shared across the package.

Every domain error carries a short machine-readable ``code`` that the CLI
prints before the human-readable detail.
"""


class BettiConeError(Exception):
    """Base class for domain errors (exit status 1 on the CLI)."""

    code = "error"


class DimensionMismatch(BettiConeError):
    code = "dimension-mismatch"


class NegativeEntry(BettiConeError):
    code = "negative-entry"

    def __init__(self, i, j, value):
        super().__init__(f"entry ({i}, {j}) would become {value}")
        self.position = (i, j)
        self.value = value


class NotInCone(BettiConeError):
    """The greedy decomposition cannot express the table on a chain of rays."""

    code = "not-in-cone"

    def __init__(self, step, detail):
        super().__init__(f"step {step}: {detail}")
        self.step = step
        self.detail = detail


class StrandNotIncreasing(NotInCone):
    """A strand was truncated below a nonempty column with non-increasing degree."""

    code = "strand-not-increasing"

    def __init__(self, step, column, detail):
        super().__init__(step, detail)
        self.column = column


class NotStaircase(NotInCone):
    """Row supports do not fit the supernatural staircase pattern."""

    code = "not-staircase"


class WindowTooSmall(BettiConeError):
    code = "window-too-small"


class InvalidTable(BettiConeError):
    code = "invalid-table"

    def __init__(self, violations):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


class BoundViolation(BettiConeError):
    code = "bound-violation"

    def __init__(self, i, j, value, bound):
        super().__init__(f"cancellation {value} at ({i}, {j}) exceeds bound {bound}")
        self.position = (i, j)
        self.value = value
        self.bound = bound


class BudgetExceeded(BettiConeError):
    code = "budget-exceeded"


class IntegralityViolation(BettiConeError):
    code = "integrality-violation"


class OracleMismatch(BettiConeError):
    code = "oracle-mismatch"


class ParseError(Exception):
    """Malformed exchange-format input (exit status 2 on the CLI)."""

    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no
        self.message = message
