"""Exception types shared across the package.

Every exception raised by this package derives from ExactGFError, so callers
(notably the CLI) can map failures to exit codes without enumerating modules.
"""


class ExactGFError(Exception):
    """Base class for all package errors."""


# --- exact arithmetic core ---

class ShapeError(ExactGFError):
    """Matrix/vector dimensions do not match the operation."""


class InexactDivision(ExactGFError):
    """Division requested in a ring where the remainder is nonzero."""


class ZeroDenominator(ExactGFError):
    """A rational function was built with a zero denominator."""


# --- recurrence guessing ---

class DataTooShort(ExactGFError):
    """Not enough terms to attempt a fit of the requested order."""


class InternalInconsistency(ExactGFError):
    """A self-check failed; indicates a bug, not bad input."""


# --- graphs ---

class BadVertexPair(ExactGFError):
    """The two marked vertices must be distinct."""


class NotConnected(ExactGFError):
    """The graph (or product graph) is not connected."""


# --- generating-function pipelines ---

class NoFitWithinBudget(ExactGFError):
    """No validated recurrence was found within the data budget.

    Carries the generated data so callers can inspect or extend it.
    """

    def __init__(self, message, data=None):
        super().__init__(message)
        self.data = list(data) if data is not None else []


class StructureConjectureViolated(ExactGFError):
    """An exact-division structure claim failed (e.g. squared-denominator)."""


# --- Toeplitz ---

class InconsistentSpec(ExactGFError):
    """Row and column prefixes disagree on the shared corner entry."""


class BadState(ExactGFError):
    """A minor state is not consistent with the family's diagonals."""


class BudgetExceeded(ExactGFError):
    """An exponential-time oracle was asked for more than its cap."""
