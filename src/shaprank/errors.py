"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes: usage errors exit 2,
capacity/budget errors exit 3, numerical failures exit 4, and
file-format or I/O problems exit 5.
"""


class ShapRankError(Exception):
    """Base class for all package-specific errors."""


class CapacityError(ShapRankError):
    """An enumeration route was asked to handle more players than it supports."""


class BudgetError(ShapRankError):
    """An enumeration would exceed the configured subset budget."""


class InvalidBandError(ShapRankError, ValueError):
    """A coalition-size band is empty, overlapping, or out of range."""


class CharacteristicFunctionError(ShapRankError):
    """The characteristic function failed; ``coalition`` is the failing int mask.

    The original exception is chained as ``__cause__``.
    """

    def __init__(self, message, coalition=None):
        super().__init__(message)
        self.coalition = coalition


class SingularSystemError(ShapRankError):
    """Normal equations are rank deficient and no ridge fallback was allowed."""

    def __init__(self, message, condition=None):
        super().__init__(message)
        self.condition = condition


class FormatError(ShapRankError):
    """A file does not match its declared schema (game spec, model, cache)."""
