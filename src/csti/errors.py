"""Exception types shared across the package.

Every contract violation maps to a named exception so callers can tell a
bad input file from a diverging run without string matching.
"""


class CstiError(Exception):
    """Base class for all package-specific errors."""


class SchemaError(CstiError):
    """Input file does not have the required columns/fields."""


class InsufficientDataError(CstiError):
    """Too few usable rows/windows for the requested operation."""


class DegenerateColumnError(CstiError):
    """A feature column is constant on the fitting segment."""


class WrongNormalizerError(CstiError):
    """Normalization parameters applied to a different stock."""


class NumericInputError(CstiError, ValueError):
    """Non-finite values where finite reals are required."""


class ShapeMismatchError(CstiError, ValueError):
    """Operands have incompatible lengths/shapes."""


class MergeIncompatibilityError(CstiError):
    """Parameter vectors with different layouts cannot be merged/imported."""


class DivergenceError(CstiError):
    """Training loss exceeded the divergence guard."""

    def __init__(self, message, stock_id=None, round_index=None):
        super().__init__(message)
        self.stock_id = stock_id
        self.round_index = round_index


class DegenerateTargetError(CstiError):
    """Target series has zero variance; R^2 undefined."""


class ContractViolation(CstiError, ValueError):
    """A precondition of an operation was not met."""


class SpecValidationError(CstiError):
    """Experiment spec failed validation; carries all field errors at once."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))
