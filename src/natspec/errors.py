"""Exception types shared across the package."""

from __future__ import annotations


class NatspecError(Exception):
    """Base class for all package-specific errors."""


class BasisMismatchError(NatspecError, ValueError):
    """Operands are defined over different generator bases."""


class GeneratorsExhaustedError(NatspecError, RuntimeError):
    """The built-in list of fresh generator values ran out."""


class BudgetExceededError(NatspecError, RuntimeError):
    """A fixed resource limit was reached: a convolution's atom pairs, result
    atoms or density degree (see ``measures.convolve``), or the grid points
    or free dimensions of the torus walker (see ``spectrum.spectral_bracket``)."""


class OutOfDiskError(NatspecError, ValueError):
    """A target point lies outside the closed unit disk."""


class KroneckerNotFoundError(NatspecError, RuntimeError):
    """No integer within the search bound met the tolerance.

    ``best_n`` / ``best_err`` record the closest candidate encountered.
    """

    def __init__(self, message: str, *, best_n: int | None = None, best_err: float = float("inf")):
        super().__init__(message)
        self.best_n = best_n
        self.best_err = best_err


class RadiusValidationError(NatspecError, ValueError):
    """Supplied radii violate the transform lower bound."""


class SchemaError(NatspecError, ValueError):
    """A JSON document does not match the expected schema."""
