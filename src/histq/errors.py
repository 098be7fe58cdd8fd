"""Exception types shared across the package."""

from __future__ import annotations


class HistqError(Exception):
    """Base class for all package-specific failures."""


class ShapeError(HistqError):
    """Operand dimensions are incompatible."""


class ValidationError(HistqError):
    """An input fails a structural invariant (idempotence, trace, Gram, ...)."""


class SizeCapError(HistqError):
    """A requested materialization exceeds the configured size cap."""


class NumericalError(HistqError):
    """The Hermitian eigensolver failed to converge."""
