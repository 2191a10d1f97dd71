"""Exception types shared across the package."""

from __future__ import annotations


class AutgatesError(Exception):
    """Base class for all package errors."""


class ParseError(AutgatesError):
    """Malformed code file, circuit file, pairs file or target expression."""


class LengthMismatchError(AutgatesError):
    """Operands act on different numbers of qubits."""


class SingularMatrixError(AutgatesError):
    """Matrix inversion over GF(2) requested for a singular matrix."""


class DimensionError(AutgatesError):
    """Matrix shape is incompatible with the requested operation."""


class NonCommutingChecksError(AutgatesError):
    """Two stabilizer checks anticommute."""

    def __init__(self, i: int, j: int):
        self.rows = (i, j)
        super().__init__(f"checks {i} and {j} anticommute")


class InconsistentSignsError(AutgatesError):
    """The signed checks generate -I, so no state is stabilized."""


class NotStructuredError(AutgatesError):
    """Column permutation does not preserve the per-qubit block structure."""


class NotSymplecticError(AutgatesError):
    """Matrix fails the symplectic form test."""


class TooManyCodewordsError(AutgatesError):
    """Codeword enumeration would exceed the configured cap."""


class EmbeddedInterpretationError(AutgatesError):
    """Embedded-code circuit has no counterpart on the original qubits."""


class NotRealizableError(AutgatesError):
    """Target logical action is outside the discovered action group."""
