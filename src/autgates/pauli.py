"""Phased Pauli operators in binary symplectic form.

An n-qubit Pauli is stored as i^phase * X(x) * Z(z) with x, z binary vectors
and phase an integer mod 4.  The X part is written to the left of the Z part;
a Y on qubit j contributes x_j = z_j = 1 and one factor of i to the phase.

This is the one phase convention of the package.  The letter form (as in
"-XYZ") carries the prefix i^(phase - #Y), and a Pauli is Hermitian exactly
when that exponent is even, whatever the number of Y factors.  Products of
rows in this form take their signs from row_products alone.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import LengthMismatchError, ParseError
from .gf2 import asbits, int_product, mat2

# the prefix written for each exponent of i; parsing also reads them without "+"
PREFIXES = ("+", "+i", "-", "-i")
_PREFIX = {p: e for e, s in enumerate(PREFIXES) for p in (s, s.lstrip("+"))}
_LETTER = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}
_PAULI_RE = re.compile(r"^([-+]?i?)([IXYZ]+)$")


class PhasedPauli:
    """i^phase X(x) Z(z) on n qubits."""

    __slots__ = ("phase", "x", "z")

    def __init__(self, phase: int, x, z):
        self.phase = int(phase) % 4
        self.x = asbits(x)
        self.z = asbits(z)
        if self.x.shape != self.z.shape or self.x.ndim != 1:
            raise LengthMismatchError(f"x {self.x.shape} vs z {self.z.shape}")
        self.x.flags.writeable = False
        self.z.flags.writeable = False

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @classmethod
    def identity(cls, n: int) -> "PhasedPauli":
        return cls(0, np.zeros(n, dtype=np.uint8), np.zeros(n, dtype=np.uint8))

    @classmethod
    def from_string(cls, s: str) -> "PhasedPauli":
        m = _PAULI_RE.match(s.strip())
        if not m:
            raise ParseError(f"bad Pauli string: {s!r}")
        prefix, letters = m.groups()
        phase = _PREFIX[prefix]
        x = np.zeros(len(letters), dtype=np.uint8)
        z = np.zeros(len(letters), dtype=np.uint8)
        for j, ch in enumerate(letters):
            x[j], z[j] = _LETTER[ch]
            if ch == "Y":
                phase += 1
        return cls(phase, x, z)

    @classmethod
    def from_vector(cls, xz, phase: int = 0) -> "PhasedPauli":
        xz = asbits(xz)
        n = xz.shape[0] // 2
        return cls(phase, xz[:n], xz[n:])

    def vector(self) -> np.ndarray:
        """The length-2n row (x|z)."""
        return np.concatenate([self.x, self.z])

    @property
    def letter_phase(self) -> int:
        """Exponent of i in front of the letter form: (phase - #Y) mod 4."""
        return (self.phase - int(np.count_nonzero(self.x & self.z))) % 4

    def is_hermitian(self) -> bool:
        return self.letter_phase % 2 == 0

    def to_string(self) -> str:
        head = PREFIXES[self.letter_phase].lstrip("+")
        body = "".join("IXZY"[int(a) + 2 * int(b)] for a, b in zip(self.x, self.z))
        return head + body

    def multiply(self, other: "PhasedPauli") -> "PhasedPauli":
        """Operator product self * other in X-before-Z normal form."""
        if self.n != other.n:
            raise LengthMismatchError(f"{self.n} vs {other.n} qubits")
        reorder = int(np.count_nonzero(self.z & other.x))
        phase = (self.phase + other.phase + 2 * reorder) % 4
        return PhasedPauli(phase, self.x ^ other.x, self.z ^ other.z)

    def commutes_with(self, other: "PhasedPauli") -> bool:
        if self.n != other.n:
            raise LengthMismatchError(f"{self.n} vs {other.n} qubits")
        sym = (np.count_nonzero(self.z & other.x) + np.count_nonzero(self.x & other.z)) % 2
        return sym == 0

    def is_identity(self) -> bool:
        return self.phase == 0 and not self.x.any() and not self.z.any()

    def __eq__(self, other) -> bool:
        if not isinstance(other, PhasedPauli):
            return NotImplemented
        return (
            self.phase == other.phase
            and np.array_equal(self.x, other.x)
            and np.array_equal(self.z, other.z)
        )

    def __hash__(self) -> int:
        return hash((self.phase, self.x.tobytes(), self.z.tobytes()))

    def __repr__(self) -> str:
        return f"PhasedPauli({self.to_string()!r})"


def row_products(phases, rows, coeffs) -> tuple[np.ndarray, np.ndarray]:
    """Products, in row order, of the rows that each coefficient vector selects.

    Row i stands for i^phases[i] X(x) Z(z) with rows[i] = (x|z); returns
    (phases, rows) of the products.  Taking row i before row j contributes
    a sign (-1)^(z_i . x_j), as in PhasedPauli.multiply.
    """
    rows = asbits(rows)
    n = rows.shape[1] // 2
    later = np.triu(mat2(rows[:, n:], rows[:, :n].T), 1)
    c = asbits(coeffs)
    # row j's phase, plus 2 for each earlier selected row i with z_i . x_j = 1
    per_row = np.asarray(phases, dtype=np.int64) + 2 * int_product(c, later)
    return (c * per_row).sum(axis=1) % 4, mat2(c, rows)
