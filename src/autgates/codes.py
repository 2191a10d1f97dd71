"""Bundled example codes and the bivariate bicycle construction.

The package ships a small corpus of stabilizer code files under
codes/*.stab.  Bivariate bicycle codes are CSS codes built from two
polynomials in commuting cyclic shift operators x (order l) and y
(order m) acting on two blocks of l*m qubits; the canonical check set
is over-complete on purpose, one X row and one Z row per qubit pair.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import ParseError
from .pauli import PhasedPauli
from .stabilizer import StabilizerCode, parse_code_file


def _cyclic_shift(dim: int, power: int) -> np.ndarray:
    return np.roll(np.eye(dim, dtype=np.uint8), power, axis=1)


def _monomial_sum(l: int, m: int, powers) -> np.ndarray:
    total = np.zeros((l * m, l * m), dtype=np.uint8)
    for i, j in powers:
        total ^= np.kron(_cyclic_shift(l, i), _cyclic_shift(m, j))
    return total


def bivariate_bicycle(l: int, m: int, a_powers, b_powers) -> StabilizerCode:
    """CSS code with H_X = [A | B] and H_Z = [B^T | A^T] on 2*l*m qubits.

    a_powers and b_powers list the (x, y) exponent pairs of the two
    polynomials.  Returns the canonical over-complete check set: all
    l*m X-type rows followed by all l*m Z-type rows.
    """
    a = _monomial_sum(l, m, a_powers)
    b = _monomial_sum(l, m, b_powers)
    hx = np.concatenate([a, b], axis=1)
    hz = np.concatenate([b.T, a.T], axis=1)
    n = 2 * l * m
    zeros = np.zeros(n, dtype=np.uint8)
    checks = [PhasedPauli(0, row, zeros) for row in hx]
    checks += [PhasedPauli(0, zeros, row) for row in hz]
    return StabilizerCode(checks, n=n)


def corpus_dir() -> Path:
    return Path(__file__).parent / "codes"


def corpus_names() -> list[str]:
    return sorted(p.stem for p in corpus_dir().glob("*.stab"))


def corpus_path(name: str) -> Path:
    path = corpus_dir() / (name if name.endswith(".stab") else name + ".stab")
    if not path.is_file():
        raise ParseError(
            "unknown bundled code %r (available: %s)"
            % (name, ", ".join(corpus_names()))
        )
    return path


def load(name: str) -> StabilizerCode:
    """Load a bundled code by name, e.g. load("n5k1d3")."""
    return parse_code_file(corpus_path(name).read_text())
