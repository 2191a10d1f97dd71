"""Stabilizer codes: check matrices, standard form, logicals, tableaus.

The standard form is computed by Gaussian elimination with leftmost-pivot
selection plus a qubit permutation, giving

    G_std = [ I A1 A2 | B  0 C1 ]      (r rows)
            [ 0 0  0  | D  I C2 ]      (s rows)

with column blocks of widths (r, s, k), k = n - r - s.  Logical Paulis and
destabilizers are read off the blocks in the permuted frame, then mapped back
to original qubit order; every matrix this module hands out is in original
qubit indices unless it lives inside a StandardForm.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionError,
    InconsistentSignsError,
    NonCommutingChecksError,
    NotSymplecticError,
    ParseError,
)
from .gf2 import asbits, mat2, symplectic_form, symplectic_inverse
from .pauli import PhasedPauli


class StabilizerCode:
    """A set of signed, commuting Pauli checks on n qubits (may be over-complete)."""

    def __init__(self, checks: list[PhasedPauli], n: int | None = None):
        if checks:
            n = checks[0].n if n is None else n
        elif n is None:
            raise DimensionError("empty check list requires explicit n")
        for idx, c in enumerate(checks):
            if c.n != n:
                raise DimensionError(f"check {idx} acts on {c.n} qubits, expected {n}")
            if c.phase % 2:
                raise ParseError(f"check {idx} has imaginary phase: {c.to_string()}")
        for i in range(len(checks)):
            for j in range(i + 1, len(checks)):
                if not checks[i].commutes_with(checks[j]):
                    raise NonCommutingChecksError(i, j)
        self.checks = list(checks)
        self.n = n

    @property
    def check_matrix(self) -> np.ndarray:
        m = np.zeros((len(self.checks), 2 * self.n), dtype=np.uint8)
        for i, c in enumerate(self.checks):
            m[i, : self.n] = c.x
            m[i, self.n :] = c.z
        return m

    @classmethod
    def from_strings(cls, strings: list[str], n: int | None = None) -> "StabilizerCode":
        return cls([PhasedPauli.from_string(s) for s in strings], n=n)

    def __repr__(self) -> str:
        return f"StabilizerCode(n={self.n}, checks={[c.to_string() for c in self.checks]})"


def _row_add(x, z, ph, dst: int, src: int) -> None:
    """rows[dst] *= rows[src] with the Pauli product phase rule."""
    ph[dst] = (ph[dst] + ph[src] + 2 * int(np.count_nonzero(z[dst] & x[src]))) % 4
    x[dst] ^= x[src]
    z[dst] ^= z[src]


@dataclass
class StandardForm:
    """Standard-form data in the permuted qubit frame."""

    n: int
    r: int
    s: int
    k: int
    g_std: np.ndarray  # (r+s) x 2n, permuted frame
    phases: np.ndarray  # per-row sign exponents (0 or 2)
    qubit_perm: np.ndarray  # original qubit at permuted position p is qubit_perm[p]

    @property
    def blocks(self) -> dict[str, np.ndarray]:
        r, s, n = self.r, self.s, self.n
        gx = self.g_std[:, :n]
        gz = self.g_std[:, n:]
        return {
            "A1": gx[:r, r : r + s],
            "A2": gx[:r, r + s :],
            "B": gz[:r, :r],
            "C1": gz[:r, r + s :],
            "D": gz[r:, :r],
            "C2": gz[r:, r + s :],
        }

    def unpermute(self, rows: np.ndarray) -> np.ndarray:
        """Map (x|z) rows from the permuted frame back to original qubit order."""
        n = self.n
        out = np.zeros_like(rows)
        out[:, self.qubit_perm] = rows[:, :n]
        out[:, n + self.qubit_perm] = rows[:, n:]
        return out


def standard_form(code: StabilizerCode) -> StandardForm:
    """Gaussian elimination + qubit permutation to the standard block form."""
    n = code.n
    m = code.check_matrix
    x = m[:, :n].copy()
    z = m[:, n:].copy()
    ph = [c.phase for c in code.checks]
    nrows = x.shape[0]

    order: list[int] = []  # row indices in echelon order
    used: set[int] = set()
    piv_x: list[int] = []
    for col in range(n):
        pivot = next((i for i in range(nrows) if i not in used and x[i, col]), None)
        if pivot is None:
            continue
        for i in range(nrows):
            if i != pivot and x[i, col]:
                _row_add(x, z, ph, i, pivot)
        used.add(pivot)
        order.append(pivot)
        piv_x.append(col)
    r = len(piv_x)

    piv_z: list[int] = []
    for col in range(n):
        if col in piv_x:
            continue
        pivot = next(
            (i for i in range(nrows) if i not in used and not x[i].any() and z[i, col]),
            None,
        )
        if pivot is None:
            continue
        for i in range(nrows):
            if i != pivot and z[i, col]:
                _row_add(x, z, ph, i, pivot)
        used.add(pivot)
        order.append(pivot)
        piv_z.append(col)
    s = len(piv_z)
    k = n - r - s

    leftover = [i for i in range(nrows) if i not in used]
    for i in leftover:
        if x[i].any() or z[i].any():  # pragma: no cover - elimination is complete
            raise DimensionError("row reduction left a nonzero dependent row")
        if ph[i] % 4 != 0:
            raise InconsistentSignsError("checks multiply to -identity")

    perm = np.array(piv_x + piv_z + [q for q in range(n) if q not in piv_x and q not in piv_z],
                    dtype=np.int64)
    rows = np.array(order, dtype=np.int64)
    g_std = np.zeros((r + s, 2 * n), dtype=np.uint8)
    if order:
        g_std[:, :n] = x[rows][:, perm]
        g_std[:, n:] = z[rows][:, perm]
    phases = np.array([ph[i] for i in order], dtype=np.int64)
    return StandardForm(n=n, r=r, s=s, k=k, g_std=g_std, phases=phases, qubit_perm=perm)


def logical_paulis(sf: StandardForm) -> tuple[np.ndarray, np.ndarray]:
    """(L_X, L_Z) rows in original qubit order, k rows each."""
    n, r, s, k = sf.n, sf.r, sf.s, sf.k
    blocks = sf.blocks
    lx = np.zeros((k, 2 * n), dtype=np.uint8)
    lx[:, r : r + s] = blocks["C2"].T
    lx[:, r + s : n] = np.eye(k, dtype=np.uint8)
    lx[:, n : n + r] = blocks["C1"].T
    lz = np.zeros((k, 2 * n), dtype=np.uint8)
    lz[:, n : n + r] = blocks["A2"].T
    lz[:, n + r + s :] = np.eye(k, dtype=np.uint8)
    return sf.unpermute(lx), sf.unpermute(lz)


def destabilizers(sf: StandardForm) -> np.ndarray:
    """Rows anticommuting pairwise with the standard-form checks, original order."""
    n, r, s = sf.n, sf.r, sf.s
    d = np.zeros((r + s, 2 * n), dtype=np.uint8)
    d[:r, n : n + r] = np.eye(r, dtype=np.uint8)
    d[r : r + s, r : r + s] = np.eye(s, dtype=np.uint8)
    return sf.unpermute(d)


@dataclass
class Tableau:
    """Symplectic 2n x 2n tableau [G; L_X; R; L_Z] with row sign exponents."""

    n: int
    k: int
    tau: np.ndarray
    phases: np.ndarray  # length 2n, entries mod 4 (0 or 2)

    @property
    def stab_rows(self) -> range:
        return range(0, self.n - self.k)

    @property
    def logical_x_rows(self) -> range:
        return range(self.n - self.k, self.n)

    @property
    def logical_z_rows(self) -> range:
        return range(2 * self.n - self.k, 2 * self.n)

    @property
    def stabilizers(self) -> np.ndarray:
        return self.tau[: self.n - self.k]

    @property
    def logical_x(self) -> np.ndarray:
        return self.tau[self.n - self.k : self.n]

    @property
    def logical_z(self) -> np.ndarray:
        return self.tau[2 * self.n - self.k :]

    def row_pauli(self, i: int) -> PhasedPauli:
        return PhasedPauli(int(self.phases[i]), self.tau[i, : self.n], self.tau[i, self.n :])

    @cached_property
    def inverse(self) -> np.ndarray:
        return symplectic_inverse(self.tau)


def tableau(code: StabilizerCode) -> Tableau:
    """Assemble the symplectic tableau of a code, rows [G; L_X; R; L_Z]."""
    sf = standard_form(code)
    n, k = sf.n, sf.k
    g = sf.unpermute(sf.g_std)
    lx, lz = logical_paulis(sf)
    dst = destabilizers(sf)
    tau = np.vstack([g, lx, dst, lz])
    phases = np.zeros(2 * n, dtype=np.int64)
    phases[: n - k] = sf.phases
    omega = symplectic_form(n)
    if not np.array_equal(mat2(mat2(tau, omega), tau.T), omega):  # pragma: no cover
        raise NotSymplecticError("assembled tableau is not symplectic")
    return Tableau(n=n, k=k, tau=asbits(tau), phases=phases)


def parse_code_file(text: str) -> StabilizerCode:
    """Code file: '#' comments, optional first line 'n=<int>', one Pauli per line."""
    n: int | None = None
    strings: list[str] = []
    seen_any = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not seen_any and line.lower().startswith("n="):
            try:
                n = int(line[2:])
            except ValueError:
                raise ParseError(f"line {lineno}: bad qubit count {line!r}") from None
            if n <= 0:
                raise ParseError(f"line {lineno}: qubit count must be positive")
            seen_any = True
            continue
        seen_any = True
        strings.append(line)
    if not seen_any:
        raise ParseError("no checks and no qubit count in code file")
    if not strings and n is None:
        raise ParseError("no checks and no qubit count in code file")
    return StabilizerCode.from_strings(strings, n=n)
