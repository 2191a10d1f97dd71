"""Stabilizer codes: check matrices, standard form, logicals, tableaus.

The standard form (Gottesman's) is reached by two reductions with
leftmost pivots plus a qubit permutation, giving

    G_std = [ I A1 A2 | B  0 C1 ]      (r rows)
            [ 0 0  0  | D  I C2 ]      (s rows)

with column blocks of widths (r, s, k), k = n - r - s.  The first
reduction brings the X part to reduced echelon form (r, X pivots); the
second reduces, on the other columns, the Z part of the rows whose X part
vanished (s, Z pivots); adding Z-pivot rows into the X-pivot rows clears
the 0 block.  Every sign comes from one batched signed product of the
original checks over the combined row operations.  Logical Paulis and
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
from .gf2 import asbits, is_symplectic, mat2, rref, symplectic_inverse
from .pauli import PhasedPauli, row_products


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
            if not c.is_hermitian():
                raise ParseError(f"check {idx} has imaginary phase: {c.to_string()}")
        self.checks = list(checks)
        self.n = n
        m = self.check_matrix
        gram = mat2(m[:, :n], m[:, n:].T)
        clash = np.argwhere(np.triu(gram ^ gram.T, 1))
        if clash.size:
            raise NonCommutingChecksError(int(clash[0, 0]), int(clash[0, 1]))

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


@dataclass
class StandardForm:
    """Standard-form data in the permuted qubit frame."""

    n: int
    r: int
    s: int
    k: int
    g_std: np.ndarray  # (r+s) x 2n, permuted frame
    phases: np.ndarray  # i-exponent of each Hermitian row i^phase X(x) Z(z)
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
    """Two leftmost-pivot reductions + qubit permutation to the standard block form."""
    n = code.n
    m = code.check_matrix
    _, piv_x, ops = rref(m[:, :n])
    r = len(piv_x)
    rows = mat2(ops, m)
    free = [q for q in range(n) if q not in piv_x]
    _, piv, z_ops = rref(rows[r:, n:][:, free])
    piv_z = [free[c] for c in piv]
    s = len(piv_z)
    coeffs = np.vstack([ops[:r], mat2(z_ops, ops[r:])])
    coeffs[:r] ^= mat2(rows[:r, n:][:, piv_z], coeffs[r : r + s])
    phases, g = row_products([c.phase for c in code.checks], m, coeffs)
    if phases[r + s :].any():
        raise InconsistentSignsError("checks multiply to -identity")
    perm = np.array(piv_x + piv_z + [q for q in free if q not in piv_z], dtype=np.int64)
    g_std = g[: r + s][:, np.concatenate([perm, n + perm])]
    return StandardForm(
        n=n, r=r, s=s, k=n - r - s, g_std=g_std, phases=phases[: r + s], qubit_perm=perm
    )


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
    phases: np.ndarray  # length 2n, i-exponent of each Hermitian row i^phase X(x) Z(z)

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
    if not is_symplectic(tau):  # pragma: no cover
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
