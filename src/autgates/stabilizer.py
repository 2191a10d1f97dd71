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
original checks over the combined row operations.  This is the code's one
reduction.  tableau() completes G_std in the permuted frame with the blocks

    L_X = [ 0 C2^T I | C1^T 0 0 ],  R = [ 0 0 0 | I 0 0 ] over [ 0 I 0 | 0 0 0 ],
    L_Z = [ 0 0    0 | A2^T 0 I ],

maps the whole matrix back to original qubit order at once, and keeps the
StandardForm; the stabilizer rows are then the identity at its pivots.  Every
matrix this module hands out is in original qubit indices unless it lives
inside a StandardForm.
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
from .pauli import PhasedPauli, row_order, row_products


class StabilizerCode:
    """A set of signed, commuting Pauli checks on n qubits (may be over-complete).

    check_matrix, built once, is the read-only array of the checks' (x|z) rows.
    """

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
        m = np.array([c.vector() for c in checks], np.uint8).reshape(len(checks), 2 * n)
        m.flags.writeable = False
        self.check_matrix = m
        gram = mat2(m[:, :n], m[:, n:].T)
        clash = np.argwhere(np.triu(gram ^ gram.T, 1))
        if clash.size:
            raise NonCommutingChecksError(int(clash[0, 0]), int(clash[0, 1]))

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


@dataclass
class Tableau:
    """Symplectic 2n x 2n tableau [G; L_X; R; L_Z] with row sign exponents,
    and the standard_form it was built from; tableau() certifies
    ``inverse`` by is_symplectic (tau @ inverse == I)."""

    n: int
    k: int
    tau: np.ndarray
    phases: np.ndarray  # length 2n, i-exponent of each Hermitian row i^phase X(x) Z(z)
    standard_form: StandardForm

    @property
    def stab_rows(self) -> range:
        return range(0, self.n - self.k)

    @property
    def logical_x_rows(self) -> range:
        return range(self.n - self.k, self.n)

    @property
    def destabilizer_rows(self) -> range:
        return range(self.n, 2 * self.n - self.k)

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

    @cached_property
    def row_order(self) -> np.ndarray:
        return row_order(self.tau)

    @cached_property
    def stabilizer_pivots(self) -> np.ndarray:
        """The columns where the stabilizer rows are the identity: the
        standard form's r X pivots, then its s Z pivots."""
        perm, r, s = self.standard_form.qubit_perm, self.standard_form.r, self.standard_form.s
        return np.concatenate([perm[:r], self.n + perm[r : r + s]])


def tableau(code: StabilizerCode) -> Tableau:
    """The symplectic tableau of a code, rows [G; L_X; R; L_Z].

    In the standard-form frame, with column blocks (r, s, k | r, s, k):

        L_X = [ 0 C2^T I | C1^T 0 0 ]      (k rows)
        R   = [ 0 0    0 | I    0 0 ]      (r rows)
              [ 0 I    0 | 0    0 0 ]      (s rows)
        L_Z = [ 0 0    0 | A2^T 0 I ]      (k rows)

    and one unpermute maps the whole matrix back to original qubit order.
    """
    sf = standard_form(code)
    n, r, s, k = sf.n, sf.r, sf.s, sf.k
    a2, c1, c2 = sf.g_std[:r, r + s : n], sf.g_std[:r, n + r + s :], sf.g_std[r:, n + r + s :]
    tau = np.block(
        [
            [sf.g_std],
            [np.zeros((k, r)), c2.T, np.eye(k), c1.T, np.zeros((k, s + k))],
            [np.zeros((r, n)), np.eye(r), np.zeros((r, s + k))],
            [np.zeros((s, r)), np.eye(s), np.zeros((s, k + n))],
            [np.zeros((k, n)), a2.T, np.zeros((k, s)), np.eye(k)],
        ]
    )
    tau = sf.unpermute(asbits(tau))
    phases = np.zeros(2 * n, dtype=np.int64)
    phases[: n - k] = sf.phases
    if not is_symplectic(tau):  # pragma: no cover
        raise NotSymplecticError("assembled tableau is not symplectic")
    return Tableau(n=n, k=k, tau=tau, phases=phases, standard_form=sf)


def parse_code_file(text: str) -> StabilizerCode:
    """Code file: '#' comments, optional first line 'n=<int>', one Pauli per line."""
    n: int | None = None
    strings: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if n is None and not strings and line.lower().startswith("n="):  # the first line
            if not line[2:].strip().isdecimal():  # int() also takes "+3" and "1_2"
                raise ParseError(f"line {lineno}: bad qubit count {line!r}")
            n = int(line[2:])
            if n <= 0:
                raise ParseError(f"line {lineno}: qubit count must be positive")
            continue
        strings.append(line)
    if not strings and n is None:
        raise ParseError("no checks and no qubit count in code file")
    return StabilizerCode.from_strings(strings, n=n)
