"""Layered decomposition of binary symplectic matrices.

Any symplectic U factors as U = U_A U_B U_C U_H with

    U_A = [[I, 0], [A, I]]   A symmetric: sqrt(X) diagonal, C(X,X) off-diagonal
    U_B = [[I, B], [0, I]]   B symmetric: S diagonal, CZ off-diagonal
    U_C = [[C, 0], [0, C^-T]]  C invertible: CNOT network
    U_H = diag-block form of a 0/1 vector h: H on the qubits with h = 1

h comes from the pivots of RREF(B2), where RREF([C0|B0]) = [[C2, B1], [0, B2]]
splits the top half of U; right-multiplying by U_H then makes the upper-left
block invertible, which yields C, then A and B by block division.  Since
circuit symplectics compose left to right here, the emitted gate order is the
A layer, then B, then C, then H.  Each layer's symplectic is that of its
gates, read from the circuits gate table; none is written out here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import CliffordCircuit, Gate
from .errors import NotSymplecticError
from .gf2 import asbits, invert, is_symplectic, mat2, rref


@dataclass
class LayeredDecomposition:
    """U = U_A U_B U_C U_H with A, B symmetric and C invertible."""

    h: np.ndarray
    c: np.ndarray
    b: np.ndarray
    a: np.ndarray

    @property
    def n(self) -> int:
        return self.h.shape[0]


def decompose(u: np.ndarray) -> LayeredDecomposition:
    """Split a symplectic matrix into H, CNOT, S/CZ and sqrt(X)/C(X,X) data."""
    u = asbits(u)
    if not is_symplectic(u):
        raise NotSymplecticError("decompose requires a symplectic matrix")
    n = u.shape[0] // 2
    top = np.hstack([u[:n, :n], u[:n, n:]])
    reduced, pivots, _ = rref(top)
    r = sum(1 for p in pivots if p < n)
    b2 = reduced[r:, n:]
    h = np.zeros(n, dtype=np.uint8)
    h[rref(b2)[1]] = 1
    u_h = CliffordCircuit(n, tuple(Gate("H", (int(q),)) for q in np.flatnonzero(h)))
    m = mat2(u, u_h.symplectic())
    c = m[:n, :n]
    c_inv = invert(c)
    a = mat2(m[n:, :n], c_inv)
    b = mat2(m[:n, n:], c.T)
    assert np.array_equal(a, a.T) and np.array_equal(b, b.T)
    out = LayeredDecomposition(h=h, c=c, b=b, a=a)
    assert np.array_equal(to_circuit(out).symplectic(), u)
    return out


def _cnot_network(c: np.ndarray) -> list[Gate]:
    """CNOT gates whose composed x-action equals C, by row elimination.

    Left-adding row j to row i realizes CNOT(i, j); recording the
    Gauss-Jordan steps in order gives a word whose product is C itself.
    """
    m = asbits(c).copy()
    n = m.shape[0]
    gates: list[Gate] = []
    for col in range(n):
        if not m[col, col]:
            src = col + int(np.nonzero(m[col + 1 :, col])[0][0]) + 1
            m[col] ^= m[src]
            gates.append(Gate("CNOT", (col, src)))
        for row in np.nonzero(m[:, col])[0]:
            if row != col:
                m[row] ^= m[col]
                gates.append(Gate("CNOT", (int(row), col)))
    return gates


def to_circuit(layers: LayeredDecomposition) -> CliffordCircuit:
    """Emit the decomposition as gates, A then B then C then H layers."""
    n = layers.n
    gates: list[Gate] = []
    for i in range(n):
        if layers.a[i, i]:
            gates.append(Gate("SQRTX", (i,)))
    for i in range(n):
        for j in range(i + 1, n):
            if layers.a[i, j]:
                gates.append(Gate("CXX", (i, j)))
    for i in range(n):
        if layers.b[i, i]:
            gates.append(Gate("S", (i,)))
    for i in range(n):
        for j in range(i + 1, n):
            if layers.b[i, j]:
                gates.append(Gate("CZ", (i, j)))
    gates.extend(_cnot_network(layers.c))
    for i in range(n):
        if layers.h[i]:
            gates.append(Gate("H", (i,)))
    return CliffordCircuit(n, tuple(gates))
