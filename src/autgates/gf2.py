"""Dense GF(2) linear algebra on numpy uint8 arrays.

Matrices are ordinary numpy arrays with entries 0/1 and dtype uint8.  All
target codes here have at most a few hundred columns, so dense storage is
fine and keeps every kernel a couple of numpy calls.  Products go through
BLAS on 0/1 operands cast to float32 (int_product): an entry counts at most
k ones, k the inner dimension, so it is exact for k < 2**24; larger k raises.
int_product serves only mat2 and pauli.row_products; the automorphism
search keeps its incidence as adjacency lists and uses neither BLAS nor
dense storage.  symplectic_inverse is the one home of omega = [[0, I], [I, 0]].
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, SingularMatrixError


def asbits(a) -> np.ndarray:
    """Coerce to a uint8 array of 0/1 values."""
    m = np.asarray(a, dtype=np.uint8) & 1
    return m


def int_product(a, b) -> np.ndarray:
    """Integer product a @ b of 0/1 matrices, as int64, through float32 BLAS."""
    k = np.shape(a)[-1]
    if k >= 2**24:
        raise DimensionError(f"inner dimension {k} is not below 2**24")
    return (np.asarray(a, np.float32) @ np.asarray(b, np.float32)).astype(np.int64)


def mat2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over GF(2)."""
    return (int_product(a, b) & 1).astype(np.uint8)


def rref(m: np.ndarray) -> tuple[np.ndarray, list[int], np.ndarray]:
    """Reduced row echelon form over GF(2).

    Returns (r, pivots, rowops) with rowops @ m == r (mod 2).  Pivots are
    chosen left to right; among candidate rows the topmost is used, so the
    result is deterministic.
    """
    m = asbits(m)
    nrows, ncols = m.shape
    r = m.copy()
    ops = np.eye(nrows, dtype=np.uint8)
    pivots: list[int] = []
    rank = 0
    for col in range(ncols):
        rows = np.nonzero(r[rank:, col])[0]
        if rows.size == 0:
            continue
        pivot = rank + int(rows[0])
        if pivot != rank:
            r[[rank, pivot]] = r[[pivot, rank]]
            ops[[rank, pivot]] = ops[[pivot, rank]]
        hit = np.nonzero(r[:, col])[0]
        hit = hit[hit != rank]
        if hit.size:
            r[hit] ^= r[rank]
            ops[hit] ^= ops[rank]
        pivots.append(col)
        rank += 1
        if rank == nrows:
            break
    return r, pivots, ops


def rank(m: np.ndarray) -> int:
    return len(rref(m)[1])


def invert(m: np.ndarray) -> np.ndarray:
    """Inverse over GF(2); raises SingularMatrixError if rank deficient."""
    m = asbits(m)
    n, nc = m.shape
    if n != nc:
        raise DimensionError(f"cannot invert {n}x{nc} matrix")
    r, pivots, ops = rref(m)
    if len(pivots) != n:
        raise SingularMatrixError(f"rank {len(pivots)} < {n}")
    return ops


def span_rows(m: np.ndarray, cap: int | None = None) -> np.ndarray:
    """All vectors in the row span of m (2**rank rows, includes zero).

    Raises DimensionError when 2**rank would exceed cap.
    """
    m = asbits(m)
    r, pivots, _ = rref(m)
    k = len(pivots)
    if cap is not None and 2**k > cap:
        raise DimensionError(f"2**{k} codewords exceed cap {cap}")
    basis = r[:k]
    combos = (np.arange(2**k, dtype=np.int64)[:, None] >> np.arange(k)) & 1
    return mat2(combos.astype(np.uint8), basis)


def is_symplectic(u: np.ndarray) -> bool:
    """True iff u @ symplectic_inverse(u) == I, that is u omega u^T == omega
    (omega^2 = I): one product certifies the inverse that callers then use."""
    u = asbits(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1] or u.shape[0] % 2:
        raise DimensionError(f"expected even square matrix, got {u.shape}")
    return bool(np.array_equal(mat2(u, symplectic_inverse(u)), np.eye(len(u), dtype=np.uint8)))


def symplectic_inverse(u: np.ndarray) -> np.ndarray:
    """Inverse omega u^T omega of a symplectic u (unchecked): u^T, its blocks
    rolled by n.  The only home of omega; is_symplectic checks u against it."""
    n = len(u) // 2
    return asbits(u).T.reshape(2, n, 2, n)[::-1, :, ::-1].reshape(2 * n, 2 * n)
