"""Binary-code representations of stabilizer codes.

Each representation maps the check matrix [G_X | G_Z] to a binary generator
matrix G_E = [G_X | G_Z (| 0)] * E whose column permutations (of a
constrained shape) correspond to circuits built from one single-qubit
Clifford type plus qubit SWAPs.  Every kind is defined once, in _MIXERS, by
its one-qubit mixer E_1: a qubit holding (x, z) gets block b equal to
(x, z, 0) . E_1[:, b], and E = E_1 (x) I_n.

  HSWAP       [G_X | G_Z]              E_1 = [[1,0],[0,1]]    gates H + SWAP
  SSWAP       [G_Z | G_X+G_Z]          E_1 = [[0,1],[1,1]]    S + SWAP
  SQRTXSWAP   [G_X | G_X+G_Z]          E_1 = [[1,1],[0,1]]    SQRTX + SWAP
  THREEBLOCK  [G_X | G_Z | G_X+G_Z]    E_1 = [[1,0,1],[0,1,1],[1,1,1]]
                                                all single-qubit Cliffords + SWAP

build(check_matrix, kind) returns G_E, reading n off the width 2n.  The
constrained shape is enforced structurally: row_augmented_matrix(
check_matrix, kind, rows) stacks the G_E rows (as given, repeats included,
or all codewords) on the rows of B = [I|I] (or [I|I|I]), built there in a
second row color, so the search keeps only permutations that also preserve
B's row set; it takes each color's rows as a set.
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import DimensionError, TooManyCodewordsError
from .gf2 import asbits, span_rows

CODEWORD_CAP = 2**16


class RepKind(enum.Enum):
    HSWAP = "hswap"
    SSWAP = "sswap"
    SQRTXSWAP = "sqrtxswap"
    THREEBLOCK = "threeblock"

    @property
    def blocks(self) -> int:
        return len(_MIXERS[self])


class RowSource(enum.Enum):
    AS_GIVEN = "given"
    ALL_CODEWORDS = "codewords"


# rows: the x, z (and, for three blocks, auxiliary) inputs; columns: blocks
_MIXERS = {
    RepKind.HSWAP: ((1, 0), (0, 1)),
    RepKind.SSWAP: ((0, 1), (1, 1)),
    RepKind.SQRTXSWAP: ((1, 1), (0, 1)),
    RepKind.THREEBLOCK: ((1, 0, 1), (0, 1, 1), (1, 1, 1)),
}


def block_mixer(kind: RepKind, n: int) -> np.ndarray:
    """The column-mixing matrix E = E_1 (x) I_n with G_E = [G_X | G_Z (| 0)] @ E."""
    return np.kron(np.array(_MIXERS[kind], dtype=np.uint8), np.eye(n, dtype=np.uint8))


def build(check_matrix: np.ndarray, kind: RepKind) -> np.ndarray:
    """G_E: the (x|z) check rows in block form, len(rows) x (blocks*n)."""
    m, n = check_matrix, check_matrix.shape[1] // 2
    ex, ez = _MIXERS[kind][:2]
    return asbits(np.hstack([m[:, :n] * a ^ m[:, n:] * b for a, b in zip(ex, ez)]))


def row_augmented_matrix(
    check_matrix: np.ndarray,
    kind: RepKind,
    rows: RowSource = RowSource.AS_GIVEN,
) -> tuple[np.ndarray, np.ndarray]:
    """(matrix, row_colors) for the automorphism search.

    Check-derived rows of G_E get color 0 and the constraint rows B color 1,
    row i of B being e_i repeated in every block, so the search returns
    exactly the column permutations preserving both row sets.
    """
    n = check_matrix.shape[1] // 2
    g = build(check_matrix, kind)
    if rows is RowSource.ALL_CODEWORDS:
        try:
            g = span_rows(g, cap=CODEWORD_CAP)
        except DimensionError as exc:
            raise TooManyCodewordsError(str(exc)) from None
    b = np.hstack([np.eye(n, dtype=np.uint8)] * kind.blocks)
    colors = np.array([0] * g.shape[0] + [1] * n, dtype=np.int64)
    return asbits(np.vstack([g, b])), colors
