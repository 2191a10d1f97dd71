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

The constrained shape is enforced structurally: the automorphism search runs
on G rows stacked with the rows of B = [I|I] (or [I|I|I]) in a second row
color, so only permutations that also preserve B's row set survive.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, TooManyCodewordsError
from .gf2 import asbits, span_rows
from .stabilizer import StabilizerCode, standard_form

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
    STANDARD_FORM = "standard"
    ALL_CODEWORDS = "codewords"


# rows: the x, z (and, for three blocks, auxiliary) inputs; columns: blocks
_MIXERS = {
    RepKind.HSWAP: ((1, 0), (0, 1)),
    RepKind.SSWAP: ((0, 1), (1, 1)),
    RepKind.SQRTXSWAP: ((1, 1), (0, 1)),
    RepKind.THREEBLOCK: ((1, 0, 1), (0, 1, 1), (1, 1, 1)),
}


def _blockify(gx: np.ndarray, gz: np.ndarray, kind: RepKind) -> np.ndarray:
    ex, ez = _MIXERS[kind][:2]
    return np.hstack([gx * a ^ gz * b for a, b in zip(ex, ez)])


def block_mixer(kind: RepKind, n: int) -> np.ndarray:
    """The column-mixing matrix E = E_1 (x) I_n with G_E = [G_X | G_Z (| 0)] @ E."""
    return np.kron(np.array(_MIXERS[kind], dtype=np.uint8), np.eye(n, dtype=np.uint8))


@dataclass
class BlockRep:
    """A binary representation of one code, plus its constraint rows B."""

    code: StabilizerCode
    kind: RepKind
    g_e: np.ndarray  # checks in block form, len(checks) x (blocks*n)

    @property
    def n(self) -> int:
        return self.code.n

    @property
    def blocks(self) -> int:
        return self.kind.blocks

    @property
    def b_rows(self) -> np.ndarray:
        """Constraint rows: row i is e_i repeated in every block."""
        n = self.n
        eye = np.eye(n, dtype=np.uint8)
        return np.hstack([eye] * self.blocks)


def build(code: StabilizerCode, kind: RepKind) -> BlockRep:
    m = code.check_matrix
    n = code.n
    g_e = _blockify(m[:, :n], m[:, n:], kind)
    return BlockRep(code=code, kind=kind, g_e=asbits(g_e))


def row_augmented_matrix(
    rep: BlockRep,
    rows: RowSource = RowSource.AS_GIVEN,
) -> tuple[np.ndarray, np.ndarray]:
    """(matrix, row_colors) for the automorphism search.

    Check-derived rows get color 0, the B constraint rows color 1, so the
    search returns exactly the column permutations preserving both row sets.
    """
    n = rep.n
    if rows is RowSource.AS_GIVEN:
        # a repeated check is the same stabilizer, but the search would
        # match it as a second row; keep first occurrences, in order
        _, first = np.unique(rep.g_e, axis=0, return_index=True)
        g = rep.g_e[np.sort(first)]
    elif rows is RowSource.STANDARD_FORM:
        sf = standard_form(rep.code)
        std = sf.unpermute(sf.g_std)
        g = _blockify(std[:, :n], std[:, n:], rep.kind)
    else:
        try:
            g = span_rows(rep.g_e, cap=CODEWORD_CAP)
        except DimensionError as exc:
            raise TooManyCodewordsError(str(exc)) from None
    b = rep.b_rows
    mat = np.vstack([g, b])
    colors = np.array([0] * g.shape[0] + [1] * n, dtype=np.int64)
    return asbits(mat), colors
