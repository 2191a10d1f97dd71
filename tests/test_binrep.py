"""Block representation tables, frozen for the five-qubit code."""

import numpy as np
import pytest

from autgates.binrep import (
    CODEWORD_CAP,
    RepKind,
    RowSource,
    block_mixer,
    build,
    row_augmented_matrix,
)
from autgates.errors import TooManyCodewordsError
from autgates.gf2 import invert, mat2
from autgates.stabilizer import StabilizerCode

FIVE_QUBIT = StabilizerCode.from_strings(["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"]).check_matrix

GX = np.array([
    [1, 0, 0, 1, 0],
    [0, 1, 0, 0, 1],
    [1, 0, 1, 0, 0],
    [0, 1, 0, 1, 0],
], dtype=np.uint8)

GZ = np.array([
    [0, 1, 1, 0, 0],
    [0, 0, 1, 1, 0],
    [0, 0, 0, 1, 1],
    [1, 0, 0, 0, 1],
], dtype=np.uint8)


def test_frozen_tables_five_qubit():
    gxz = GX ^ GZ
    expected = {
        RepKind.HSWAP: np.hstack([GX, GZ]),
        RepKind.SSWAP: np.hstack([GZ, gxz]),
        RepKind.SQRTXSWAP: np.hstack([GX, gxz]),
        RepKind.THREEBLOCK: np.hstack([GX, GZ, gxz]),
    }
    for kind, table in expected.items():
        g_e = build(FIVE_QUBIT, kind)
        assert g_e.shape == (4, kind.blocks * 5)
        assert np.array_equal(g_e, table)


def test_mixer_reproduces_tables():
    n = 5
    pad = np.zeros((4, n), dtype=np.uint8)
    for kind in RepKind:
        base = FIVE_QUBIT
        if kind.blocks == 3:
            base = np.hstack([base, pad])
        assert np.array_equal(build(FIVE_QUBIT, kind), mat2(base, block_mixer(kind, n)))


def test_mixers_invertible_with_known_threeblock_inverse():
    for kind in RepKind:
        e = block_mixer(kind, 3)
        e_inv = invert(e)
        assert np.array_equal(mat2(e, e_inv), np.eye(e.shape[0], dtype=np.uint8))
    eye = np.eye(2, dtype=np.uint8)
    zero = np.zeros((2, 2), dtype=np.uint8)
    expected_inv = np.block([[zero, eye, eye], [eye, zero, eye], [eye, eye, eye]])
    assert np.array_equal(invert(block_mixer(RepKind.THREEBLOCK, 2)), expected_inv)


def test_constraint_rows():
    mat, colors = row_augmented_matrix(FIVE_QUBIT, RepKind.THREEBLOCK)
    b = mat[colors == 1]
    assert b.shape == (5, 15)
    for i in range(5):
        row = np.zeros(15, dtype=np.uint8)
        row[[i, i + 5, i + 10]] = 1
        assert np.array_equal(b[i], row)
    mat, colors = row_augmented_matrix(FIVE_QUBIT, RepKind.SSWAP)
    assert mat[colors == 1].shape == (5, 10)
    assert np.array_equal(mat[colors == 1], np.hstack([np.eye(5)] * 2).astype(np.uint8))


def test_row_sources():
    g_e = build(FIVE_QUBIT, RepKind.HSWAP)
    mat, colors = row_augmented_matrix(FIVE_QUBIT, RepKind.HSWAP, RowSource.AS_GIVEN)
    assert mat.shape == (9, 10)
    assert list(colors) == [0] * 4 + [1] * 5
    assert np.array_equal(mat[:4], g_e)

    mat_all, colors_all = row_augmented_matrix(FIVE_QUBIT, RepKind.HSWAP, RowSource.ALL_CODEWORDS)
    assert mat_all.shape == (16 + 5, 10)
    assert list(colors_all) == [0] * 16 + [1] * 5
    seen = {tuple(int(v) for v in row) for row in mat_all[:16]}
    assert len(seen) == 16
    assert tuple(int(v) for v in g_e[0]) in seen


def test_given_rows_go_to_the_search_as_built():
    # a repeated check stays: the search takes each color's rows as a set
    rows = StabilizerCode.from_strings(["XXII", "XXXX", "XXII", "ZZZZ", "XXXX"]).check_matrix
    mat, colors = row_augmented_matrix(rows, RepKind.THREEBLOCK, RowSource.AS_GIVEN)
    assert np.array_equal(mat[:5], build(rows, RepKind.THREEBLOCK))
    assert list(colors) == [0] * 5 + [1] * 4


def repetition_code(n):
    checks = ["I" * i + "ZZ" + "I" * (n - 2 - i) for i in range(n - 1)]
    return StabilizerCode.from_strings(checks).check_matrix


def test_codeword_cap():
    # n - 1 independent checks span 2**(n-1) codewords: the cap admits 2**16
    assert CODEWORD_CAP == 2**16
    code = repetition_code(17)
    mat, colors = row_augmented_matrix(code, RepKind.THREEBLOCK, RowSource.ALL_CODEWORDS)
    assert mat.shape == (2**16 + 17, 3 * 17)
    assert list(colors).count(0) == 2**16
    with pytest.raises(TooManyCodewordsError, match=r"^2\*\*17 codewords exceed cap 65536$"):
        row_augmented_matrix(repetition_code(18), RepKind.THREEBLOCK, RowSource.ALL_CODEWORDS)
