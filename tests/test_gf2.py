import random

import numpy as np
import pytest

from autgates import gf2
from autgates.circuits import CliffordCircuit, Gate
from autgates.errors import DimensionError, SingularMatrixError

from oracles import matrix_closure, omega, omega_symplectic
from test_permgroup import random_symplectic


def random_matrix(rng, rows, cols):
    return np.array([[rng.randrange(2) for _ in range(cols)] for _ in range(rows)],
                    dtype=np.uint8)


def test_rref_reproduces_input_via_rowops():
    rng = random.Random(7)
    for _ in range(50):
        m = random_matrix(rng, rng.randrange(1, 8), rng.randrange(1, 10))
        r, pivots, ops = gf2.rref(m)
        assert np.array_equal(gf2.mat2(ops, m), r)
        # pivot columns hold a unit vector
        for i, p in enumerate(pivots):
            col = r[:, p]
            assert col[i] == 1 and int(col.sum()) == 1
        # rref is idempotent
        r2, piv2, _ = gf2.rref(r)
        assert np.array_equal(r, r2) and piv2 == pivots


def test_rref_pivots_leftmost():
    m = np.array([[0, 1, 1], [0, 1, 0]], dtype=np.uint8)
    r, pivots, _ = gf2.rref(m)
    assert pivots == [1, 2]
    assert np.array_equal(r, [[0, 1, 0], [0, 0, 1]])


def test_invert_roundtrip():
    rng = random.Random(11)
    found = 0
    while found < 25:
        n = rng.randrange(1, 7)
        m = random_matrix(rng, n, n)
        if gf2.rank(m) < n:
            with pytest.raises(SingularMatrixError):
                gf2.invert(m)
            continue
        inv = gf2.invert(m)
        assert np.array_equal(gf2.mat2(inv, m), np.eye(n, dtype=np.uint8))
        assert np.array_equal(gf2.mat2(m, inv), np.eye(n, dtype=np.uint8))
        found += 1


def test_invert_rejects_non_square():
    with pytest.raises(DimensionError):
        gf2.invert(np.zeros((2, 3), dtype=np.uint8))


def test_span_rows_counts_and_membership():
    m = np.array([[1, 0, 1], [0, 1, 1], [1, 1, 0]], dtype=np.uint8)
    rows = gf2.span_rows(m)
    assert rows.shape == (4, 3)  # rank 2
    seen = {r.tobytes() for r in rows}
    assert len(seen) == 4
    with pytest.raises(DimensionError):
        gf2.span_rows(m, cap=3)


def test_identity_and_omega_are_symplectic_and_omega_self_inverse():
    form = omega(3)
    assert gf2.is_symplectic(np.eye(6, dtype=np.uint8))
    assert gf2.is_symplectic(form)
    # the closed-form inverse on omega itself, which squares to the identity;
    # test_permgroup checks it against elimination on circuit symplectics
    assert np.array_equal(gf2.mat2(form, gf2.symplectic_inverse(form)), np.eye(6, dtype=np.uint8))


@pytest.mark.parametrize("shape", [(5, 5), (1, 1), (4, 6), (6, 4), (4,)])
def test_is_symplectic_rejects_odd_and_non_square_shapes(shape):
    with pytest.raises(DimensionError):
        gf2.is_symplectic(np.zeros(shape, dtype=np.uint8))


def test_is_symplectic_takes_one_product(monkeypatch):
    calls = []
    product = gf2.mat2

    def counting_mat2(a, b):
        calls.append(None)
        return product(a, b)

    monkeypatch.setattr(gf2, "mat2", counting_mat2)
    assert gf2.is_symplectic(omega(4))
    assert len(calls) == 1


def test_is_symplectic_agrees_with_omega_on_sp4():
    gates = [Gate("H", (0,)), Gate("H", (1,)), Gate("S", (0,)), Gate("S", (1,)),
             Gate("CNOT", (0, 1))]
    group = matrix_closure([CliffordCircuit(2, (g,)).symplectic() for g in gates])
    assert len(group) == 720  # |Sp(4, 2)|
    assert all(gf2.is_symplectic(u) and omega_symplectic(u) for u in group.values())


def test_is_symplectic_agrees_with_omega_on_random_matrices():
    # uniform matrices, almost none symplectic for k > 1, plus circuit
    # symplectics and the same with one bit flipped
    rng = np.random.default_rng(11)
    for k in (1, 2, 3):
        near = [random_symplectic(rng, k)[0] for _ in range(40)]
        flipped = [u.copy() for u in near]
        for u in flipped:
            u[tuple(rng.integers(0, 2 * k, 2))] ^= 1
        uniform = list(rng.integers(0, 2, (200, 2 * k, 2 * k), dtype=np.uint8))
        verdicts = [(gf2.is_symplectic(u), omega_symplectic(u)) for u in near + flipped + uniform]
        assert all(mine == oracle for mine, oracle in verdicts)
        accepted = sum(mine for mine, _ in verdicts)
        assert len(near) <= accepted < len(verdicts) // 2


def test_int_product_matches_int64_product():
    rng = np.random.default_rng(3)
    for rows, inner, cols in [(1, 1, 1), (5, 0, 4), (17, 33, 9), (288, 432, 432), (432, 432, 432)]:
        a = rng.integers(0, 2, (rows, inner), dtype=np.uint8)
        b = rng.integers(0, 2, (inner, cols), dtype=np.uint8)
        got = gf2.int_product(a, b)
        assert got.dtype == np.int64
        assert np.array_equal(got, a.astype(np.int64) @ b.astype(np.int64))
    # all-ones operands give the largest entries, past float16's exact range
    ones = np.ones((432, 432), dtype=np.uint8)
    assert (gf2.int_product(ones, ones) == 432).all()
    wide = np.ones((2, 5001), dtype=np.uint8)
    assert (gf2.int_product(wide, wide.T) == 5001).all()


def test_int_product_rejects_inner_dimension_past_float32_exactness():
    with pytest.raises(DimensionError):
        gf2.int_product(np.zeros((0, 2**24), np.uint8), np.zeros((2**24, 0), np.uint8))
