import numpy as np
import pytest

from autgates.circdecomp import LayeredDecomposition, decompose, to_circuit
from autgates.circuits import CliffordCircuit, Gate
from autgates.errors import NotSymplecticError
from autgates.gf2 import mat2


def random_circuit_symplectic(rng, n, length):
    names_1q = ["H", "S", "SDG", "SQRTX", "GAMMA", "GAMMADG"]
    gates = []
    for _ in range(length):
        if n >= 2 and rng.rand() < 0.5:
            q0, q1 = rng.choice(n, size=2, replace=False)
            name = ["SWAP", "CNOT", "CZ", "CXX"][rng.randint(4)]
            gates.append(Gate(name, (int(q0), int(q1))))
        else:
            gates.append(Gate(names_1q[rng.randint(len(names_1q))], (int(rng.randint(n)),)))
    return CliffordCircuit(n, tuple(gates)).symplectic()


def test_identity_decomposition():
    layers = decompose(np.eye(4, dtype=np.uint8))
    assert not layers.h.any()
    assert np.array_equal(layers.c, np.eye(2, dtype=np.uint8))
    assert not layers.a.any() and not layers.b.any()
    assert len(to_circuit(layers)) == 0


def test_single_h_decomposition():
    layers = decompose(np.array([[0, 1], [1, 0]], dtype=np.uint8))
    assert layers.h.tolist() == [1]
    assert layers.c.tolist() == [[1]]
    assert not layers.a.any() and not layers.b.any()
    assert [str(g) for g in to_circuit(layers).gates] == ["H 0"]


def test_single_s_decomposition():
    layers = decompose(np.array([[1, 1], [0, 1]], dtype=np.uint8))
    assert layers.h.tolist() == [0]
    assert layers.c.tolist() == [[1]]
    assert layers.b.tolist() == [[1]]
    assert not layers.a.any()
    assert [str(g) for g in to_circuit(layers).gates] == ["S 0"]


def test_phase_layer_gate_emission():
    layers = LayeredDecomposition(
        h=np.zeros(2, dtype=np.uint8),
        c=np.eye(2, dtype=np.uint8),
        b=np.array([[1, 1], [1, 0]], dtype=np.uint8),
        a=np.zeros((2, 2), dtype=np.uint8),
    )
    circ = to_circuit(layers)
    assert [str(g) for g in circ.gates] == ["S 0", "CZ 0 1"]
    eye, zero = np.eye(2, dtype=np.uint8), np.zeros((2, 2), dtype=np.uint8)
    assert np.array_equal(circ.symplectic(), np.block([[eye, layers.b], [zero, eye]]))


def test_xphase_layer_gate_emission():
    layers = LayeredDecomposition(
        h=np.zeros(2, dtype=np.uint8),
        c=np.eye(2, dtype=np.uint8),
        b=np.zeros((2, 2), dtype=np.uint8),
        a=np.array([[0, 1], [1, 1]], dtype=np.uint8),
    )
    circ = to_circuit(layers)
    assert [str(g) for g in circ.gates] == ["SQRTX 1", "CXX 0 1"]
    eye, zero = np.eye(2, dtype=np.uint8), np.zeros((2, 2), dtype=np.uint8)
    assert np.array_equal(circ.symplectic(), np.block([[eye, zero], [layers.a, eye]]))


def test_h_and_cnot_layer_block_forms():
    zero = np.zeros((3, 3), dtype=np.uint8)
    # H on qubit 0: its x and z columns swap, the other qubits stay
    h_only = LayeredDecomposition(
        h=np.array([1, 0, 0], dtype=np.uint8), c=np.eye(3, dtype=np.uint8), b=zero, a=zero
    )
    want = np.eye(6, dtype=np.uint8)
    want[[0, 3]] = want[[3, 0]]
    assert np.array_equal(to_circuit(h_only).symplectic(), want)
    # a CNOT network is [[C, 0], [0, C^-T]]; this C is not its own inverse
    c = np.array([[1, 1, 0], [0, 1, 1], [0, 0, 1]], dtype=np.uint8)
    c_inv_t = np.array([[1, 0, 0], [1, 1, 0], [1, 1, 1]], dtype=np.uint8)
    c_only = LayeredDecomposition(h=np.zeros(3, dtype=np.uint8), c=c, b=zero, a=zero)
    want = np.block([[c, zero], [zero, c_inv_t]])
    assert np.array_equal(to_circuit(c_only).symplectic(), want)


def test_cnot_network_matches_arbitrary_invertible():
    rng = np.random.RandomState(3)
    for _ in range(50):
        n = rng.randint(1, 7)
        u = random_circuit_symplectic(rng, n, 12)
        layers = decompose(u)
        circ = to_circuit(layers)
        assert np.array_equal(circ.symplectic(), u)


def test_roundtrip_random_symplectics():
    rng = np.random.RandomState(17)
    for _ in range(200):
        n = rng.randint(1, 9)
        u = random_circuit_symplectic(rng, n, rng.randint(0, 25))
        layers = decompose(u)
        assert np.array_equal(layers.a, layers.a.T)
        assert np.array_equal(layers.b, layers.b.T)
        circ = to_circuit(layers)
        assert np.array_equal(circ.symplectic(), u)


def test_decompose_rejects_non_symplectic():
    with pytest.raises(NotSymplecticError):
        decompose(np.array([[1, 1], [1, 1]], dtype=np.uint8))
    with pytest.raises(NotSymplecticError):
        decompose(np.array([[1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], dtype=np.uint8))


def test_hard_case_needs_every_layer():
    # one fixed matrix exercising h, C, B and A at once
    circ = CliffordCircuit(
        3,
        (
            Gate("H", (0,)),
            Gate("CNOT", (0, 1)),
            Gate("S", (1,)),
            Gate("CZ", (1, 2)),
            Gate("SQRTX", (2,)),
            Gate("CXX", (0, 2)),
            Gate("SWAP", (0, 2)),
        ),
    )
    u = circ.symplectic()
    layers = decompose(u)
    out = to_circuit(layers)
    assert np.array_equal(out.symplectic(), u)
    assert mat2(u, u) is not None  # sanity: u is a proper uint8 matrix
