import itertools
import random

import numpy as np
import pytest

from autgates.circuits import (
    GATES,
    ONE_QUBIT_GATES,
    TWO_QUBIT_GATES,
    CliffordCircuit,
    Gate,
    _lookup,
    circuit_from_text,
    circuit_to_qasm,
    pauli_to_gates,
)
from autgates.errors import LengthMismatchError, ParseError
from autgates.gf2 import is_symplectic, mat2
from autgates.pauli import PhasedPauli

from oracles import dense_conjugate

ALL_GATES_1Q = [g for g in ONE_QUBIT_GATES if g != "I"]


def all_phased_paulis(n):
    for bits in range(4**n):
        x = [(bits >> j) & 1 for j in range(n)]
        z = [(bits >> (n + j)) & 1 for j in range(n)]
        for phase in range(4):
            yield PhasedPauli(phase, x, z)


def test_single_qubit_conjugation_exhaustive_vs_dense():
    for name in ALL_GATES_1Q + ["I"]:
        circ = CliffordCircuit(1, (Gate(name, (0,)),))
        for p in all_phased_paulis(1):
            assert circ.conjugate(p) == dense_conjugate(circ, p), (name, p)


def test_two_qubit_conjugation_exhaustive_vs_dense():
    # all 256 gate/phased-Pauli combinations
    count = 0
    for name in TWO_QUBIT_GATES:
        circ = CliffordCircuit(2, (Gate(name, (0, 1)),))
        for p in all_phased_paulis(2):
            assert circ.conjugate(p) == dense_conjugate(circ, p), (name, p)
            count += 1
    assert count == 256


def test_two_qubit_gate_on_swapped_and_distant_qubits():
    rng = random.Random(23)
    for name in TWO_QUBIT_GATES:
        for qubits in [(1, 0), (0, 2), (2, 0)]:
            n = max(qubits) + 1
            circ = CliffordCircuit(n, (Gate(name, qubits),))
            for _ in range(10):
                p = PhasedPauli(rng.randrange(4),
                                [rng.randrange(2) for _ in range(n)],
                                [rng.randrange(2) for _ in range(n)])
                assert circ.conjugate(p) == dense_conjugate(circ, p)


def test_known_sign_conventions():
    H = CliffordCircuit(1, (Gate("H", (0,)),))
    S = CliffordCircuit(1, (Gate("S", (0,)),))
    V = CliffordCircuit(1, (Gate("SQRTX", (0,)),))
    G = CliffordCircuit(1, (Gate("GAMMA", (0,)),))
    Y = PhasedPauli.from_string("Y")
    assert H.conjugate(Y) == PhasedPauli.from_string("-Y")
    assert S.conjugate(Y) == PhasedPauli.from_string("-X")
    assert S.conjugate(PhasedPauli.from_string("X")) == Y
    assert V.conjugate(PhasedPauli.from_string("Z")) == PhasedPauli.from_string("-Y")
    # GAMMA cycles X -> Y -> Z -> X
    assert G.conjugate(PhasedPauli.from_string("X")) == Y
    assert G.conjugate(Y) == PhasedPauli.from_string("Z")
    assert G.conjugate(PhasedPauli.from_string("Z")) == PhasedPauli.from_string("X")


def test_cnot_yy_image():
    circ = CliffordCircuit(2, (Gate("CNOT", (0, 1)),))
    yy = PhasedPauli.from_string("YY")
    assert circ.conjugate(yy) == PhasedPauli.from_string("-XZ")


def test_symplectic_matches_conjugation():
    rng = random.Random(31)
    names_1q = ALL_GATES_1Q
    for _ in range(40):
        n = rng.randrange(2, 5)
        gates = []
        for _ in range(rng.randrange(1, 8)):
            if rng.random() < 0.5:
                gates.append(Gate(rng.choice(names_1q), (rng.randrange(n),)))
            else:
                q0, q1 = rng.sample(range(n), 2)
                gates.append(Gate(rng.choice(list(TWO_QUBIT_GATES)), (q0, q1)))
        circ = CliffordCircuit(n, tuple(gates))
        u = circ.symplectic()
        assert is_symplectic(u)
        for _ in range(6):
            p = PhasedPauli(0, [rng.randrange(2) for _ in range(n)],
                            [rng.randrange(2) for _ in range(n)])
            q = circ.conjugate(p)
            assert np.array_equal(q.vector(), mat2(p.vector()[None, :], u)[0])


def test_circuit_symplectic_composes_left_to_right():
    a = CliffordCircuit(2, (Gate("H", (0,)),))
    b = CliffordCircuit(2, (Gate("CNOT", (0, 1)),))
    ab = a + b
    assert np.array_equal(ab.symplectic(), mat2(a.symplectic(), b.symplectic()))


def test_inverse_is_exact_on_phases():
    # every gate followed by its inverse word fixes every signed Pauli
    for name in GATES:
        for qubits in [(0,)] if name in ONE_QUBIT_GATES else [(0, 1), (1, 0)]:
            n = len(qubits)
            gate = CliffordCircuit(n, (Gate(name, qubits),))
            total = gate + gate.inverse()
            for p in all_phased_paulis(n):
                assert total.conjugate(p) == p, (name, qubits, p)
    rng = random.Random(37)
    for _ in range(30):
        n = rng.randrange(1, 4)
        gates = []
        for _ in range(rng.randrange(1, 7)):
            if n >= 2 and rng.random() < 0.4:
                q0, q1 = rng.sample(range(n), 2)
                gates.append(Gate(rng.choice(list(TWO_QUBIT_GATES)), (q0, q1)))
            else:
                gates.append(Gate(rng.choice(ALL_GATES_1Q), (rng.randrange(n),)))
        circ = CliffordCircuit(n, tuple(gates))
        total = circ + circ.inverse()
        for p in [PhasedPauli(1, [1] * n, [0] * n), PhasedPauli(2, [0] * n, [1] * n)]:
            assert total.conjugate(p) == p


def test_text_roundtrip_and_errors():
    text = "H 0\nSWAP 1 4\nCNOT 0 2\n# comment\nCZ 0 1\nCXX 0 3\nSQRTX 2\nX 0\n"
    circ = circuit_from_text(text)
    assert circ.n == 5
    assert circuit_from_text("".join("%s\n" % g for g in circ.gates)).gates == circ.gates
    with pytest.raises(ParseError):
        circuit_from_text("FOO 1")
    with pytest.raises(ParseError):
        circuit_from_text("H x")
    with pytest.raises(ParseError):
        circuit_from_text("SWAP 1 1")
    with pytest.raises(ParseError):
        circuit_from_text("H 9", n=3)
    for bad in ["H 1_0", "CNOT +1 0", "H -1", "H \u00b2"]:
        with pytest.raises(ParseError, match="^line 1: bad qubit index"):
            circuit_from_text(bad)


def test_two_qubit_count_ignores_swaps():
    circ = circuit_from_text("SWAP 0 1\nCZ 0 1\nCNOT 1 2\nH 0\nCXX 0 2\n")
    assert circ.two_qubit_count() == 3


def test_qasm_emission_structure():
    circ = circuit_from_text("H 0\nSQRTX 1\nCXX 0 1\nGAMMA 0\n")
    qasm = circuit_to_qasm(circ)
    assert qasm.startswith("OPENQASM 2.0;")
    assert "qreg q[2];" in qasm
    assert qasm.count("cz") == 1  # CXX expands to an H-conjugated CZ
    assert "cx " not in qasm


QASM_NAMES = {
    "h": "H", "s": "S", "sdg": "SDG", "x": "X", "y": "Y", "z": "Z", "id": "I",
    "cx": "CNOT", "cz": "CZ", "swap": "SWAP",
}


def test_qasm_gate_bodies_match_dense_semantics():
    # SQRTX == H S H and GAMMA == H after Sdg, as emitted
    v = CliffordCircuit(1, (Gate("H", (0,)), Gate("S", (0,)), Gate("H", (0,))))
    g = CliffordCircuit(1, (Gate("SDG", (0,)), Gate("H", (0,))))
    for p in all_phased_paulis(1):
        assert v.conjugate(p) == CliffordCircuit(1, (Gate("SQRTX", (0,)),)).conjugate(p)
        assert g.conjugate(p) == CliffordCircuit(1, (Gate("GAMMA", (0,)),)).conjugate(p)
    # every gate's emitted body, read back as dense gates, conjugates as the gate
    for name in GATES:
        qubits = (0,) if name in ONE_QUBIT_GATES else (0, 1)
        gate = CliffordCircuit(len(qubits), (Gate(name, qubits),))
        body = []
        for line in circuit_to_qasm(gate).splitlines()[3:]:
            op, args = line.rstrip(";").split(" ", 1)
            body.append(Gate(QASM_NAMES[op], tuple(int(a.strip()[2:-1]) for a in args.split(","))))
        body = CliffordCircuit(len(qubits), tuple(body))
        for p in all_phased_paulis(len(qubits)):
            assert dense_conjugate(body, p) == dense_conjugate(gate, p) == gate.conjugate(p), name


def test_pauli_to_gates_conjugation():
    p = PhasedPauli.from_string("XYZI")
    layer = pauli_to_gates(p)
    q = PhasedPauli.from_string("ZIII")
    # conjugating Z by X flips its sign
    assert layer.conjugate(q) == PhasedPauli.from_string("-ZIII")


def gate_symplectic(name, qubits, n):
    return CliffordCircuit(n, (Gate(name, qubits),)).symplectic()


def test_gate_symplectic_known_matrices():
    assert np.array_equal(gate_symplectic("S", (0,), 1), [[1, 1], [0, 1]])
    assert np.array_equal(gate_symplectic("H", (0,), 1), [[0, 1], [1, 0]])
    assert np.array_equal(gate_symplectic("SQRTX", (0,), 1), [[1, 0], [1, 1]])
    assert np.array_equal(gate_symplectic("GAMMA", (0,), 1), [[1, 1], [1, 0]])
    assert np.array_equal(
        gate_symplectic("CNOT", (0, 1), 2),
        [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 1, 1]],
    )
    assert np.array_equal(
        gate_symplectic("CZ", (0, 1), 2),
        [[1, 0, 0, 1], [0, 1, 1, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    )


def per_gate_propagate(circ, phases, rows):
    """Reference: one numpy step per gate, SWAPs included, no relabeling."""
    n = circ.n
    rows = np.asarray(rows, dtype=np.uint8)
    phases = np.array(phases, dtype=np.int64)
    code = (rows[:, :n] + 2 * rows[:, n:]).T.copy()
    for g in circ.gates:
        inc, outs = _lookup(g.name)
        idx = code[g.qubits[0]]
        if len(g.qubits) == 2:
            idx = idx + 4 * code[g.qubits[1]]
        phases += inc[idx]
        for q, out in zip(g.qubits, outs):
            code[q] = out[idx]
    return phases % 4, np.hstack([code.T & 1, code.T >> 1])


def shaped_circuit(rng, n, length):
    """Seeded blocks shaped like lifted generators and their corrections."""
    gates = []
    while len(gates) < length:
        kind = rng.integers(5)
        name = str(rng.choice(ALL_GATES_1Q))
        if kind == 0:  # one gate on many distinct qubits
            gates += [Gate(name, (int(q),)) for q in rng.permutation(n)[: rng.integers(1, n + 1)]]
        elif kind == 1:  # a run of one gate that repeats a qubit mid-run
            qs = list(rng.permutation(n)[: rng.integers(1, n + 1)])
            at = int(rng.integers(1, len(qs) + 1))
            qs.insert(at, qs[rng.integers(at)])
            gates += [Gate(name, (int(q),)) for q in qs]
        elif kind == 2 and n >= 2:  # one cycle's SWAP chain, as perm_to_circuit emits it
            cyc = rng.permutation(n)[: rng.integers(2, n + 1)]
            gates += [Gate("SWAP", (int(cyc[0]), int(q))) for q in cyc[1:]]
        elif kind == 3 and n >= 2:  # two-qubit gates, on qubits earlier SWAPs moved
            for _ in range(rng.integers(1, 4)):
                a, b = rng.choice(n, 2, replace=False)
                gates.append(Gate(str(rng.choice(TWO_QUBIT_GATES)), (int(a), int(b))))
        else:  # a Pauli correction layer
            layer = pauli_to_gates(PhasedPauli(0, rng.integers(0, 2, n), rng.integers(0, 2, n)))
            gates += layer.gates
    return CliffordCircuit(n, tuple(gates[:length]))


def random_batch(rng, n, extra):
    """The 2n unit rows and `extra` random rows, all with random phases."""
    rows = np.vstack([np.eye(2 * n, dtype=np.uint8), rng.integers(0, 2, (extra, 2 * n))])
    return rng.integers(0, 4, len(rows)), rows.astype(np.uint8)


def test_propagate_matches_per_gate_loop_and_one_gate_folds():
    rng = np.random.default_rng(41)
    for _ in range(16):
        n = int(rng.integers(1, 11))
        circ = shaped_circuit(rng, n, int(rng.integers(50, 301)))
        phases, rows = random_batch(rng, n, 8)
        got_phases, got_rows = circ.propagate(phases, rows)
        want_phases, want_rows = per_gate_propagate(circ, phases, rows)
        assert np.array_equal(got_phases, want_phases)
        assert np.array_equal(got_rows, want_rows)
        for i in rng.choice(len(rows), 4, replace=False):
            p = PhasedPauli.from_vector(rows[i], phases[i])
            for g in circ.gates:
                p = CliffordCircuit(n, (g,)).conjugate(p)
            assert p == PhasedPauli.from_vector(got_rows[i], got_phases[i])


def test_propagate_matches_dense_conjugation():
    rng = np.random.default_rng(43)
    for n in (1, 2, 3, 4, 4):
        circ = shaped_circuit(rng, n, int(rng.integers(50, 301)))
        phases, rows = random_batch(rng, n, 2)
        got_phases, got_rows = circ.propagate(phases, rows)
        for i in rng.choice(len(rows), 3, replace=False):
            p = PhasedPauli.from_vector(rows[i], phases[i])
            assert dense_conjugate(circ, p) == PhasedPauli.from_vector(got_rows[i], got_phases[i])


def test_one_qubit_run_stops_at_a_repeated_qubit():
    # S S is Z on one qubit, so X picks up one sign per S pair
    circ = circuit_from_text("S 0\nS 1\nS 0\nS 1\n")
    assert circ.conjugate(PhasedPauli.from_string("XX")) == PhasedPauli.from_string("XX")
    assert circ.conjugate(PhasedPauli.from_string("XZ")) == PhasedPauli.from_string("-XZ")


def run_shaped_circuit(rng, n):
    """Seeded runs of every gate, in the shapes propagate batches.

    Each two-qubit gate gets a run on disjoint pairs, each pair in a random
    order, and the run is ended by a gate of the same name that shares one
    of its qubits (in either slot) or by a gate of another name.  One-qubit
    runs and SWAP chains, which permute `where`, sit between them.
    """
    gates = []
    for name in rng.permutation(TWO_QUBIT_GATES):
        perm = [int(q) for q in rng.permutation(n)]
        pairs = [tuple(perm[i : i + 2][:: rng.choice([1, -1])]) for i in range(0, n - 1, 2)]
        pairs = pairs[: rng.integers(1, len(pairs) + 1)]
        gates += [Gate(str(name), pair) for pair in pairs]
        if rng.integers(2):  # ended by a shared qubit: any qubit of the run, either slot
            shared = int(rng.choice([q for pair in pairs for q in pair]))
            other = int(rng.choice([q for q in range(n) if q != shared]))
            gates.append(Gate(str(name), (shared, other)[:: rng.choice([1, -1])]))
        name_1q = str(rng.choice(ALL_GATES_1Q))
        gates += [Gate(name_1q, (int(q),)) for q in rng.permutation(n)[: rng.integers(1, n + 1)]]
        cycle = rng.permutation(n)[: rng.integers(2, n + 1)]
        gates += [Gate("SWAP", (int(cycle[0]), int(q))) for q in cycle[1:]]
    return CliffordCircuit(n, tuple(gates))


def test_batched_runs_match_one_gate_at_a_time():
    rng = np.random.default_rng(53)
    for trial in range(20):
        n = int(rng.integers(2, 9)) if trial % 2 else int(rng.integers(2, 5))
        circ = run_shaped_circuit(rng, n)
        phases, rows = random_batch(rng, n, 8)
        got_phases, got_rows = circ.propagate(phases, rows)
        want_phases, want_rows = phases, rows
        for g in circ.gates:
            want_phases, want_rows = CliffordCircuit(n, (g,)).propagate(want_phases, want_rows)
        assert np.array_equal(got_phases, want_phases)
        assert np.array_equal(got_rows, want_rows)
        if n <= 4:
            for i in rng.choice(len(rows), 2, replace=False):
                got = PhasedPauli.from_vector(got_rows[i], got_phases[i])
                assert dense_conjugate(circ, PhasedPauli.from_vector(rows[i], phases[i])) == got


def test_propagate_rejects_rows_of_the_wrong_width():
    # rows n + 1 wide used to broadcast into a non-Hermitian answer
    with pytest.raises(LengthMismatchError):
        CliffordCircuit(3, (Gate("H", (0,)),)).conjugate(PhasedPauli.from_string("XZ"))
    circ = CliffordCircuit(2, (Gate("CNOT", (0, 1)),))
    with pytest.raises(LengthMismatchError):  # too wide to broadcast
        circ.propagate([0], np.zeros((1, 6), dtype=np.uint8))
    with pytest.raises(LengthMismatchError):  # one phase for two rows
        circ.propagate([0], np.zeros((2, 4), dtype=np.uint8))
    with pytest.raises(LengthMismatchError):
        circ.propagate([0], np.zeros(4, dtype=np.uint8))
