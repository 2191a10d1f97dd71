import itertools

import numpy as np
import pytest

from autgates import gf2, stabilizer
from autgates.binrep import RepKind, RowSource
from autgates.circuits import (
    GATES,
    ONE_QUBIT_GATES,
    TWO_QUBIT_GATES,
    CliffordCircuit,
    Gate,
    circuit_from_text,
    pauli_to_gates,
)
from autgates.cliffordmap import (
    action_name,
    block_gates,
    corrected_circuit,
    pauli_correct_and_action,
    perm_to_circuit,
    verify_preserves_stabilizers,
)
from autgates.codes import bivariate_bicycle, load
from autgates.errors import DimensionError, LengthMismatchError, NotStructuredError
from autgates.gf2 import is_symplectic
from autgates.logsearch import discover_gates
from autgates.pauli import PhasedPauli
from autgates.stabilizer import StabilizerCode, standard_form, tableau

from oracles import (
    dense_conjugate,
    dense_perm_symplectic,
    dense_preserves_stabilizers,
    pauli_identity,
    pauli_product,
)

FIVE_QUBIT = ["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"]
FOUR_TWO_TWO = ["XXXX", "ZZZZ"]
STEANE = ["IIIXXXX", "IXXIIXX", "XIXIXIX", "IIIZZZZ", "IZZIIZZ", "ZIZIZIZ"]


def test_single_qubit_threeblock_conversions():
    cases = {
        (0, 1, 2): ((), np.eye(2, dtype=np.uint8)),
        (1, 0, 2): (("H",), np.array([[0, 1], [1, 0]], dtype=np.uint8)),
        (0, 2, 1): (("S",), np.array([[1, 1], [0, 1]], dtype=np.uint8)),
        (2, 1, 0): (("SQRTX",), np.array([[1, 0], [1, 1]], dtype=np.uint8)),
        (1, 2, 0): (("GAMMA",), np.array([[1, 1], [1, 0]], dtype=np.uint8)),
        (2, 0, 1): (("GAMMADG",), np.array([[0, 1], [1, 1]], dtype=np.uint8)),
    }
    for images, (names, want_u) in cases.items():
        circ = perm_to_circuit(RepKind.THREEBLOCK, images)
        assert tuple(g.name for g in circ.gates) == names
        assert np.array_equal(circ.symplectic(), want_u), images


def test_single_qubit_two_block_conversions():
    for kind, name, want_u in [
        (RepKind.HSWAP, "H", [[0, 1], [1, 0]]),
        (RepKind.SSWAP, "S", [[1, 1], [0, 1]]),
        (RepKind.SQRTXSWAP, "SQRTX", [[1, 0], [1, 1]]),
    ]:
        circ = perm_to_circuit(kind, (1, 0))
        assert [g.name for g in circ.gates] == [name]
        assert np.array_equal(circ.symplectic(), np.array(want_u, dtype=np.uint8))
        assert len(perm_to_circuit(kind, (0, 1))) == 0


def test_qubit_permutation_gives_swap_blocks():
    rng = np.random.RandomState(7)
    n = 5
    for _ in range(10):
        sigma = rng.permutation(n)
        images = [int(b * n + sigma[q]) for b in range(3) for q in range(n)]
        q_mat = np.eye(n, dtype=np.uint8)[sigma]  # q_mat[i, sigma[i]] = 1
        want = np.zeros((2 * n, 2 * n), dtype=np.uint8)
        want[:n, :n] = q_mat
        want[n:, n:] = q_mat
        circ = perm_to_circuit(RepKind.THREEBLOCK, images)
        assert all(g.name == "SWAP" for g in circ.gates)
        assert np.array_equal(circ.symplectic(), want)


def test_symplectic_matches_dense_conjugated_permutation():
    rng = np.random.RandomState(5)
    for kind in RepKind:
        for n in range(1, 7):
            for _ in range(4):
                sigma = rng.permutation(n)
                local = [rng.permutation(kind.blocks) for _ in range(n)]
                images = [
                    int(local[q][b] * n + sigma[q]) for b in range(kind.blocks) for q in range(n)
                ]
                assert np.array_equal(
                    perm_to_circuit(kind, images).symplectic(),
                    dense_perm_symplectic(kind, images),
                )


@pytest.mark.parametrize("kind", list(RepKind))
def test_block_gates_match_dense_conjugated_permutation(kind):
    # the one lifting table, entry by entry, against E_1 P E_1^-1
    perms = set(itertools.permutations(range(kind.blocks)))
    assert set(block_gates(kind)) == perms
    for images in perms:
        circ = perm_to_circuit(kind, images)
        assert len(circ) == (images != tuple(range(kind.blocks)))
        assert np.array_equal(circ.symplectic(), dense_perm_symplectic(kind, images)), images


def gross_code():
    return bivariate_bicycle(12, 6, [(3, 0), (0, 1), (0, 2)], [(0, 3), (1, 0), (2, 0)])


@pytest.mark.parametrize("rows", list(RowSource))
@pytest.mark.parametrize("kind", list(RepKind))
@pytest.mark.parametrize("name", ["n4k2d2", "n5k1d3", "steane"])
def test_lifted_generators_match_dense_small_codes(name, kind, rows):
    code = StabilizerCode.from_strings(STEANE) if name == "steane" else load(name)
    d = discover_gates(code, kind, rows)
    assert d.gates
    for gate in d.gates:
        want = dense_perm_symplectic(kind, gate.images)
        assert np.array_equal(gate.circuit.symplectic(), want), gate.images


@pytest.mark.parametrize("kind", list(RepKind))
@pytest.mark.parametrize("name", ["n4k2d2", "n5k1d3", "steane"])
def test_lifted_generators_match_dense_standard_form_checks(name, kind):
    # the same stabilizer group, given by its standard-form generators
    code = StabilizerCode.from_strings(STEANE) if name == "steane" else load(name)
    sf = standard_form(code)
    std = sf.unpermute(sf.g_std)
    n = code.n
    std_code = StabilizerCode(
        [PhasedPauli(p, row[:n], row[n:]) for p, row in zip(sf.phases, std)], n=n
    )
    d = discover_gates(std_code, kind, RowSource.AS_GIVEN)
    assert d.gates
    for gate in d.gates:
        want = dense_perm_symplectic(kind, gate.images)
        assert np.array_equal(gate.circuit.symplectic(), want), gate.images
    # codeword rows depend on the group, not on the generators chosen
    orders = [
        discover_gates(c, kind, RowSource.ALL_CODEWORDS).search.group.order()
        for c in (code, std_code)
    ]
    assert orders[0] == orders[1]


@pytest.mark.parametrize("kind", [RepKind.HSWAP, RepKind.THREEBLOCK])
@pytest.mark.parametrize("name", ["bb72", "gross"])
def test_lifted_generators_match_dense_large_codes(name, kind):
    code = gross_code() if name == "gross" else load(name)
    d = discover_gates(code, kind, RowSource.AS_GIVEN)
    assert d.search.complete and d.gates
    for gate in d.gates:
        want = dense_perm_symplectic(kind, gate.images)
        assert np.array_equal(gate.circuit.symplectic(), want), gate.images


def test_swap_chain_realizes_long_cycle():
    n = 5
    sigma = [1, 2, 3, 4, 0]  # five-cycle
    images = [b * n + sigma[q] for b in range(3) for q in range(n)]
    circ = perm_to_circuit(RepKind.THREEBLOCK, images)
    assert [str(g) for g in circ.gates] == ["SWAP 0 1", "SWAP 0 2", "SWAP 0 3", "SWAP 0 4"]


def test_unstructured_and_malformed_permutations():
    kind = RepKind.THREEBLOCK
    # columns 0 (block 0, qubit 0) and 3 (block 1, qubit 1) swapped
    bad = [3, 1, 2, 0, 4, 5]
    with pytest.raises(NotStructuredError):
        perm_to_circuit(kind, bad)
    with pytest.raises(DimensionError):
        perm_to_circuit(kind, [0, 0, 2, 3, 4, 5])
    # n is read off the length, which must be a multiple of the blocks
    with pytest.raises(DimensionError):
        perm_to_circuit(kind, [0, 1, 2, 3])
    with pytest.raises(DimensionError):
        perm_to_circuit(RepKind.HSWAP, list(range(7)))
    # a permutation of too few columns lifts to a circuit on too few
    # qubits, which the correction pass rejects against the code
    short = perm_to_circuit(kind, [0, 1, 2])
    assert short.n == 1
    with pytest.raises(LengthMismatchError):
        pauli_correct_and_action(tableau(StabilizerCode.from_strings(["XX", "ZZ"])), short)
    # the independent check refuses a circuit on the wrong qubit count too
    with pytest.raises(LengthMismatchError):
        verify_preserves_stabilizers(tableau(load("n4k2d2")), CliffordCircuit(7, ()))


def duality_circuit():
    """H on every qubit then the qubit relabeling q -> 2q mod 5."""
    n = 5
    images = [0] * 10
    for q in range(n):
        images[q] = n + (2 * q) % n
        images[n + q] = (2 * q) % n
    code = StabilizerCode.from_strings(FIVE_QUBIT)
    return code, perm_to_circuit(RepKind.HSWAP, images), images


def test_five_qubit_duality_is_logical_h():
    code, circ, images = duality_circuit()
    assert [str(g) for g in circ.gates] == [
        "H 0", "H 1", "H 2", "H 3", "H 4", "SWAP 1 2", "SWAP 1 4", "SWAP 1 3",
    ]
    assert np.array_equal(circ.symplectic(), dense_perm_symplectic(RepKind.HSWAP, images))
    t = tableau(code)
    report = pauli_correct_and_action(t, circ)
    assert report.valid
    assert np.array_equal(report.u_act, np.array([[0, 1], [1, 0]], dtype=np.uint8))
    assert report.action_word == "H 0"
    assert verify_preserves_stabilizers(t, corrected_circuit(report, circ))


def test_identity_circuit_report():
    t = tableau(StabilizerCode.from_strings(FIVE_QUBIT))
    report = pauli_correct_and_action(t, CliffordCircuit(5))
    assert report.valid
    assert report.pauli_correction == pauli_identity(5)
    assert np.array_equal(report.u_act, np.eye(2, dtype=np.uint8))
    assert report.action_word == "I"
    assert verify_preserves_stabilizers(t, CliffordCircuit(5))


def test_stabilizer_element_as_pauli_circuit():
    code = StabilizerCode.from_strings(FIVE_QUBIT)
    t = tableau(code)
    element = pauli_product([code.checks[0], code.checks[2]], 5)
    circ = circuit_from_text(
        "\n".join(
            f"{'IXZY'[int(a) + 2 * int(b)]} {q}"
            for q, (a, b) in enumerate(zip(element.x, element.z))
            if a or b
        ),
        n=5,
    )
    assert verify_preserves_stabilizers(t, circ)
    report = pauli_correct_and_action(t, circ)
    assert report.valid
    assert np.array_equal(report.u_act, np.eye(2, dtype=np.uint8))


def test_stray_x_needs_correction_and_fails_raw_verify():
    code = StabilizerCode.from_strings(FIVE_QUBIT)
    t = tableau(code)
    circ = CliffordCircuit(5, (Gate("X", (0,)),))
    assert not verify_preserves_stabilizers(t, circ)
    report = pauli_correct_and_action(t, circ)
    assert report.valid
    assert report.pauli_correction != pauli_identity(5)
    assert np.array_equal(report.u_act, np.eye(2, dtype=np.uint8))
    assert verify_preserves_stabilizers(t, corrected_circuit(report, circ))


@pytest.mark.parametrize("name", ["n4k2d2", "n5k1d3", "steane"])
def test_verify_rejects_every_destabilizer(name):
    # destabilizer i flips the sign of stabilizer row i and of no other row
    code = StabilizerCode.from_strings(STEANE) if name == "steane" else load(name)
    t = tableau(code)
    for i in t.stab_rows:
        assert not verify_preserves_stabilizers(t, pauli_to_gates(t.row_pauli(t.n + i)))


def test_single_h_rejected():
    t = tableau(StabilizerCode.from_strings(FIVE_QUBIT))
    report = pauli_correct_and_action(t, CliffordCircuit(5, (Gate("H", (0,)),)))
    assert not report.valid
    assert report.reason is not None


def test_invalid_reason_names_the_first_failing_row():
    cases = [
        (FOUR_TWO_TWO, Gate("SQRTX", (0,)), "row 1 image leaves the code space"),
        (FOUR_TWO_TWO, Gate("CZ", (0, 1)), "stabilizer row 0 image hits the logicals"),
        (FOUR_TWO_TWO, Gate("CXX", (0, 1)), "stabilizer row 1 image hits the logicals"),
        (FIVE_QUBIT, Gate("H", (0,)), "row 2 image leaves the code space"),
    ]
    for strings, gate, reason in cases:
        code = StabilizerCode.from_strings(strings)
        report = pauli_correct_and_action(tableau(code), CliffordCircuit(code.n, (gate,)))
        assert not report.valid
        assert report.reason == reason


def random_circuit(rng, n, length):
    gates = []
    for _ in range(length):
        if n >= 2 and rng.rand() < 0.4:
            q0, q1 = rng.choice(n, size=2, replace=False)
            name = TWO_QUBIT_GATES[rng.randint(len(TWO_QUBIT_GATES))]
            gates.append(Gate(name, (int(q0), int(q1))))
        else:
            name = ONE_QUBIT_GATES[rng.randint(len(ONE_QUBIT_GATES))]
            gates.append(Gate(name, (int(rng.randint(n)),)))
    return CliffordCircuit(n, tuple(gates))


def propagated_rows(circ, phases, rows):
    """Batched propagation, unpacked into one PhasedPauli per input row."""
    out_phases, out_rows = circ.propagate(phases, rows)
    return [PhasedPauli.from_vector(row, int(phase)) for phase, row in zip(out_phases, out_rows)]


def test_cross_oracle_agreement_on_random_circuits():
    rng = np.random.RandomState(11)
    used = set()
    for strings in (FIVE_QUBIT, FOUR_TWO_TWO):
        code = StabilizerCode.from_strings(strings)
        t = tableau(code)
        accepted = 0
        for _ in range(60):
            circ = random_circuit(rng, code.n, rng.randint(0, 7))
            used.update(g.name for g in circ.gates)
            assert propagated_rows(circ, t.phases, t.tau) == [
                circ.conjugate(t.row_pauli(i)) for i in range(2 * code.n)
            ]
            report = pauli_correct_and_action(t, circ)
            if verify_preserves_stabilizers(t, circ):
                assert report.valid  # stabilizer preservation implies a logical op
            if report.valid:
                accepted += 1
                assert verify_preserves_stabilizers(t, corrected_circuit(report, circ))
                assert is_symplectic(report.u_act)
        assert accepted > 0  # Pauli-only circuits keep every run honest
    assert used == set(GATES)


def test_conjugation_composes_and_matches_dense_oracle():
    rng = np.random.RandomState(13)
    used = set()
    for _ in range(40):
        n = rng.randint(1, 4)
        c1 = random_circuit(rng, n, rng.randint(0, 4))
        c2 = random_circuit(rng, n, rng.randint(0, 4))
        used.update(g.name for g in (c1 + c2).gates)
        p = PhasedPauli(
            rng.randint(4), rng.randint(0, 2, size=n), rng.randint(0, 2, size=n)
        )
        whole = (c1 + c2).conjugate(p)
        assert whole == c2.conjugate(c1.conjugate(p))
        assert whole == dense_conjugate(c1 + c2, p)
        phases, rows = rng.randint(4, size=5), rng.randint(0, 2, size=(5, 2 * n))
        singles = [PhasedPauli.from_vector(row, int(ph)) for ph, row in zip(phases, rows)]
        assert propagated_rows(c1 + c2, phases, rows) == [
            (c1 + c2).conjugate(q) for q in singles
        ] == [dense_conjugate(c1 + c2, q) for q in singles]
    assert used == set(GATES)


def test_action_names():
    assert action_name(np.zeros((0, 0), dtype=np.uint8)) == "I"
    assert action_name(np.eye(2, dtype=np.uint8)) == "I"
    assert action_name(np.array([[0, 1], [1, 0]], dtype=np.uint8)) == "H 0"
    swap = CliffordCircuit(2, (Gate("SWAP", (0, 1)),)).symplectic()
    assert action_name(swap) == "SWAP 0 1"
    cnot = CliffordCircuit(2, (Gate("CNOT", (0, 1)),)).symplectic()
    assert action_name(cnot) == "CNOT 0 1"
    assert action_name(np.eye(8, dtype=np.uint8)) is None  # k = 4 is unnamed


def test_verify_preserves_stabilizers_matches_enumeration():
    # Codes E Z_S E^dag with random signs, one dependent check added;
    # circuits E^-1 G E, or random ones.  G is random on the unchecked
    # qubits, which keeps <+-Z_q, q in S>, plus a few gates on the checked
    # ones: Z, S and CZ keep it, X flips a sign, CNOT may, H leaves the span.
    rng = np.random.RandomState(606)
    verdicts = {True: 0, False: 0}
    for _ in range(60):
        n = rng.randint(1, 7)
        enc = random_circuit(rng, n, 3 * n)
        checked = [int(q) for q in rng.permutation(n)[: rng.randint(n + 1)]]
        checks = [
            enc.conjugate(PhasedPauli(2 * rng.randint(2), np.zeros(n), np.eye(n)[q]))
            for q in checked
        ]
        if checks:
            checks.append(pauli_product([c for c in checks if rng.rand() < 0.5], n))
        t = tableau(StabilizerCode(checks, n=n))
        free = [q for q in range(n) if q not in checked]
        for _ in range(5):
            inner = [
                Gate(g.name, tuple(free[q] for q in g.qubits))
                for g in random_circuit(rng, len(free), 2 * len(free)).gates
            ] if free else []
            for _ in range(rng.choice([0, 1, 1, 2])):
                if len(checked) > 1 and rng.rand() < 0.4:
                    pair = tuple(int(q) for q in rng.choice(checked, 2, replace=False))
                    inner.append(Gate(["CZ", "CNOT"][rng.randint(2)], pair))
                else:
                    name = ["Z", "S", "SDG", "X", "H"][rng.randint(5)]
                    inner.append(Gate(name, (int(rng.randint(n)),)))
            rng.shuffle(inner)
            circ = enc.inverse() + CliffordCircuit(n, tuple(inner)) + enc
            if rng.rand() < 0.15:
                circ = random_circuit(rng, n, 2 * n)
            got = verify_preserves_stabilizers(t, circ)
            assert got == dense_preserves_stabilizers(circ, checks, n)
            verdicts[got] += 1
    assert min(verdicts.values()) > 60


def test_span_test_row_reduces_nothing(monkeypatch):
    code = load("bb72")
    t = tableau(code)
    found = discover_gates(code, RepKind.HSWAP, RowSource.AS_GIVEN)
    calls, original = [], gf2.rref

    def counting_rref(m):
        calls.append(np.shape(m))
        return original(m)

    monkeypatch.setattr(gf2, "rref", counting_rref)
    monkeypatch.setattr(stabilizer, "rref", counting_rref)
    gate = found.gates[0]
    assert verify_preserves_stabilizers(t, corrected_circuit(gate.report, gate.circuit))
    assert not verify_preserves_stabilizers(t, CliffordCircuit(code.n, (Gate("H", (0,)),)))
    assert calls == []
