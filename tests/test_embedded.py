import numpy as np
import pytest

from autgates.binrep import RepKind, RowSource
from autgates.circuits import CliffordCircuit, Gate
from autgates.cliffordmap import corrected_circuit, perm_to_circuit, verify_preserves_stabilizers
from autgates.codes import load
from autgates.embedded import (
    EmbeddingSpec,
    all_pairs,
    auxiliary_rotations,
    discover_embedded_gates,
    embed,
    interpret,
    interpretation_sound,
    parse_pairs_file,
)
from autgates.errors import (
    DimensionError,
    EmbeddedInterpretationError,
    ParseError,
)
from autgates.logsearch import LogicalActionGroup, discover_gates, parse_target
from autgates.pauli import PhasedPauli
from autgates.stabilizer import StabilizerCode, tableau

FOUR_QUBIT = ["XXXX", "ZZZZ"]

# Enlarged check matrix of the [[4,2,2]] code with one parity auxiliary
# per qubit pair, columns [original X | auxiliary X | original Z | auxiliary Z].
FOUR_QUBIT_ALL_PAIRS_CHECKS = [
    "1111 000000 0000 000000",
    "0000 000000 1111 000000",
    "0000 000000 1100 100000",
    "0000 000000 1010 010000",
    "0000 000000 1001 001000",
    "0000 000000 0110 000100",
    "0000 000000 0101 000010",
    "0000 000000 0011 000001",
]


def bits(rows):
    return np.array(
        [[int(c) for c in row.replace(" ", "")] for row in rows], dtype=np.uint8
    )


@pytest.fixture(scope="module")
def four_qubit():
    return StabilizerCode.from_strings(FOUR_QUBIT)


@pytest.fixture(scope="module")
def z_discovery(four_qubit):
    return discover_embedded_gates(four_qubit, all_pairs(4), RepKind.SSWAP)


@pytest.fixture(scope="module")
def x_discovery(four_qubit):
    return discover_embedded_gates(four_qubit, all_pairs(4), RepKind.SQRTXSWAP)


def test_embedding_spec_validates_pairs():
    spec = EmbeddingSpec(4, ((0, 1), (2, 3)))
    assert spec.m == 2
    with pytest.raises(DimensionError):
        EmbeddingSpec(4, ((0, 4),))
    with pytest.raises(DimensionError):
        EmbeddingSpec(4, ((2, 2),))
    with pytest.raises(DimensionError):
        EmbeddingSpec(4, ((0, 1), (1, 0)))


def test_all_pairs_is_lexicographic():
    spec = all_pairs(4)
    assert spec.pairs == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    assert spec.m == 6
    assert all_pairs(2).pairs == ((0, 1),)


def test_parse_pairs_file():
    text = "# comment\n0 1\n\n2 3  # trailing\n"
    spec = parse_pairs_file(text, 4)
    assert spec.pairs == ((0, 1), (2, 3))
    assert parse_pairs_file("", 4).pairs == ()
    for bad in ["0\n", "0 1 2\n", "a b\n", "-1 2\n"]:
        with pytest.raises(ParseError):
            parse_pairs_file(bad, 4)
    with pytest.raises(DimensionError):
        parse_pairs_file("0 9\n", 4)
    # "\u00b2" (superscript two) passes str.isdigit but not int()
    with pytest.raises(ParseError, match=r"^line 2: expected two qubit indices$"):
        parse_pairs_file("0 1\n2 \u00b2\n", 4)


def test_embedded_check_matrix_matches_worked_example(four_qubit):
    emb = embed(four_qubit, all_pairs(4))
    assert emb.basis == "z"
    assert emb.n == 4 and emb.m == 6
    assert np.array_equal(emb.check_matrix, bits(FOUR_QUBIT_ALL_PAIRS_CHECKS))


def lifted_checks(emb):
    """The embedded code's rows as PhasedPaulis."""
    return [PhasedPauli.from_vector(row, ph) for ph, row in zip(emb.phases, emb.check_matrix)]


def lifted_strings(emb):
    return [c.to_string() for c in lifted_checks(emb)]


def test_embedded_check_matrix_small_cases():
    # an X check copies onto an auxiliary only when it covers one member
    xx = StabilizerCode.from_strings(["XX"])
    emb = embed(xx, EmbeddingSpec(2, ((0, 1),)))
    assert lifted_strings(emb) == ["XXI", "ZZZ"]
    xi = StabilizerCode.from_strings(["XI"])
    emb = embed(xi, EmbeddingSpec(2, ((0, 1),)))
    assert lifted_strings(emb) == ["XIX", "ZZZ"]
    # the X-type dual copies Z checks instead and holds X parities
    zi = StabilizerCode.from_strings(["ZI"])
    emb = embed(zi, EmbeddingSpec(2, ((0, 1),)), basis="x")
    assert lifted_strings(emb) == ["ZIZ", "XXX"]


def test_embed_validates_spec_and_basis(four_qubit):
    with pytest.raises(DimensionError):
        embed(four_qubit, EmbeddingSpec(5, ((0, 1),)))
    with pytest.raises(DimensionError):
        embed(four_qubit, all_pairs(4), basis="y")


def block_formula(code, spec, basis):
    """G_V of the module docstring, assembled from G_X, G_Z and M."""
    n, c, m = code.n, len(code.checks), spec.m
    gx, gz = code.check_matrix[:, :n], code.check_matrix[:, n:]
    eye = np.eye(m, dtype=np.uint8)
    mat = np.zeros((m, n), dtype=np.uint8)  # row j marks the members of pair j
    for j, pair in enumerate(spec.pairs):
        mat[j, list(pair)] = 1

    def zero(rows, cols):
        return np.zeros((rows, cols), dtype=np.uint8)

    if basis == "z":
        return np.block([[gx, gx @ mat.T % 2, gz, zero(c, m)], [zero(m, n), zero(m, m), mat, eye]])
    return np.block([[gx, zero(c, m), gz, gz @ mat.T % 2], [mat, eye, zero(m, n), zero(m, m)]])


PIN_CODES = {
    "n4k2d2": FOUR_QUBIT,
    "n5k1d3": ["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"],
    "steane": ["IIIXXXX", "IXXIIXX", "XIXIXIX", "IIIZZZZ", "IZZIIZZ", "ZIZIZIZ"],
    "signed_y": ["-YYII", "XXXX", "-ZZZZ"],
    "odd_y": ["-YXXX", "ZZZZ"],
}


@pytest.mark.parametrize("basis", ["z", "x"])
@pytest.mark.parametrize("name", sorted(PIN_CODES))
def test_embed_matches_block_formula(name, basis):
    code = StabilizerCode.from_strings(PIN_CODES[name])
    full = all_pairs(code.n)
    specs = [full] + [EmbeddingSpec(code.n, (pair,)) for pair in full.pairs]
    for spec in specs:
        emb = embed(code, spec, basis=basis)
        assert np.array_equal(emb.check_matrix, block_formula(code, spec, basis))
        # lifted checks keep their sign, parity checks are +
        want = [c.phase for c in code.checks] + [0] * spec.m
        assert emb.phases.tolist() == want
        # embed checks neither: StabilizerCode raises on a clashing pair
        # or an imaginary phase
        StabilizerCode(lifted_checks(emb), n=code.n + spec.m)
    if name == "signed_y":
        emb = embed(code, EmbeddingSpec(4, ((0, 2),)), basis=basis)
        want = {
            "z": ["-YYIIX", "XXXXI", "-ZZZZI", "ZIZIZ"],
            "x": ["-YYIIZ", "XXXXI", "-ZZZZI", "XIXIX"],
        }
        assert lifted_strings(emb) == want[basis]


def test_embedded_discovery_builds_no_stabilizer_code(monkeypatch):
    code = load("n4k2d2")
    built = []
    init = StabilizerCode.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(StabilizerCode, "__init__", counting_init)
    for kind in (RepKind.SSWAP, RepKind.SQRTXSWAP):
        assert discover_embedded_gates(code, all_pairs(code.n), kind=kind).gates
    assert built == []


def disjoint_runs(circ):
    """Maximal blocks of one gate name on pairwise disjoint qubits."""
    runs, used, name = 0, set(), None
    for g in circ.gates:
        if g.name != name or not used.isdisjoint(g.qubits):
            runs, used, name = runs + 1, set(), g.name
        used.update(g.qubits)
    return runs


@pytest.mark.parametrize("basis", ["z", "x"])
@pytest.mark.parametrize("name", ["n4k2d2", "n5k1d3", "steane"])
def test_lift_is_its_own_inverse(name, basis):
    code = StabilizerCode.from_strings(PIN_CODES[name])
    n = code.n
    rng = np.random.default_rng(7)
    for spec in [all_pairs(n), parse_pairs_file("0 1\n1 3\n# skip 0 2\n3 2\n", n)]:
        emb = embed(code, spec, basis=basis)
        lift, m = emb.lift, spec.m
        twice = lift + lift
        width = 2 * twice.n
        assert np.array_equal(twice.symplectic(), np.eye(width, dtype=np.uint8))
        # every unit row and seeded random rows, each with every phase
        rows = np.vstack([np.eye(width, dtype=np.uint8),
                          rng.integers(0, 2, (50, width), dtype=np.uint8)])
        rows = np.repeat(rows, 4, axis=0)
        phases = np.tile(np.arange(4), len(rows) // 4)
        got_phases, got = twice.propagate(phases, rows)
        assert np.array_equal(got, rows)
        assert np.array_equal(got_phases, phases)
        # the layered lift is the pair-by-pair lift, reordered
        pairwise = CliffordCircuit(n + m, tuple(
            Gate("CNOT", (q, n + j) if basis == "z" else (n + j, q))
            for j, pair in enumerate(spec.pairs) for q in pair
        ))
        assert sorted(lift.gates, key=str) == sorted(pairwise.gates, key=str)
        # the padded checks and the parity Paulis, pushed pair by pair
        padded = np.zeros((len(code.checks) + m, 2 * (n + m)), dtype=np.uint8)
        padded[: len(code.checks), :n] = code.check_matrix[:, :n]
        padded[: len(code.checks), n + m : 2 * n + m] = code.check_matrix[:, n:]
        parity_col = n + (n + m if basis == "z" else 0)
        padded[len(code.checks) + np.arange(m), parity_col + np.arange(m)] = 1
        want_phases, want = pairwise.propagate([c.phase for c in code.checks] + [0] * m, padded)
        assert np.array_equal(emb.phases, want_phases)
        assert np.array_equal(emb.check_matrix, want)
        if spec == all_pairs(n):
            assert disjoint_runs(lift) <= 2 * (n - 1)


def test_soundness_check_builds_no_inverse_circuit(monkeypatch):
    calls = []
    inverse = CliffordCircuit.inverse

    def counting_inverse(self):
        calls.append(None)
        return inverse(self)

    monkeypatch.setattr(CliffordCircuit, "inverse", counting_inverse)
    for kind in (RepKind.SSWAP, RepKind.SQRTXSWAP):
        assert discover_embedded_gates(load("n4k2d2"), all_pairs(4), kind).gates
    assert calls == []


def test_interpret_rules_z_basis(four_qubit):
    emb = embed(four_qubit, EmbeddingSpec(4, ((0, 1), (2, 3))))

    def run(*gates):
        return str(interpret(emb, CliffordCircuit(6, gates)))

    assert run(Gate("H", (0,)), Gate("CNOT", (1, 2))) == "H 0; CNOT 1 2"
    assert run(Gate("S", (4,))) == "S 0; S 1; CZ 0 1"
    assert run(Gate("SDG", (5,))) == "SDG 2; SDG 3; CZ 2 3"
    assert run(Gate("Z", (4,))) == "Z 0; Z 1"
    assert run(Gate("I", (4,))) == "I"
    assert run(Gate("SWAP", (4, 1))) == "CNOT 0 1"
    assert run(Gate("SWAP", (0, 4))) == "CNOT 1 0"
    assert run(Gate("SWAP", (4, 5))) == "I"
    assert run(Gate("SWAP", (4, 5)), Gate("S", (4,))) == "S 2; S 3; CZ 2 3"
    assert run(Gate("SWAP", (4, 2))) == "I"  # non-member, vetted separately
    for bad in [Gate("H", (4,)), Gate("SQRTX", (4,)), Gate("X", (4,))]:
        with pytest.raises(EmbeddedInterpretationError):
            run(bad)
    with pytest.raises(EmbeddedInterpretationError):
        run(Gate("CNOT", (0, 4)))
    with pytest.raises(DimensionError):
        interpret(emb, CliffordCircuit(5, (Gate("H", (0,)),)))


def test_interpret_rules_x_basis(four_qubit):
    emb = embed(four_qubit, EmbeddingSpec(4, ((0, 1), (2, 3))), basis="x")

    def run(*gates):
        return str(interpret(emb, CliffordCircuit(6, gates)))

    assert run(Gate("SQRTX", (4,))) == "SQRTX 0; SQRTX 1; CXX 0 1"
    assert run(Gate("X", (5,))) == "X 2; X 3"
    assert run(Gate("SWAP", (4, 1))) == "CNOT 1 0"
    assert run(Gate("SWAP", (0, 4))) == "CNOT 0 1"
    for bad in [Gate("S", (4,)), Gate("H", (4,)), Gate("Z", (4,))]:
        with pytest.raises(EmbeddedInterpretationError):
            run(bad)


def test_sound_swap_with_parity_forced_qubit():
    # ZZZ forces x2 = x0 + x1 on the codespace, so swapping the (0, 1)
    # parity auxiliary with qubit 2 acts as a logical identity
    code = StabilizerCode.from_strings(["ZZZ"])
    emb = embed(code, EmbeddingSpec(3, ((0, 1),)))
    t = tableau(code)
    circ = CliffordCircuit(4, (Gate("SWAP", (2, 3)),))
    interp = interpret(emb, circ)
    assert len(interp) == 0
    assert interpretation_sound(emb, t, circ, interp)


def test_unsound_swap_with_negative_parity_check():
    # with -ZZZ the code space has x2 = x0 + x1 + 1, so the same SWAP as
    # above flips qubit 2 and is not a logical identity
    code = StabilizerCode.from_strings(["-ZZZ"])
    emb = embed(code, EmbeddingSpec(3, ((0, 1),)))
    circ = CliffordCircuit(4, (Gate("SWAP", (2, 3)),))
    assert not interpretation_sound(emb, tableau(code), circ, interpret(emb, circ))


def test_unsound_member_gate_that_moves_the_parity():
    # SQRTX on a member passes through interpret, but it does not commute
    # with the embedding's CNOTs, so it acts differently on the embedded code
    code = StabilizerCode.from_strings(["ZZZ"])
    emb = embed(code, EmbeddingSpec(3, ((0, 1),)))
    circ = CliffordCircuit(4, (Gate("SQRTX", (0,)),))
    interp = interpret(emb, circ)
    assert str(interp) == "SQRTX 0"
    assert not interpretation_sound(emb, tableau(code), circ, interp)


def test_sound_compares_exact_signs():
    # swapping member 0 with the (0, 2) auxiliary is CNOT 2->0; CNOT 1->0
    # matches it on every row only up to the sign of a stabilizer product
    code = StabilizerCode.from_strings(["XZZ", "ZXI"])
    emb = embed(code, EmbeddingSpec(3, ((0, 2),)))
    t = tableau(code)
    circ = CliffordCircuit(4, (Gate("SWAP", (0, 3)),))
    interp = interpret(emb, circ)
    assert str(interp) == "CNOT 2 0"
    assert interpretation_sound(emb, t, circ, interp)
    assert not interpretation_sound(emb, t, circ, CliffordCircuit(3, (Gate("CNOT", (1, 0)),)))


def test_interpret_tracks_pair_members_through_swaps():
    # SWAP 2 1 moves member 2 of the (0, 2) pair to qubit 1, so the
    # auxiliary swap with member 0 is CNOT 1->0 in the relabelled frame
    code = StabilizerCode.from_strings(["XZZ", "ZXI"])
    emb = embed(code, EmbeddingSpec(3, ((0, 2),)))
    circ = CliffordCircuit(
        4, (Gate("SWAP", (2, 1)), Gate("SWAP", (0, 3)), Gate("SWAP", (1, 2)))
    )
    interp = interpret(emb, circ)
    assert str(interp) == "SWAP 2 1; CNOT 1 0; SWAP 1 2"
    assert interpretation_sound(emb, tableau(code), circ, interp)


# what interpret makes of each gate on an auxiliary of pair (a, b)
AUXILIARY_GATES = {
    "z": {
        "I": lambda a, b: [],
        "Z": lambda a, b: [Gate("Z", (a,)), Gate("Z", (b,))],
        "S": lambda a, b: [Gate("S", (a,)), Gate("S", (b,)), Gate("CZ", (a, b))],
        "SDG": lambda a, b: [Gate("SDG", (a,)), Gate("SDG", (b,)), Gate("CZ", (a, b))],
    },
    "x": {
        "I": lambda a, b: [],
        "X": lambda a, b: [Gate("X", (a,)), Gate("X", (b,))],
        "SQRTX": lambda a, b: [Gate("SQRTX", (a,)), Gate("SQRTX", (b,)), Gate("CXX", (a, b))],
    },
}


def interpret_by_rebuild(emb, circ):
    """interpret as first written: every SWAP of two original qubits
    rebuilds the current pair of every auxiliary."""
    n = emb.n
    pairs = list(emb.spec.pairs)
    out = []
    for gate in circ.gates:
        q = gate.qubits
        if all(x < n for x in q):
            out.append(gate)
            if gate.name == "SWAP":
                swap = {q[0]: q[1], q[1]: q[0]}
                pairs = [tuple(swap.get(x, x) for x in pair) for pair in pairs]
        elif len(q) == 1:
            out += AUXILIARY_GATES[emb.basis][gate.name](*pairs[q[0] - n])
        elif min(q) >= n:
            pairs[q[0] - n], pairs[q[1] - n] = pairs[q[1] - n], pairs[q[0] - n]
        else:
            aux, orig = (q[0], q[1]) if q[0] >= n else (q[1], q[0])
            a, b = pairs[aux - n]
            if orig in (a, b):
                other = a if orig == b else b
                out.append(Gate("CNOT", (other, orig) if emb.basis == "z" else (orig, other)))
    return tuple(out)


@pytest.mark.parametrize("basis", ["z", "x"])
def test_interpret_matches_pair_rebuild(basis):
    # seeded random circuits that interleave SWAPs of original qubits,
    # SWAPs of two auxiliaries, auxiliary-original SWAPs, auxiliary gates
    # and gates on original qubits
    rng = np.random.default_rng(17)
    n = 5
    code = StabilizerCode.from_strings(["ZZZZZ"])
    for trial in range(40):
        pairs = all_pairs(n).pairs
        keep = rng.permutation(len(pairs))[: int(rng.integers(1, len(pairs) + 1))]
        emb = embed(code, EmbeddingSpec(n, tuple(pairs[i] for i in keep)), basis)
        total = n + emb.m
        gates = []
        for _ in range(40):
            kind = int(rng.integers(5))
            if kind == 0:
                gates.append(Gate("SWAP", tuple(int(q) for q in rng.choice(n, 2, replace=False))))
            elif kind == 1 and emb.m > 1:
                aux = rng.choice(emb.m, 2, replace=False) + n
                gates.append(Gate("SWAP", tuple(int(q) for q in aux)))
            elif kind == 2:
                pair = [int(rng.integers(n)), n + int(rng.integers(emb.m))]
                gates.append(Gate("SWAP", tuple(pair[:: int(rng.choice([1, -1]))])))
            elif kind == 3:
                name = str(rng.choice(sorted(AUXILIARY_GATES[basis])))
                gates.append(Gate(name, (n + int(rng.integers(emb.m)),)))
            else:
                gates.append(Gate(str(rng.choice(["H", "S", "SQRTX"])), (int(rng.integers(n)),)))
        circ = CliffordCircuit(total, tuple(gates))
        assert interpret(emb, circ).gates == interpret_by_rebuild(emb, circ)


def test_unsound_swap_with_free_qubit(four_qubit):
    # here x2 is not the (0, 1) parity on the codespace, so the dropped
    # SWAP is not a logical identity and must be flagged
    emb = embed(four_qubit, EmbeddingSpec(4, ((0, 1),)))
    t = tableau(four_qubit)
    circ = CliffordCircuit(5, (Gate("SWAP", (2, 4)),))
    interp = interpret(emb, circ)
    assert len(interp) == 0
    assert not interpretation_sound(emb, t, circ, interp)


@pytest.mark.parametrize(
    "kind, parity, rotations, gate",
    [
        (RepKind.HSWAP, "Z", [], None),
        (RepKind.SSWAP, "Z", [(1, 0)], "S"),
        (RepKind.SQRTXSWAP, "X", [(1, 0)], "SQRTX"),
        (RepKind.THREEBLOCK, "Z", [(0, 2, 1)], "S"),
    ],
)
def test_auxiliary_rotations_pinned(kind, parity, rotations, gate):
    # the probes come from the lifting table: the rearrangement whose gate
    # fixes the auxiliary's parity Pauli; H fixes neither, so hswap has none
    assert auxiliary_rotations(kind, parity) == rotations
    for local in rotations:
        assert [g.name for g in perm_to_circuit(kind, local).gates] == [gate]


def test_discovery_reduces_to_plain_when_no_pairs(four_qubit):
    d0 = discover_embedded_gates(four_qubit, EmbeddingSpec(4, ()), RepKind.SSWAP)
    dp = discover_gates(four_qubit, RepKind.SSWAP, RowSource.AS_GIVEN)
    assert d0.search.group.order() == dp.search.group.order()
    assert [str(g.circuit) for g in d0.gates] == [str(g.circuit) for g in dp.gates]
    assert d0.rejected == []


@pytest.mark.parametrize("which", ["z", "x"])
def test_all_pairs_discovery_is_clean(which, z_discovery, x_discovery, four_qubit):
    d = z_discovery if which == "z" else x_discovery
    assert d.embedded.basis == which
    assert d.search.group.order() == 1536
    assert d.rejected == []
    assert len(d.gates) == 9
    t = tableau(four_qubit)
    for g in d.gates:
        assert g.report.valid
        assert g.circuit.two_qubit_count() <= 1
        assert verify_preserves_stabilizers(t, corrected_circuit(g.report, g.circuit))


def test_all_pairs_discovery_finds_pair_rotations(z_discovery, x_discovery):
    actions = {str(g.circuit): g.report.u_act for g in z_discovery.gates + x_discovery.gates}
    for text, target in [
        ("S 0; S 2; CZ 0 2", "S(0)"),
        ("S 0; S 3; CZ 0 3", "S(1)"),
        ("SQRTX 0; SQRTX 3; CXX 0 3", "SQRTX(0)"),
        ("SQRTX 0; SQRTX 2; CXX 0 2", "SQRTX(1)"),
    ]:
        assert text in actions
        assert np.array_equal(actions[text], parse_target(target, 2))
    # one rotation per pair plus the three member swaps, in both bases
    z_texts = sorted(str(g.circuit) for g in z_discovery.gates)
    assert z_texts == sorted(
        ["S %d; S %d; CZ %d %d" % (a, b, a, b) for a, b in all_pairs(4).pairs]
        + ["SWAP 0 1", "SWAP 1 2", "SWAP 2 3"]
    )


def test_combined_action_group_is_full(z_discovery, x_discovery, four_qubit):
    plain = discover_gates(four_qubit, RepKind.THREEBLOCK, RowSource.ALL_CODEWORDS)
    group = LogicalActionGroup(plain.tableau.k)
    for g in plain.gates:
        group.add(g.report.u_act, g.circuit)
    assert group.order() == 36
    for g in z_discovery.gates + x_discovery.gates:
        group.add(g.report.u_act, g.circuit)
    assert group.order() == 720  # |Sp(4, 2)|
