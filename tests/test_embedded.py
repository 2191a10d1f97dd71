import numpy as np
import pytest

from autgates.binrep import RepKind, RowSource
from autgates.circuits import CliffordCircuit, Gate
from autgates.cliffordmap import corrected_circuit, verify_preserves_stabilizers
from autgates.embedded import (
    EmbeddingSpec,
    all_pairs,
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
    assert np.array_equal(spec.matrix, bits(["1100", "0011"]))
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


def test_embedded_check_matrix_matches_worked_example(four_qubit):
    emb = embed(four_qubit, all_pairs(4))
    assert emb.basis == "z"
    assert emb.n == 4 and emb.m == 6
    assert np.array_equal(emb.code.check_matrix, bits(FOUR_QUBIT_ALL_PAIRS_CHECKS))


def test_embedded_check_matrix_small_cases():
    # an X check copies onto an auxiliary only when it covers one member
    xx = StabilizerCode.from_strings(["XX"])
    emb = embed(xx, EmbeddingSpec(2, ((0, 1),)))
    assert [c.to_string() for c in emb.code.checks] == ["XXI", "ZZZ"]
    xi = StabilizerCode.from_strings(["XI"])
    emb = embed(xi, EmbeddingSpec(2, ((0, 1),)))
    assert [c.to_string() for c in emb.code.checks] == ["XIX", "ZZZ"]
    # the X-type dual copies Z checks instead and holds X parities
    zi = StabilizerCode.from_strings(["ZI"])
    emb = embed(zi, EmbeddingSpec(2, ((0, 1),)), basis="x")
    assert [c.to_string() for c in emb.code.checks] == ["ZIZ", "XXX"]


def test_embed_validates_spec_and_basis(four_qubit):
    with pytest.raises(DimensionError):
        embed(four_qubit, EmbeddingSpec(5, ((0, 1),)))
    with pytest.raises(DimensionError):
        embed(four_qubit, all_pairs(4), basis="y")


def block_formula(code, spec, basis):
    """G_V of the module docstring, assembled from G_X, G_Z and M."""
    n, c, m = code.n, len(code.checks), spec.m
    gx, gz = code.check_matrix[:, :n], code.check_matrix[:, n:]
    mat, eye = spec.matrix, np.eye(m, dtype=np.uint8)

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
        assert np.array_equal(emb.code.check_matrix, block_formula(code, spec, basis))
        # lifted checks keep their sign, parity checks are +
        want = [c.phase for c in code.checks] + [0] * spec.m
        assert [c.phase for c in emb.code.checks] == want
    if name == "signed_y":
        emb = embed(code, EmbeddingSpec(4, ((0, 2),)), basis=basis)
        want = {
            "z": ["-YYIIX", "XXXXI", "-ZZZZI", "ZIZIZ"],
            "x": ["-YYIIZ", "XXXXI", "-ZZZZI", "XIXIX"],
        }
        assert [c.to_string() for c in emb.code.checks] == want[basis]


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


def test_unsound_swap_with_free_qubit(four_qubit):
    # here x2 is not the (0, 1) parity on the codespace, so the dropped
    # SWAP is not a logical identity and must be flagged
    emb = embed(four_qubit, EmbeddingSpec(4, ((0, 1),)))
    t = tableau(four_qubit)
    circ = CliffordCircuit(5, (Gate("SWAP", (2, 4)),))
    interp = interpret(emb, circ)
    assert len(interp) == 0
    assert not interpretation_sound(emb, t, circ, interp)


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
        assert g.two_qubit_count <= 1
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
