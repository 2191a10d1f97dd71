import dataclasses
import functools

import numpy as np
import pytest

from autgates import logsearch
from autgates.autsearch import matrix_automorphisms
from autgates.binrep import RepKind, RowSource
from autgates.circuits import (
    ONE_QUBIT_GATES,
    TWO_QUBIT_GATES,
    CliffordCircuit,
    Gate,
)
from autgates.cli import main
from autgates.cliffordmap import (
    pauli_correct_and_action,
    verify_preserves_stabilizers,
)
from autgates.codes import bivariate_bicycle, load
from autgates.errors import (
    AutgatesError,
    DimensionError,
    NotRealizableError,
    NotSymplecticError,
    ParseError,
)
from autgates import gf2
from autgates.gf2 import is_symplectic, mat2
from autgates.logsearch import (
    LogicalActionGroup,
    discover_gates,
    parse_action_matrix,
    parse_target,
    symplectic_group_order,
    synthesize,
)
from autgates.permgroup import MatrixElement, PermElement, StabilizerChain
from autgates.stabilizer import StabilizerCode

from oracles import chain_levels, matrix_closure, pauli_identity

FIVE_QUBIT = ["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"]
FOUR_QUBIT = ["XXXX", "ZZZZ"]
STEANE = ["IIIXXXX", "IXXIIXX", "XIXIXIX", "IIIZZZZ", "IZZIIZZ", "ZIZIZIZ"]


def bfs_closure(mats):
    """All products of the generators, each with one explicit word."""
    dim = mats[0].shape[0]
    ident = np.eye(dim, dtype=np.uint8)
    table = {ident.tobytes(): ()}
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            word = table[m.tobytes()]
            for gi, g in enumerate(mats):
                prod = mat2(m, g)
                key = prod.tobytes()
                if key not in table:
                    table[key] = word + ((gi, 1),)
                    nxt.append(prod)
        frontier = nxt
    return table


def gross_code():
    """The [[144,12,12]] gross code (Bravyi et al., Nature 627, 2024)."""
    return bivariate_bicycle(12, 6, [(3, 0), (0, 1), (0, 2)], [(0, 3), (1, 0), (2, 0)])


def word_matrix(group, word):
    """Recompose a word in the group's generators into its action matrix."""
    out = np.eye(2 * group.k, dtype=np.uint8)
    for idx, exp in word:
        g = group.generators[idx][0]
        out = mat2(out, g if exp > 0 else gf2.invert(g))
    return out


def random_circuit(rng, n, length):
    names_1q = ["H", "S", "SDG", "SQRTX", "GAMMA", "GAMMADG"]
    gates = []
    for _ in range(length):
        if n >= 2 and rng.rand() < 0.5:
            q0, q1 = rng.choice(n, size=2, replace=False)
            name = ["SWAP", "CNOT", "CZ", "CXX"][rng.randint(4)]
            gates.append(Gate(name, (int(q0), int(q1))))
        else:
            gates.append(Gate(names_1q[rng.randint(len(names_1q))], (int(rng.randint(n)),)))
    return CliffordCircuit(n, tuple(gates))


@pytest.fixture(scope="module")
def five_qubit_discovery():
    code = StabilizerCode.from_strings(FIVE_QUBIT)
    return discover_gates(code, RepKind.THREEBLOCK, RowSource.ALL_CODEWORDS)


@pytest.fixture(scope="module")
def four_qubit_discovery():
    code = StabilizerCode.from_strings(FOUR_QUBIT)
    return discover_gates(code, RepKind.THREEBLOCK, RowSource.ALL_CODEWORDS)


def test_five_qubit_action_group_is_full_single_qubit_group(five_qubit_discovery):
    res = five_qubit_discovery
    assert res.search.complete
    assert res.search.group.order() == 360
    # every invertible 2x2 binary matrix is symplectic; there are 6
    assert res.group.order() == 6
    table = bfs_closure([u for u, _ in res.group.generators])
    assert len(table) == 6
    for key, word in table.items():
        m = np.frombuffer(key, dtype=np.uint8).reshape(2, 2)
        assert res.group.express(m) is not None
        assert np.array_equal(word_matrix(res.group, word), m)


def test_hswap_codeword_group_action_is_duality_only():
    code = StabilizerCode.from_strings(FIVE_QUBIT)
    res = discover_gates(code, RepKind.HSWAP, RowSource.ALL_CODEWORDS)
    assert res.search.group.order() == 20
    assert res.group.order() == 2
    h = parse_target("H(0)", 1)
    assert res.group.express(h) is not None
    assert res.group.express(parse_target("S(0)", 1)) is None
    with pytest.raises(NotRealizableError):
        synthesize(res.group, parse_target("S(0)", 1), res.tableau)


def test_every_discovered_gate_is_verified(five_qubit_discovery):
    res = five_qubit_discovery
    assert len(res.gates) == len(res.search.generators)
    for gate in res.gates:
        assert gate.report.valid
        assert verify_preserves_stabilizers(
            res.tableau,
            synthesize(res.group, gate.report.u_act, res.tableau).corrected,
        )


def test_synthesize_named_single_qubit_targets(five_qubit_discovery):
    res = five_qubit_discovery
    allowed = set(ONE_QUBIT_GATES) | {"SWAP"}
    for name in ["S(0)", "H(0)", "GAMMA(0)", "GAMMADG(0)", "SQRTX(0)"]:
        target = parse_target(name, 1)
        syn = synthesize(res.group, target, res.tableau)
        assert np.array_equal(word_matrix(res.group, syn.word), target)
        assert syn.report.valid
        assert np.array_equal(syn.report.u_act, target)
        assert all(g.name in allowed for g in syn.circuit.gates)
        assert verify_preserves_stabilizers(res.tableau, syn.corrected)
        recheck = pauli_correct_and_action(res.tableau, syn.corrected)
        assert recheck.valid
        assert recheck.pauli_correction == pauli_identity(5)
        assert np.array_equal(recheck.u_act, target)


def test_synthesize_identity_is_empty(five_qubit_discovery):
    res = five_qubit_discovery
    syn = synthesize(res.group, parse_target("I", 1), res.tableau)
    assert syn.word == ()
    assert len(syn.circuit.gates) == 0
    assert len(syn.corrected.gates) == 0


def test_four_qubit_group_contains_paper_suite(four_qubit_discovery):
    res = four_qubit_discovery
    assert res.group.k == 2
    names = ["H(0) H(1)", "CZ(0,1)", "CNOT(0,1)", "CNOT(1,0)", "SWAP(0,1)"]
    for name in names:
        target = parse_target(name, 2)
        syn = synthesize(res.group, target, res.tableau)
        assert np.array_equal(syn.report.u_act, target)
        assert verify_preserves_stabilizers(res.tableau, syn.corrected)
    # single-qubit phases need the embedded construction
    with pytest.raises(NotRealizableError):
        synthesize(res.group, parse_target("S(0)", 2), res.tableau)


def test_four_qubit_membership_matches_bfs_oracle(four_qubit_discovery):
    res = four_qubit_discovery
    table = bfs_closure([u for u, _ in res.group.generators])
    assert len(table) == res.group.order()
    rng = np.random.RandomState(11)
    hits = 0
    for _ in range(60):
        m = random_circuit(rng, 2, rng.randint(1, 9)).symplectic()
        inside = res.group.express(m) is not None
        assert inside == (m.tobytes() in table)
        hits += inside
    assert 0 < hits < 60


def test_word_indices_survive_redundant_generators():
    h = np.array([[0, 1], [1, 0]], dtype=np.uint8)
    s = np.array([[1, 1], [0, 1]], dtype=np.uint8)
    group = LogicalActionGroup(1)
    assert group.add(h, CliffordCircuit(1, (Gate("H", (0,)),)))
    assert not group.add(h, CliffordCircuit(1, (Gate("H", (0,)),)))
    assert group.add(s, CliffordCircuit(1, (Gate("S", (0,)),)))
    assert len(group.generators) == 3
    assert group.order() == 6
    target = mat2(h, s)
    word = group.express(target)
    assert word is not None
    assert all(idx < 3 for idx, _ in word)
    # the redundant second H never enters the chain, so never the word
    assert all(idx != 1 for idx, _ in word)
    assert np.array_equal(word_matrix(group, word), target)
    circ = group.word_circuit(word, 1)
    assert np.array_equal(circ.symplectic(), target)


def test_word_circuit_applies_inverse_exponents():
    s = np.array([[1, 1], [0, 1]], dtype=np.uint8)
    group = LogicalActionGroup(1)
    group.add(s, CliffordCircuit(1, (Gate("S", (0,)),)))
    circ = group.word_circuit(((0, -1),), 1)
    assert np.array_equal(circ.symplectic(), s)
    assert [g.name for g in circ.gates] == ["SDG"]


@pytest.mark.parametrize("k", [31, 32, 33])
def test_action_group_beyond_64_bit_rows(k):
    # 2k >= 64 columns no longer fit one int64 per row
    circ = CliffordCircuit(k, (Gate("H", (k - 1,)), Gate("CNOT", (0, k - 1))))
    u = circ.symplectic()
    group = LogicalActionGroup(k)
    assert group.add(u, circ)
    assert group.order() == 4
    assert group.express(u) is not None
    assert np.array_equal(word_matrix(group, group.express(u)), u)


def test_action_chain_skips_redundant_work(monkeypatch):
    # Z plus 8 idle qubits: the action group is the monomial group
    # S_8 x 2^8, far below the |Sp(16, 2)| bound, so no known-order stop
    # cuts these inserts short and every Schreier generator is sifted.
    # That takes about 1,400 compositions only because each transversal
    # element is composed on first use, not at every tree rebuild
    code = StabilizerCode.from_strings(["Z" + "I" * 8])
    found = discover_gates(code, RepKind.HSWAP, RowSource.AS_GIVEN)
    calls = {"compose": 0, "rref": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(MatrixElement, "compose", counted("compose", MatrixElement.compose))
    monkeypatch.setattr(gf2, "rref", counted("rref", gf2.rref))
    group = LogicalActionGroup(8)
    for u, circ in found.group.generators:
        group.add(u, circ)
    assert group.order() == 40320 * 2**8
    assert calls["rref"] == 0
    assert calls["compose"] < 2000


def plain_chain(group):
    """The chain of group's actions, built by StabilizerChain.add with no bound."""
    dim = 2 * group.k
    chain = StabilizerChain(MatrixElement.identity(dim), tuple(1 << i for i in range(dim)))
    for idx, (u, _) in enumerate(group.generators):
        chain.add(MatrixElement.from_matrix(u, ((idx, 1),)), bound=None)
    return chain


def assert_bound_changes_no_level(found, complete=True):
    """The chain built with the prefix orders as bounds equals the chain built without."""
    assert found.search.complete == complete
    plain = plain_chain(found.group)
    # the bounds hold because the actions are a homomorphic image of the
    # group found, also when the search was cut short
    assert plain.order() <= found.search.group.order()
    assert chain_levels(found.group._chain) == chain_levels(plain)


@pytest.mark.parametrize("name", ["n4k2d2", "n5k1d3", "steane"])
def test_order_bound_keeps_the_chain_small_codes(name):
    code = StabilizerCode.from_strings(STEANE) if name == "steane" else load(name)
    for kind in RepKind:
        for rows in (RowSource.AS_GIVEN, RowSource.ALL_CODEWORDS):
            assert_bound_changes_no_level(discover_gates(code, kind, rows))


@pytest.mark.parametrize("kind", [RepKind.HSWAP, RepKind.THREEBLOCK])
@pytest.mark.parametrize("name", ["bb72", "gross"])
def test_order_bound_keeps_the_chain_large_codes(name, kind):
    code = load("bb72") if name == "bb72" else gross_code()
    assert_bound_changes_no_level(discover_gates(code, kind, RowSource.AS_GIVEN))


def test_order_bound_keeps_the_chain_budget_cut(monkeypatch):
    # node budgets that cut each search after 0 to 6 generators
    cut = [(StabilizerCode.from_strings(STEANE), RepKind.THREEBLOCK, RowSource.ALL_CODEWORDS, m)
           for m in (1, 3, 6, 10, 20)]
    cut += [(load("bb72"), kind, RowSource.AS_GIVEN, m)
            for kind in (RepKind.HSWAP, RepKind.THREEBLOCK) for m in (8, 12, 15)]
    for code, kind, rows, max_nodes in cut:
        monkeypatch.setattr(
            logsearch, "matrix_automorphisms",
            functools.partial(matrix_automorphisms, max_nodes=max_nodes),
        )
        assert_bound_changes_no_level(discover_gates(code, kind, rows), complete=False)


@pytest.mark.parametrize(
    "checks", [["X" * 18, "Z" * 18], ["Z" + "I" * 8]], ids=["iceberg18", "z8"]
)
def test_order_bound_keeps_the_chain_many_logical_qubits(checks):
    code = StabilizerCode.from_strings(checks)
    assert_bound_changes_no_level(discover_gates(code, RepKind.HSWAP, RowSource.AS_GIVEN))


def test_prefix_orders_stop_the_bb72_sifts(monkeypatch):
    # with |Aut| as the only bound, every insert but the last closed its
    # group in full: 1,016 sifts
    calls = [0]
    add = StabilizerChain._add

    def counted(self, gen, stop):
        calls[0] += 1
        return add(self, gen, stop)

    monkeypatch.setattr(StabilizerChain, "_add", counted)
    found = discover_gates(load("bb72"), RepKind.HSWAP, RowSource.AS_GIVEN)
    assert found.group.order() == 864
    assert calls[0] < 100


def test_carried_kernel_stops_the_gross_sifts(monkeypatch):
    # gross's automorphisms map 2:1 onto its actions; bounding insert j by
    # |H_j| alone, the last insert sifted every Schreier generator: 230
    bounds, calls = [], [0]
    add, chain_add = LogicalActionGroup.add, StabilizerChain._add

    def recorded(self, u_act, circuit, bound=None):
        bounds.append(bound)
        return add(self, u_act, circuit, bound)

    def counted(self, gen, stop):
        calls[0] += 1
        return chain_add(self, gen, stop)

    monkeypatch.setattr(LogicalActionGroup, "add", recorded)
    monkeypatch.setattr(StabilizerChain, "_add", counted)
    found = discover_gates(gross_code(), RepKind.HSWAP, RowSource.AS_GIVEN)
    assert found.search.group.prefix_orders() == [6, 72, 144, 288]
    assert bounds == [6, 72, 72, 144]
    assert found.group.order() == 144
    assert found.search.group.order() == 288
    assert calls[0] < 80


def test_symplectic_group_order():
    # H and S on each qubit and one CNOT generate all of Sp(2k, 2)
    for k, names in ((1, ["H(0)", "S(0)"]), (2, ["H(0)", "S(0)", "H(1)", "S(1)", "CNOT(0,1)"])):
        assert symplectic_group_order(k) == len(matrix_closure([parse_target(t, k) for t in names]))
    assert [symplectic_group_order(k) for k in range(4)] == [1, 6, 720, 1451520]


def test_sp_bound_stops_the_embedded_sifts(monkeypatch, tmp_path):
    # find-gate --embed all adds embedded gates with no prefix order to
    # bound them.  They generate the whole Sp(2k, 2) on these codes, so
    # the |Sp(2k, 2)| default stops their inserts: 921 sifts over the 17
    # targets, against 1,785 with no stop
    steane = tmp_path / "steane.stab"
    steane.write_text("\n".join(STEANE) + "\n")
    targets = {
        "n4k2d2": ["H(0)", "H(1)", "S(0)", "S(1)", "CNOT(0,1)", "CNOT(1,0)", "CZ(0,1)",
                   "SWAP(0,1)", "CXX(0,1)"],
        "n5k1d3": ["H(0)", "S(0)", "SQRTX(0)", "GAMMA(0)"],
        str(steane): ["H(0)", "S(0)", "SQRTX(0)", "GAMMA(0)"],
    }
    calls = [0]
    add = StabilizerChain._add

    def counted(self, gen, stop):
        calls[0] += 1
        return add(self, gen, stop)

    monkeypatch.setattr(StabilizerChain, "_add", counted)
    for code, names in targets.items():
        for target in names:
            assert main(["find-gate", code, "--target", target, "--embed", "all"]) == 0
    assert calls[0] <= 1000


def test_actions_that_break_lagrange_raise(monkeypatch):
    # n5k1d3's first automorphism generates a group of order 2; an action
    # of order 3 in its place cannot be its image
    real = logsearch.pauli_correct_and_action
    order_three = np.array([[0, 1], [1, 1]], dtype=np.uint8)
    calls = [0]

    def first_of_order_three(t, circ):
        report = real(t, circ)
        if calls[0] == 0:
            report = dataclasses.replace(report, u_act=order_three)
        calls[0] += 1
        return report

    monkeypatch.setattr(logsearch, "pauli_correct_and_action", first_of_order_three)
    code = StabilizerCode.from_strings(FIVE_QUBIT)
    with pytest.raises(AutgatesError, match="not an image"):
        discover_gates(code, RepKind.HSWAP, RowSource.AS_GIVEN)


def test_trees_compose_on_first_use(monkeypatch):
    # a rebuild records each orbit point's edge and composes nothing, so
    # bb72 hswap's recorded actions build their chain in 47 compositions;
    # eager trees, which compose every orbit point's element, took 544
    calls = [0]

    def counted(fn):
        def wrapper(*args):
            calls[0] += 1
            return fn(*args)

        return wrapper

    for cls in (MatrixElement, PermElement):
        monkeypatch.setattr(cls, "compose", counted(cls.compose))
    plain_rebuild = StabilizerChain._rebuild_tree

    def composes_nothing(chain):
        before = calls[0]
        plain_rebuild(chain)
        assert calls[0] == before

    monkeypatch.setattr(StabilizerChain, "_rebuild_tree", composes_nothing)
    found = discover_gates(load("bb72"), RepKind.HSWAP, RowSource.AS_GIVEN)
    calls[0] = 0
    group = LogicalActionGroup(found.group.k)
    bounds = found.search.group.prefix_orders()
    for (u, circ), bound in zip(found.group.generators, bounds):
        group.add(u, circ, bound)
    assert group.order() == 864
    assert calls[0] <= 60


def test_synthesize_rejects_bad_targets(five_qubit_discovery):
    res = five_qubit_discovery
    with pytest.raises(DimensionError):
        synthesize(res.group, np.eye(4, dtype=np.uint8), res.tableau)
    with pytest.raises(NotSymplecticError):
        synthesize(
            res.group,
            np.array([[1, 1], [1, 1]], dtype=np.uint8),
            res.tableau,
        )


def test_parse_target_named_gates():
    assert np.array_equal(parse_target("I", 1), np.eye(2, dtype=np.uint8))
    assert parse_target("S(0)", 1).tolist() == [[1, 1], [0, 1]]
    assert parse_target("H(0)", 1).tolist() == [[0, 1], [1, 0]]
    two = parse_target("CNOT(0,1)", 2)
    assert np.array_equal(
        two, CliffordCircuit(2, (Gate("CNOT", (0, 1)),)).symplectic()
    )
    seq = parse_target("H(0) S(0)", 1)
    assert np.array_equal(
        seq,
        CliffordCircuit(1, (Gate("H", (0,)), Gate("S", (0,)))).symplectic(),
    )
    assert np.array_equal(parse_target("h(0); s(0)", 1), seq)
    assert np.array_equal(
        parse_target("CNOT(0, 1)", 2), parse_target("CNOT(0,1)", 2)
    )
    # Pauli terms act as the identity on the symplectic level
    assert np.array_equal(parse_target("X(0) Z(0)", 1), np.eye(2, dtype=np.uint8))


def test_parse_target_rejects_malformed():
    for bad in ["Q(0)", "S", "S()", "CNOT(0)", "CNOT(0,0)", "S(0", "S(1)"]:
        with pytest.raises(ParseError):
            parse_target(bad, 1)
    with pytest.raises(ParseError):
        parse_target("SWAP(0,2)", 2)


def test_parse_action_matrix():
    text = "10  # comment\n01\n"
    assert parse_action_matrix(text).tolist() == [[1, 0], [0, 1]]
    spaced = "0 1, 0 0\n1 0 0 0\n0 0 0 1\n0 0 1 0\n"
    m = parse_action_matrix(spaced)
    assert m.shape == (4, 4)
    assert is_symplectic(m)
    for bad in ["", "102\n010\n001", "10\n0", "10\n01\n11", "1\n"]:
        with pytest.raises(ParseError):
            parse_action_matrix(bad)
