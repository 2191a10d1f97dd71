"""Acceptance suite: one test per shipped guarantee, each with a time budget.

Every test here exercises a complete user-facing behavior end to end:
published code facts, discovery group orders, synthesis with exact
corrections, embedded two-qubit gates, the structured-group formula,
decomposition roundtrips and the phase-rule oracle.
"""

import hashlib
import json
import math
import time

import numpy as np

from autgates.autsearch import matrix_automorphisms
from autgates.binrep import RepKind, RowSource, build, row_augmented_matrix
from autgates.circuits import (
    CliffordCircuit,
    Gate,
    TWO_QUBIT_GATES,
    circuit_from_text,
)
from autgates.circdecomp import decompose, to_circuit
from autgates.cliffordmap import (
    corrected_circuit,
    pauli_correct_and_action,
    verify_preserves_stabilizers,
)
from autgates.cli import main
from autgates.codes import bivariate_bicycle, load
from autgates.embedded import all_pairs, discover_embedded_gates
from autgates.logsearch import (
    LogicalActionGroup,
    discover_gates,
    parse_target,
    synthesize,
)
from autgates.pauli import PhasedPauli
from autgates.stabilizer import StabilizerCode, standard_form, tableau

from oracles import (
    block_automorphisms,
    dense_conjugate,
    in_row_span,
    matrix_closure,
    pauli_identity,
)

FIVE_QUBIT_STANDARD_FORM = np.array(
    [
        [1, 0, 0, 0, 1, 1, 1, 0, 1, 1],
        [0, 1, 0, 0, 1, 0, 0, 1, 1, 0],
        [0, 0, 1, 0, 1, 1, 1, 0, 0, 0],
        [0, 0, 0, 1, 1, 1, 0, 1, 1, 1],
    ],
    dtype=np.uint8,
)

HADAMARD_K1 = np.array([[0, 1], [1, 0]], dtype=np.uint8)


def threeblock_group(strings, n=None):
    """Searched automorphism group of the given rows' threeblock matrix,
    returned with those threeblock rows."""
    if strings:
        code = StabilizerCode.from_strings(strings, n=n)
    else:
        code = StabilizerCode([], n=n)
    mat, colors = row_augmented_matrix(code.check_matrix, RepKind.THREEBLOCK, RowSource.AS_GIVEN)
    return matrix_automorphisms(mat, colors).group, build(code.check_matrix, RepKind.THREEBLOCK)


def threeblock_order(strings, n=None):
    return threeblock_group(strings, n)[0].order()


def test_01_five_qubit_standard_form():
    start = time.perf_counter()
    code = load("n5k1d3")
    sf = standard_form(code)
    assert (sf.r, sf.s, sf.k) == (4, 0, 1)
    assert np.array_equal(sf.unpermute(sf.g_std), FIVE_QUBIT_STANDARD_FORM)
    t = tableau(code)
    lx = PhasedPauli.from_vector(t.tau[t.logical_x_rows][0]).to_string()
    lz = PhasedPauli.from_vector(t.tau[t.logical_z_rows][0]).to_string()
    assert lx == "ZIIZX"
    assert lz == "ZZZZZ"
    assert time.perf_counter() - start < 1.0


def test_02_five_qubit_h_swap_group():
    start = time.perf_counter()
    d = discover_gates(load("n5k1d3"), RepKind.HSWAP, RowSource.ALL_CODEWORDS)
    assert d.search.complete
    assert d.search.group.order() == 20
    assert any(np.array_equal(g.report.u_act, HADAMARD_K1) for g in d.gates)
    assert time.perf_counter() - start < 10.0


def test_03_five_qubit_matrix_automorphism_orders():
    """Threeblock automorphism orders of one code under three row sets.

    The [[5,1,3]] code's independent standard-form generators (YZIZY,
    IXZZX, ZZXIX, ZIZYY up to sign) give order 4, its five cyclic shifts
    give 20 and all 16 codewords give 360: the group found depends on the
    generator set handed to the search (4 < 20 < 360).  The order-4 group
    is cyclic, generated by the qubit 4-cycle (0 1 3 2) with the z and x+z
    columns swapped on every qubit.  Its square is the qubit swap
    (0 3)(1 2), which maps YZIZY <-> ZIZYY and IXZZX <-> ZZXIX.
    """
    start = time.perf_counter()
    code = load("n5k1d3")
    sf = standard_form(code)
    gens = [
        PhasedPauli.from_vector(v).to_string()
        for v in sf.unpermute(sf.g_std)
    ]
    group_std, rows_std = threeblock_group(gens)
    cyclic = ["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ", "ZZXIX"]
    group_cyclic, rows_cyclic = threeblock_group(cyclic)
    mat, colors = row_augmented_matrix(code.check_matrix, RepKind.THREEBLOCK, RowSource.ALL_CODEWORDS)
    order_all = matrix_automorphisms(mat, colors).group.order()
    assert time.perf_counter() - start < 30.0
    assert (group_std.order(), group_cyclic.order(), order_all) == (4, 20, 360)

    # Brute force over S3 wr S5, sharing no code with the search.  The 16
    # codeword rows (16! row bijections) are out of its reach: a plain
    # enumeration of all 6**5 * 5! elements of S3 wr S5 confirms 360 but
    # takes about 19 s in pure Python (x86-64, Python 3.11).
    for group, rows in ((group_std, rows_std), (group_cyclic, rows_cyclic)):
        brute = block_automorphisms(rows, 5, 3)
        assert group.order() == len(brute)
        assert all(group.contains(images) for images in brute)
    swap = (3, 2, 1, 0, 4)  # qubit permutation (0 3)(1 2)
    assert group_std.contains(
        tuple(b * 5 + swap[q] for b in range(3) for q in range(5))
    )


def test_04_five_qubit_s_and_gamma_synthesis():
    start = time.perf_counter()
    code = load("n5k1d3")
    d = discover_gates(code, RepKind.THREEBLOCK, RowSource.ALL_CODEWORDS)
    t = d.tableau

    s_result = synthesize(d.group, parse_target("S(0)", 1), t)
    assert s_result.report.valid
    assert verify_preserves_stabilizers(t, s_result.corrected)

    g_result = synthesize(d.group, parse_target("GAMMA(0)", 1), t)
    assert g_result.report.valid
    assert verify_preserves_stabilizers(t, g_result.corrected)
    corr = g_result.report.pauli_correction
    assert corr != pauli_identity(5)
    # the correction is the logical Y class: correction * Y-bar lies in
    # the stabilizer rowspan
    ybar = t.tau[t.logical_x_rows][0] ^ t.tau[t.logical_z_rows][0]
    assert in_row_span(t.stabilizers, corr.vector() ^ ybar)
    assert time.perf_counter() - start < 10.0


FOUR_QUBIT_TARGETS = [
    ("H(0);H(1)", "H 0\nH 1\nH 2\nH 3\nSWAP 2 3\n"),
    ("CZ(0,1)", "SDG 0\nSDG 1\nS 2\nS 3\n"),
    ("CNOT(0,1)", "SWAP 1 3\n"),
    ("CNOT(1,0)", "SWAP 1 2\n"),
    ("SWAP(0,1)", "SWAP 2 3\n"),
]


def test_05_four_qubit_swap_transversal_suite(tmp_path, capsys):
    start = time.perf_counter()
    code = load("n4k2d2")
    d = discover_gates(code, RepKind.THREEBLOCK, RowSource.ALL_CODEWORDS)
    for target, _ in FOUR_QUBIT_TARGETS:
        assert d.group.express(parse_target(target, 2)) is not None
    for i, (target, circuit_text) in enumerate(FOUR_QUBIT_TARGETS):
        path = tmp_path / ("circ%d.txt" % i)
        path.write_text(circuit_text)
        rc = main(["verify", "n4k2d2", str(path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "verdict: valid" in out
        want = ";".join(
            "".join(str(int(b)) for b in row) for row in parse_target(target, 2)
        )
        assert ("action: %s" % want) in out
    assert time.perf_counter() - start < 5.0


def test_06_four_qubit_embedded_suite():
    start = time.perf_counter()
    code = load("n4k2d2")
    t = tableau(code)
    z_disc = discover_embedded_gates(code, all_pairs(4), RepKind.SSWAP)
    x_disc = discover_embedded_gates(code, all_pairs(4), RepKind.SQRTXSWAP)
    embedded = z_disc.gates + x_disc.gates
    for target in ("S(0)", "S(1)", "SQRTX(0)", "SQRTX(1)"):
        want = parse_target(target, 2)
        hits = [g for g in embedded if np.array_equal(g.report.u_act, want)]
        assert hits, target
        for g in hits:
            assert g.report.valid
            assert g.circuit.two_qubit_count() <= 1
            assert verify_preserves_stabilizers(
                t, corrected_circuit(g.report, g.circuit)
            )
    plain = discover_gates(code, RepKind.THREEBLOCK, RowSource.ALL_CODEWORDS)
    group = LogicalActionGroup(t.k)
    for g in plain.gates:
        group.add(g.report.u_act, g.circuit)
    assert group.order() == 36
    for g in embedded:
        group.add(g.report.u_act, g.circuit)
    assert group.order() == 720  # |Sp(4, 2)|
    assert time.perf_counter() - start < 60.0


def test_07_free_qubit_group_formula():
    start = time.perf_counter()
    for n in (1, 2, 3):
        assert threeblock_order([], n=n) == 6**n * math.factorial(n)
    assert time.perf_counter() - start < 10.0


SINGLE_QUBIT_CLIFFORDS = ("H", "S", "SDG", "SQRTX", "GAMMA", "GAMMADG")


def _random_circuit(rng, n, length):
    lines = []
    for _ in range(length):
        if n >= 2 and rng.rand() < 0.5:
            name = TWO_QUBIT_GATES[rng.randint(len(TWO_QUBIT_GATES))]
            a, b = rng.choice(n, size=2, replace=False)
            lines.append("%s %d %d" % (name, a, b))
        else:
            name = SINGLE_QUBIT_CLIFFORDS[rng.randint(len(SINGLE_QUBIT_CLIFFORDS))]
            lines.append("%s %d" % (name, rng.randint(n)))
    return circuit_from_text("\n".join(lines), n=n)


def test_08_decomposition_roundtrip():
    start = time.perf_counter()
    rng = np.random.RandomState(8)
    for trial in range(1000):
        n = 1 + trial % 8
        u = _random_circuit(rng, n, 2 * n + 6).symplectic()
        layers = decompose(u)
        assert np.array_equal(to_circuit(layers).symplectic(), u)
    assert time.perf_counter() - start < 30.0


def test_09_phase_rule_oracle_equivalence():
    start = time.perf_counter()
    for name in SINGLE_QUBIT_CLIFFORDS:
        circ = CliffordCircuit(1, [Gate(name, (0,))])
        for phase in range(4):
            for x in range(2):
                for z in range(2):
                    p = PhasedPauli(phase, [x], [z])
                    assert circ.conjugate(p) == dense_conjugate(circ, p)
    combos = 0
    for name in TWO_QUBIT_GATES:
        circ = CliffordCircuit(2, [Gate(name, (0, 1))])
        for phase in range(4):
            for bits in range(16):
                x = [bits & 1, (bits >> 1) & 1]
                z = [(bits >> 2) & 1, (bits >> 3) & 1]
                p = PhasedPauli(phase, x, z)
                assert circ.conjugate(p) == dense_conjugate(circ, p)
                combos += 1
    assert combos == 256
    assert time.perf_counter() - start < 1.0


BB72_WORDS_SHA256 = {
    RepKind.HSWAP: "9d284cb918f0772d11a823c37409449fe365ae894cb25cda9246cd7e079b052d",
    RepKind.THREEBLOCK: "bee471d370b9e24063b4c9ca397943642c549bb839cb522d4ec2ac0cfaca185e",
}


def test_10_bicycle_code_automorphisms():
    for kind, digest in BB72_WORDS_SHA256.items():
        d = discover_gates(load("bb72"), kind, RowSource.AS_GIVEN)
        assert d.search.complete
        assert d.search.group.order() == 864
        assert d.group.order() == 864
        # every element's membership word, pinned: elements are the closure
        # of the generator actions in the order of their matrix bytes
        elements = matrix_closure([u for u, _ in d.group.generators])
        words = [d.group.express(elements[key]) for key in sorted(elements)]
        assert len(words) == 864
        assert hashlib.sha256(repr(words).encode()).hexdigest() == digest


BB72_GATES_SHA256 = {
    "hswap": "cde8080cca83334be77031bb6ee73474bc670ec95e6bbbe7c8629f4c743f9c68",
    "threeblock": "d182a61f76f754e3cd15294f6f935b7e2de86a08d618f95f85f44d744610c230",
}


def test_10_bicycle_code_gates(capsys):
    """gates --json on bb72, stdout pinned by sha256: base path, nodes, circuits."""
    start = time.perf_counter()
    for rep, nodes in (("hswap", 19), ("threeblock", 19)):
        rc = main(["gates", "bb72", "--rep", rep, "--json"])
        out = capsys.readouterr().out
        assert rc == 0
        doc = json.loads(out)
        assert doc["search"] == {"complete": True, "nodes": nodes, "order": 864}
        assert hashlib.sha256(out.encode()).hexdigest() == BB72_GATES_SHA256[rep]
    assert time.perf_counter() - start < 3.0


GROSS_GATES_SHA256 = {
    "hswap": "792ccf903ba2cde88cef5413a7fbb1e08fe08d25a48ad073dd9416531576ed29",
    "threeblock": "864386bb1b600aa2d0b378a591122db83fd783f25919b52c62ee130a131dae13",
}


def test_11_gross_code_gates(tmp_path, capsys):
    """gates --json on the [[144,12,12]] gross code, stdout pinned by sha256."""
    code = bivariate_bicycle(12, 6, [(3, 0), (0, 1), (0, 2)], [(0, 3), (1, 0), (2, 0)])
    path = tmp_path / "gross.stab"
    path.write_text("".join(c.to_string() + "\n" for c in code.checks))
    start = time.perf_counter()
    for rep, nodes in (("hswap", 6), ("threeblock", 10)):
        rc = main(["gates", str(path), "--rep", rep, "--json"])
        out = capsys.readouterr().out
        assert rc == 0
        doc = json.loads(out)
        assert doc["search"] == {"complete": True, "nodes": nodes, "order": 288}
        assert len(doc["generators"]) == 4
        assert doc["action_group_order"] == 144
        assert hashlib.sha256(out.encode()).hexdigest() == GROSS_GATES_SHA256[rep]
    assert time.perf_counter() - start < 3.0


ICEBERG34_GATES_SHA256 = "172e46165b86660c57b9915f8d19c803f4eab7b3a2eefa7b6925355d618da7c4"


def test_12_iceberg_code_gates(tmp_path, capsys):
    """gates --json on the [[34,32,2]] iceberg code, whose action chain has k = 32."""
    path = tmp_path / "iceberg34.stab"
    path.write_text("X" * 34 + "\n" + "Z" * 34 + "\n")
    start = time.perf_counter()
    rc = main(["gates", str(path), "--rep", "hswap", "--json"])
    out = capsys.readouterr().out
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ICEBERG34_GATES_SHA256
    assert time.perf_counter() - start < 3.0
