"""End-to-end tests for the command line interface.

Everything runs in-process through main(argv) so exit codes and exact
stdout bytes can be asserted.  Timing goes to stderr only, so stdout
must be identical across repeated runs of the same command.
"""

import json

import numpy as np
import pytest

from autgates.circuits import circuit_from_text, pauli_to_gates
from autgates.cli import main
from autgates.cliffordmap import verify_preserves_stabilizers
from autgates.logsearch import LogicalActionGroup
from autgates.pauli import PhasedPauli
from autgates.stabilizer import parse_code_file, tableau

from oracles import dense_logical_action_holds

ANALYZE_N5 = """\
code: n=5 k=1 checks=4
standard form: r=4 s=0
qubit order: 0 1 2 3 4
  -10001|11011
  +01001|00110
  +00101|11000
  -00011|10111
logical X:
  ZIIZX
logical Z:
  ZZZZZ
destabilizers:
  ZIIII
  IZIII
  IIZII
  IIIZI
tableau: symplectic
"""

# codes with checks that have an odd number of Y factors, which are Hermitian
ODD_Y_CODES = {
    "YXXX": "YXXX\nZZZZ\n",
    "-YXXX": "-YXXX\nZZZZ\n",
    "five-qubit-S0": "YZZXI\nIXZZX\nYIXZZ\nZXIXZ\n",
    "XYZ": "XYZ\n",
}

ANALYZE_MINUS_YXXX = """\
code: n=4 k=2 checks=2
standard form: r=1 s=1
qubit order: 0 1 2 3
  -i1111|1000
  +0000|1111
logical X:
  IXXI
  IXIX
logical Z:
  ZIZI
  ZIIZ
destabilizers:
  ZIII
  IXII
tableau: symplectic
"""

GATES_N5_HSWAP = """\
code: n=5 k=1 checks=4
representation: hswap
rows: codewords
automorphism group: order 20 (complete, 8 nodes)
action group: order 2
generators: 3
generator 0:
  permutation: (1 4)(2 3)(6 9)(7 8)
  circuit: SWAP 1 4; SWAP 2 3
  correction: IIIII
  action: 10;01
  action name: I
generator 1:
  permutation: (0 1 2 3 4)(5 6 7 8 9)
  circuit: SWAP 0 1; SWAP 0 2; SWAP 0 3; SWAP 0 4
  correction: IIIII
  action: 10;01
  action name: I
generator 2:
  permutation: (0 5)(1 8 4 7)(2 6 3 9)
  circuit: H 0; H 1; H 2; H 3; H 4; SWAP 1 3; SWAP 1 4; SWAP 1 2
  correction: iIZZIY
  action: 01;10
  action name: H 0
"""

FIND_CNOT = """\
# code: n=4 k=2
# target: CNOT(0,1)
# action: 1100;0100;0010;0011
# action name: CNOT 0 1
# correction: IIII
# gates follow, correction first
SWAP 1 2
SWAP 2 3
SWAP 1 2
"""

FIND_S0_EMBED = """\
# code: n=4 k=2
# target: S(0)
# action: 1010;0100;0010;0001
# action name: S 0
# correction: ZIZI
# gates follow, correction first
Z 0
Z 2
S 1
S 3
CZ 1 3
"""

GATES_N5_THREEBLOCK = """\
code: n=5 k=1 checks=4
representation: threeblock
rows: codewords
automorphism group: order 360 (complete, 11 nodes)
action group: order 6
generators: 4
generator 0:
  permutation: (1 2 8)(3 11 12)(4 9 14)(6 7 13)
  circuit: GAMMA 2; GAMMADG 3; GAMMA 4; SWAP 1 2; SWAP 1 3
  correction: ZZZZZ
  action: 01;11
  action name: GAMMADG 0
generator 1:
  permutation: (1 3 14)(2 7 12)(4 6 8)(9 11 13)
  circuit: GAMMA 2; GAMMADG 3; GAMMA 4; SWAP 1 3; SWAP 1 4
  correction: ZZZZZ
  action: 01;11
  action name: GAMMADG 0
generator 2:
  permutation: (2 14)(3 8)(4 12)(5 10)(6 11)(7 9)
  circuit: S 0; S 1; SQRTX 2; H 3; SQRTX 4; SWAP 2 4
  correction: iZIZIY
  action: 01;10
  action name: H 0
generator 3:
  permutation: (0 1)(2 4)(5 6)(7 9)(10 11)(12 14)
  circuit: SWAP 0 1; SWAP 2 4
  correction: IIIII
  action: 10;01
  action name: I
"""

FIND_SQRTX_N5_QASM = """\
OPENQASM 2.0;
include "qelib1.inc";
qreg q[5];
z q[0];
z q[1];
s q[0];
s q[1];
h q[2];
s q[2];
h q[2];
h q[3];
h q[4];
s q[4];
h q[4];
swap q[2], q[4];
swap q[1], q[3];
swap q[1], q[2];
h q[4];
s q[4];
sdg q[3];
h q[3];
h q[2];
s q[2];
"""

GAMMA_N5 = "SWAP 1 3\nSWAP 1 2\nGAMMADG 4\nGAMMA 3\nGAMMADG 2\n"


def run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_analyze_text(capsys):
    rc, out, err = run(capsys, ["analyze", "n5k1d3"])
    assert rc == 0
    assert out == ANALYZE_N5
    assert "elapsed:" in err and "ms" in err


def test_analyze_stdout_deterministic(capsys):
    _, first, _ = run(capsys, ["analyze", "n5k1d3"])
    _, second, _ = run(capsys, ["analyze", "n5k1d3"])
    assert first == second


def test_analyze_json(capsys):
    rc, out, _ = run(capsys, ["analyze", "n4k2d2", "--json"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["command"] == "analyze"
    assert doc["code"] == {"n": 4, "k": 2, "checks": 2}
    assert doc["standard_form"]["rows"] == ["+1111|0000", "+0000|1111"]
    assert doc["logical_x"] == ["IXXI", "IXIX"]
    assert doc["logical_z"] == ["ZIZI", "ZIIZ"]
    assert doc["tableau_symplectic"] is True
    # keys keep insertion order
    assert list(doc) == [
        "schema_version",
        "command",
        "code",
        "standard_form",
        "logical_x",
        "logical_z",
        "destabilizers",
        "tableau_symplectic",
    ]


def test_analyze_code_from_file(tmp_path, capsys):
    path = tmp_path / "five.stab"
    path.write_text("XZZXI\nIXZZX\nXIXZZ\nZXIXZ\n")
    rc, out, _ = run(capsys, ["analyze", str(path)])
    assert rc == 0
    assert out == ANALYZE_N5


def test_analyze_odd_y_check(tmp_path, capsys):
    path = tmp_path / "odd_y.stab"
    path.write_text(ODD_Y_CODES["-YXXX"])
    rc, out, _ = run(capsys, ["analyze", str(path)])
    assert rc == 0
    assert out == ANALYZE_MINUS_YXXX


@pytest.mark.parametrize("check", ["iXX", "iXYZ"])
def test_imaginary_check_exits_3(tmp_path, capsys, check):
    path = tmp_path / "imaginary.stab"
    path.write_text(check + "\n")
    rc, _, err = run(capsys, ["analyze", str(path)])
    assert rc == 3
    assert "imaginary phase: %s" % check in err


@pytest.mark.parametrize("rows", ["given", "codewords"])
@pytest.mark.parametrize("rep", ["hswap", "sswap", "sqrtxswap", "threeblock"])
@pytest.mark.parametrize("name", sorted(ODD_Y_CODES))
def test_gates_on_odd_y_codes_match_dense_oracle(tmp_path, capsys, name, rep, rows):
    path = tmp_path / "odd_y.stab"
    path.write_text(ODD_Y_CODES[name])
    rc, out, _ = run(capsys, ["gates", str(path), "--rep", rep, "--rows", rows, "--json"])
    assert rc == 0
    code = parse_code_file(ODD_Y_CODES[name])
    t = tableau(code)
    logicals = [t.row_pauli(i) for i in [*t.logical_x_rows, *t.logical_z_rows]]
    for entry in json.loads(out)["generators"]:
        circ = circuit_from_text("\n".join(entry["circuit"]), n=code.n)
        corrected = pauli_to_gates(PhasedPauli.from_string(entry["correction"])) + circ
        assert verify_preserves_stabilizers(t, corrected)
        u_act = [[int(b) for b in row] for row in entry["action"]]
        assert dense_logical_action_holds(corrected, code.checks, logicals, u_act)


@pytest.mark.parametrize("target, action_name", [("S(0)", "S 0"), ("CNOT(0,1)", "CNOT 0 1")])
def test_find_gate_embed_all_on_odd_y_code(tmp_path, capsys, target, action_name):
    code = tmp_path / "odd_y.stab"
    code.write_text(ODD_Y_CODES["-YXXX"])
    rc, out, _ = run(capsys, ["find-gate", str(code), "--target", target, "--embed", "all"])
    assert rc == 0
    circ = tmp_path / "gate.txt"
    circ.write_text(out)
    rc, out, _ = run(capsys, ["verify", str(code), str(circ)])
    assert rc == 0
    assert "verdict: valid" in out
    assert "correction: IIII" in out
    assert "action name: %s" % action_name in out


def test_gates_text(capsys):
    rc, out, _ = run(capsys, ["gates", "n5k1d3", "--rep", "hswap", "--rows", "codewords"])
    assert rc == 0
    assert out == GATES_N5_HSWAP


def test_gates_json(capsys):
    rc, out, _ = run(
        capsys, ["gates", "n5k1d3", "--rep", "hswap", "--rows", "codewords", "--json"]
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["search"] == {"complete": True, "nodes": 8, "order": 20}
    assert isinstance(doc["search"]["order"], int)
    assert doc["action_group_order"] == 2
    gen = doc["generators"][2]
    assert gen["permutation"] == "(0 5)(1 8 4 7)(2 6 3 9)"
    assert gen["correction"] == "iIZZIY"
    assert gen["action"] == ["01", "10"]
    assert gen["action_name"] == "H 0"


def _symplectic_closure(gens):
    seen = {}
    frontier = [np.eye(gens[0].shape[0], dtype=np.uint8)]
    seen[frontier[0].tobytes()] = True
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                prod = (m @ g) % 2
                key = prod.astype(np.uint8).tobytes()
                if key not in seen:
                    seen[key] = True
                    nxt.append(prod.astype(np.uint8))
        frontier = nxt
    return len(seen)


def test_gates_free_qubits_vs_brute_force(tmp_path, capsys):
    # A code with no checks: every SWAP-transversal circuit is logical, so
    # the action group is the closure of per-qubit S, H and the qubit swap.
    path = tmp_path / "free2.stab"
    path.write_text("n=2\n")
    rc, out, _ = run(capsys, ["gates", str(path), "--json"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["code"] == {"n": 2, "k": 2, "checks": 0}
    assert doc["search"]["complete"] is True
    assert doc["search"]["order"] == 72

    s0 = np.array([[1, 0, 1, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], dtype=np.uint8)
    s1 = np.array([[1, 0, 0, 0], [0, 1, 0, 1], [0, 0, 1, 0], [0, 0, 0, 1]], dtype=np.uint8)
    h0 = np.array([[0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1]], dtype=np.uint8)
    h1 = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=np.uint8)
    sw = np.array([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=np.uint8)
    assert doc["action_group_order"] == _symplectic_closure([s0, s1, h0, h1, sw]) == 72


def test_gates_budget_flag_incomplete(capsys):
    rc, out, err = run(capsys, ["gates", "bb72", "--budget", "1"])
    assert rc == 4
    assert "incomplete" in out


def test_gates_budget_env(monkeypatch, capsys):
    monkeypatch.setenv("AUTGATES_BUDGET_MS", "1")
    rc, _, _ = run(capsys, ["gates", "bb72"])
    assert rc == 4


def test_gates_budget_flag_beats_env(monkeypatch, capsys):
    monkeypatch.setenv("AUTGATES_BUDGET_MS", "1")
    rc, out, _ = run(capsys, ["gates", "n5k1d3", "--rep", "hswap", "--rows", "codewords", "--budget", "10000"])
    assert rc == 0
    assert out == GATES_N5_HSWAP


def test_gates_bad_budget_env(monkeypatch, capsys):
    monkeypatch.setenv("AUTGATES_BUDGET_MS", "soon")
    rc, _, err = run(capsys, ["gates", "n4k2d2"])
    assert rc == 3
    assert "AUTGATES_BUDGET_MS" in err


@pytest.mark.parametrize("budget", ["nan", "-1"])
def test_gates_rejects_budget_that_is_not_nonnegative(capsys, budget):
    # a nan deadline never expires and a negative one has always expired
    rc, out, err = run(capsys, ["gates", "n4k2d2", "--budget", budget])
    assert (rc, out) == (3, "")
    assert "--budget must be a number >= 0" in err


def test_gates_rejects_nan_budget_env(monkeypatch, capsys):
    monkeypatch.setenv("AUTGATES_BUDGET_MS", "nan")
    rc, out, err = run(capsys, ["gates", "n4k2d2"])
    assert (rc, out) == (3, "")
    assert "AUTGATES_BUDGET_MS must be a number >= 0" in err


def test_gates_zero_budget_is_exceeded(capsys):
    rc, out, _ = run(capsys, ["gates", "n4k2d2", "--budget", "0"])
    assert rc == 4
    assert "incomplete" in out


def test_find_gate_cnot(capsys):
    rc, out, _ = run(capsys, ["find-gate", "n4k2d2", "--target", "CNOT(0,1)"])
    assert rc == 0
    assert out == FIND_CNOT


def test_find_gate_builds_one_action_group(monkeypatch, capsys):
    # the discovered gates' chain is reused, not rebuilt a second time
    built = []
    original = LogicalActionGroup.__init__

    def counting_init(self, k):
        built.append(k)
        original(self, k)

    monkeypatch.setattr(LogicalActionGroup, "__init__", counting_init)
    rc, out, _ = run(capsys, ["find-gate", "n4k2d2", "--target", "CNOT(0,1)"])
    assert rc == 0
    assert out == FIND_CNOT
    assert built == [2]


def test_find_gate_output_pipes_into_verify(tmp_path, capsys):
    rc, out, _ = run(capsys, ["find-gate", "n4k2d2", "--target", "CNOT(0,1)"])
    assert rc == 0
    path = tmp_path / "cnot.txt"
    path.write_text(out)
    rc, out, _ = run(capsys, ["verify", "n4k2d2", str(path)])
    assert rc == 0
    assert "verdict: valid" in out
    assert "correction: IIII" in out
    assert "action name: CNOT 0 1" in out


def test_find_gate_identity_target(capsys):
    rc, out, _ = run(capsys, ["find-gate", "n4k2d2", "--target", "I"])
    assert rc == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines == []


def test_find_gate_unrealizable_without_embedding(capsys):
    rc, _, err = run(capsys, ["find-gate", "n4k2d2", "--target", "S(0)"])
    assert rc == 2
    assert "not realizable" in err.lower() or "no " in err.lower()


def test_find_gate_embed_all(capsys):
    rc, out, _ = run(capsys, ["find-gate", "n4k2d2", "--target", "S(0)", "--embed", "all"])
    assert rc == 0
    assert out == FIND_S0_EMBED


def test_find_gate_embed_pairs_file(tmp_path, capsys):
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    rc, out, _ = run(
        capsys, ["find-gate", "n4k2d2", "--target", "S(0)", "--embed", str(pairs)]
    )
    assert rc == 0
    assert out == FIND_S0_EMBED


def test_find_gate_max_two_qubit_filter(capsys):
    # With the pair gates filtered out only plain circuits remain, and the
    # plain action group has no S(0).
    rc, _, _ = run(
        capsys,
        ["find-gate", "n4k2d2", "--target", "S(0)", "--embed", "all", "--max-2q", "0"],
    )
    assert rc == 2


def test_gates_threeblock_decodes_every_local_gate(capsys):
    rc, out, _ = run(
        capsys, ["gates", "n5k1d3", "--rep", "threeblock", "--rows", "codewords"]
    )
    assert rc == 0
    assert out == GATES_N5_THREEBLOCK


def test_find_gate_qasm_gate_bodies(capsys):
    rc, out, _ = run(capsys, ["find-gate", "n5k1d3", "--target", "SQRTX(0)", "--qasm"])
    assert rc == 0
    assert out == FIND_SQRTX_N5_QASM


def test_find_gate_qasm(capsys):
    rc, out, _ = run(capsys, ["find-gate", "n4k2d2", "--target", "CNOT(0,1)", "--qasm"])
    assert rc == 0
    assert out == (
        "OPENQASM 2.0;\n"
        'include "qelib1.inc";\n'
        "qreg q[4];\n"
        "swap q[1], q[2];\n"
        "swap q[2], q[3];\n"
        "swap q[1], q[2];\n"
    )


def test_find_gate_matrix_file_target(tmp_path, capsys):
    target = tmp_path / "h.txt"
    target.write_text("01\n10\n")
    rc, out, _ = run(
        capsys,
        ["find-gate", "n5k1d3", "--target", str(target), "--rep", "hswap"],
    )
    assert rc == 0
    assert "# action name: H 0" in out


def test_find_gate_json(capsys):
    rc, out, _ = run(
        capsys, ["find-gate", "n4k2d2", "--target", "CNOT(0,1)", "--json"]
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["command"] == "find-gate"
    assert doc["target"] == "CNOT(0,1)"
    assert doc["realized"] is True
    assert doc["search_complete"] is True
    assert doc["action"] == ["1100", "0100", "0010", "0011"]
    assert doc["action_name"] == "CNOT 0 1"
    assert doc["correction"] == "IIII"
    assert doc["circuit"] == ["SWAP 1 2", "SWAP 2 3", "SWAP 1 2"]


def test_verify_logical_gate_with_correction(tmp_path, capsys):
    path = tmp_path / "gamma.txt"
    path.write_text(GAMMA_N5)
    rc, out, _ = run(capsys, ["verify", "n5k1d3", str(path)])
    assert rc == 0
    assert out == (
        "code: n=5 k=1 checks=4\n"
        "circuit: SWAP 1 3; SWAP 1 2; GAMMADG 4; GAMMA 3; GAMMADG 2\n"
        "verdict: valid\n"
        "correction: iIZZIY\n"
        "action: 11;10\n"
        "action name: GAMMA 0\n"
    )


def test_verify_rejects_codespace_moving_circuit(tmp_path, capsys):
    path = tmp_path / "x0.txt"
    path.write_text("X 0\n")
    rc, out, _ = run(capsys, ["verify", "n5k1d3", str(path)])
    assert rc == 0
    assert "verdict: invalid" in out
    assert "stabilizer signs flip" in out


def test_verify_rejects_non_normalizing_circuit(tmp_path, capsys):
    path = tmp_path / "cnot.txt"
    path.write_text("CNOT 0 1\n")
    rc, out, _ = run(capsys, ["verify", "n4k2d2", str(path)])
    assert rc == 0
    assert "verdict: invalid" in out
    assert "leaves the code space" in out
    # the reason names the first failing row
    assert out == (
        "code: n=4 k=2 checks=2\n"
        "circuit: CNOT 0 1\n"
        "verdict: invalid\n"
        "reason: row 0 image leaves the code space\n"
    )


def test_verify_json(tmp_path, capsys):
    path = tmp_path / "cz.txt"
    path.write_text("SDG 0\nSDG 1\nS 2\nS 3\n")
    rc, out, _ = run(capsys, ["verify", "n4k2d2", str(path), "--json"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["valid"] is True
    assert doc["correction"] == "IIII"
    assert doc["action"] == ["1001", "0110", "0010", "0001"]
    assert doc["action_name"] == "CZ 0 1"


def test_missing_code_file_exits_3(capsys):
    rc, _, err = run(capsys, ["analyze", "/no/such/file.stab"])
    assert rc == 3
    assert err


def test_unknown_corpus_name_lists_bundled(capsys):
    rc, _, err = run(capsys, ["analyze", "not-a-code"])
    assert rc == 3
    assert "bb72" in err


def test_empty_code_file_exits_3(tmp_path, capsys):
    path = tmp_path / "empty.stab"
    path.write_text("")
    rc, _, _ = run(capsys, ["analyze", str(path)])
    assert rc == 3


def test_bad_target_exits_3(capsys):
    rc, _, _ = run(capsys, ["find-gate", "n4k2d2", "--target", "Q(0)"])
    assert rc == 3


def test_bad_circuit_file_exits_3(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("FOO 0\n")
    rc, _, _ = run(capsys, ["verify", "n4k2d2", str(path)])
    assert rc == 3


def test_bad_pairs_file_exits_3(tmp_path, capsys):
    path = tmp_path / "pairs.txt"
    path.write_text("0 1 2\n")
    rc, _, _ = run(
        capsys, ["find-gate", "n4k2d2", "--target", "S(0)", "--embed", str(path)]
    )
    assert rc == 3
