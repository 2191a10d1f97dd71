"""End-to-end tests for the command line interface.

Everything runs in-process through main(argv) so exit codes and exact
stdout bytes can be asserted, except the closed-pipe tests, which need a
real pipe.  Timing goes to stderr only, so stdout must be identical
across repeated runs of the same command.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from autgates import gf2, stabilizer
from autgates.circuits import circuit_from_text, pauli_to_gates
from autgates.cli import main
from autgates.cliffordmap import verify_preserves_stabilizers
from autgates.codes import load
from autgates.logsearch import LogicalActionGroup
from autgates.pauli import PhasedPauli
from autgates.stabilizer import parse_code_file, tableau

from oracles import dense_logical_action_holds

SRC = str(Path(__file__).resolve().parent.parent / "src")

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


def test_analyze_reduces_the_code_once(monkeypatch, capsys):
    # standard_form's two reductions, which the tableau keeps; no other rref
    calls, original = [], gf2.rref

    def counting_rref(m):
        calls.append(np.shape(m))
        return original(m)

    monkeypatch.setattr(gf2, "rref", counting_rref)
    monkeypatch.setattr(stabilizer, "rref", counting_rref)
    rc, _, _ = run(capsys, ["analyze", "bb72"])
    assert rc == 0
    assert len(calls) == 2


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


def test_find_gate_rejects_negative_max_2q(capsys):
    # a negative cap would drop every embedded gate and read as "not realizable"
    rc, out, err = run(
        capsys,
        ["find-gate", "n4k2d2", "--target", "S(0)", "--embed", "all", "--max-2q", "-1"],
    )
    assert (rc, out) == (3, "")
    assert "--max-2q must be >= 0" in err


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


@pytest.mark.parametrize(
    "argv",
    [
        ["gates", "n5k1d3", "--rep", "foo"],
        ["gates", "n5k1d3", "--rows", "standard"],
        ["find-gate", "n5k1d3"],
        ["gates", "n5k1d3", "--budget", "abc"],
        ["find-gate", "n5k1d3", "--target", "H(0)", "--max-2q", "x"],
        [],
    ],
)
def test_usage_errors_exit_3(capsys, argv):
    # argparse would exit 2, the "not realizable" code
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr()
    assert exc.value.code == 3
    assert out.out == ""
    assert out.err.startswith("usage: autgates")
    assert "error: " in out.err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gates", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: autgates gates")


@pytest.mark.parametrize("rep", ["hswap", "sswap", "sqrtxswap", "threeblock"])
def test_repeated_check_keeps_the_group(tmp_path, capsys, rep):
    # the search takes each color's rows as a set: a check given twice
    # changes the gates report only in its check count
    for name in ("n4k2d2", "n5k1d3"):
        checks = [c.to_string() for c in load(name).checks]
        path = tmp_path / (name + ".stab")
        path.write_text("\n".join(checks[:1] + checks) + "\n")
        m = len(checks)
        argv = ["--rep", rep, "--rows", "given"]
        rc, out, _ = run(capsys, ["gates", name] + argv)
        rc_twice, out_twice, _ = run(capsys, ["gates", str(path)] + argv)
        assert rc == rc_twice == 0
        assert "checks=%d\n" % m in out
        assert out_twice == out.replace("checks=%d\n" % m, "checks=%d\n" % (m + 1), 1)
        docs = [
            json.loads(run(capsys, ["gates", code, "--json"] + argv)[1])
            for code in (name, str(path))
        ]
        assert [doc["code"].pop("checks") for doc in docs] == [m, m + 1]
        assert docs[0] == docs[1]
    # XXXX twice is still the [[4,2,2]] code, with the same automorphisms
    target = ["--rows", "given", "--target", "H(0) H(1) SWAP(0,1)"]
    finds = [
        run(capsys, ["find-gate", code, "--rep", rep] + target)[0]
        for code in (str(tmp_path / "n4k2d2.stab"), "n4k2d2")
    ]
    assert finds[0] == finds[1] == (0 if rep in ("hswap", "threeblock") else 2)


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


@pytest.mark.parametrize(
    "target, message",
    [
        ("H(²)", "cannot parse target near '(²)'"),  # isdigit, but not [0-9]
        ("H(٣)", "cannot parse target near '(٣)'"),
        ("H 0", "cannot parse target near '0'"),
        ("H", "H takes one qubit, got ()"),  # parses, then fails its arity
    ],
)
def test_unparsable_target_names_the_text(capsys, target, message):
    rc, out, err = run(capsys, ["find-gate", "n4k2d2", "--target", target])
    assert rc == 3
    assert out == ""
    assert err.startswith("error: %s\n" % message)


@pytest.mark.parametrize(
    "argv",
    [
        ["find-gate", "bb72", "--target", "H(0)"],  # codewords is find-gate's default
        ["gates", "bb72", "--rows", "codewords"],
    ],
)
def test_codeword_cap_error_names_rows_given(capsys, argv):
    rc, out, err = run(capsys, argv)
    assert rc == 3
    assert out == ""
    assert "error: 2**60 codewords exceed cap 65536; --rows given avoids the enumeration\n" in err


@pytest.mark.parametrize("header", ["n=1_2", "n=+4"])
def test_code_file_qubit_count_is_decimal_digits(tmp_path, capsys, header):
    # int() would read "1_2" as 12 and "+4" as 4
    path = tmp_path / "bad.stab"
    path.write_text("# header\n%s\nXXXX\n" % header)
    rc, out, err = run(capsys, ["analyze", str(path)])
    assert rc == 3
    assert out == ""
    assert err.startswith("error: line 2: bad qubit count %r\n" % header)


def test_bad_circuit_file_exits_3(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("FOO 0\n")
    rc, _, _ = run(capsys, ["verify", "n4k2d2", str(path)])
    assert rc == 3


@pytest.mark.parametrize(
    "text, message",
    [
        ("H 0\nCNOT 1\n", "line 2: CNOT takes two distinct qubits, got (1,)"),
        ("H 0\nH 7\n", "line 2: gate H 7 out of range for 5 qubits"),
        ("# two qubits\nSWAP 3 3\n", "line 2: SWAP takes two distinct qubits, got (3, 3)"),
        # qubit indices are decimal digits only: int() would read these
        ("H 0\nH 1_0\n", "line 2: bad qubit index in 'H 1_0'"),
        ("CNOT +1 0\n", "line 1: bad qubit index in 'CNOT +1 0'"),
    ],
)
def test_circuit_file_errors_name_their_line(tmp_path, capsys, text, message):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    rc, out, err = run(capsys, ["verify", "n5k1d3", str(path)])
    assert rc == 3
    assert out == ""
    assert "error: %s\n" % message in err


@pytest.mark.parametrize(
    "target, matrix, pairs",
    [
        ("FOO(0)", None, None),
        ("S(99)", None, None),
        (None, "01\n10\n", None),
        ("S(0)", None, "0 1\n0 99\n"),
    ],
)
def test_find_gate_checks_inputs_before_search(
    tmp_path, monkeypatch, capsys, target, matrix, pairs
):
    # bb72 has k = 12: each input is rejected before any automorphism search
    def no_search(*args, **kwargs):
        raise AssertionError("discover_gates ran before the inputs were checked")

    monkeypatch.setattr("autgates.cli.discover_gates", no_search)
    if matrix is not None:
        target = tmp_path / "target.txt"
        target.write_text(matrix)
    argv = ["find-gate", "bb72", "--target", str(target)]
    if pairs is not None:
        (tmp_path / "pairs.txt").write_text(pairs)
        argv += ["--embed", str(tmp_path / "pairs.txt")]
    rc, out, err = run(capsys, argv)
    assert rc == 3
    assert out == ""
    assert "error: " in err


def test_bad_pairs_file_exits_3(tmp_path, capsys):
    path = tmp_path / "pairs.txt"
    # "\u00b2" (superscript two) passes str.isdigit but not int()
    for text in ["0 1 2\n", "0 \u00b2\n"]:
        path.write_text(text, encoding="utf-8")
        rc, out, err = run(
            capsys, ["find-gate", "n4k2d2", "--target", "S(0)", "--embed", str(path)]
        )
        assert rc == 3
        assert out == ""
        assert "error: line 1: expected two qubit indices\n" in err
        assert "Traceback" not in err


BOM = "\ufeff".encode()


def test_input_files_may_start_with_a_byte_order_mark(tmp_path, capsys):
    code, circuit = tmp_path / "five.stab", tmp_path / "gamma.txt"
    code.write_bytes(BOM + b"XZZXI\nIXZZX\nXIXZZ\nZXIXZ\n")
    circuit.write_bytes(BOM + GAMMA_N5.encode())
    rc, out, err = run(capsys, ["analyze", str(code)])
    assert (rc, out) == (0, ANALYZE_N5), err
    rc, with_bom, err = run(capsys, ["verify", str(code), str(circuit)])
    assert rc == 0, err
    circuit.write_text(GAMMA_N5)
    assert run(capsys, ["verify", "n5k1d3", str(circuit)])[:2] == (0, with_bom)
    assert "verdict: valid" in with_bom


@pytest.mark.parametrize(
    "command, data",
    [
        (["analyze"], b"XX\xff\nZZ\n"),
        (["verify", "n4k2d2"], b"H 0\n\xff\n"),
        # the offset counts the byte-order mark's three bytes
        (["analyze"], BOM + b"XX\xff\nZZ\n"),
        (["verify", "n4k2d2"], BOM + b"H 0\n\xff\n"),
    ],
    ids=["analyze-code", "verify-circuit", "analyze-code-bom", "verify-circuit-bom"],
)
def test_non_utf8_input_file_exits_3(tmp_path, capsys, command, data):
    path = tmp_path / "input.txt"
    path.write_bytes(data)
    rc, out, err = run(capsys, command + [str(path)])
    assert rc == 3
    assert out == ""
    assert "error: cannot read %s: not UTF-8 at byte %d\n" % (path, data.index(b"\xff")) in err
    assert "Traceback" not in err


# bb72 fits in the pipe's buffer, so its write may finish before the reader
# closes; the 200-qubit repetition code's report (about 120 kB) cannot
@pytest.mark.parametrize(
    "argv",
    [["gates", "bb72", "--rep", "hswap"], ["analyze", "rep200.stab"]],
    ids=["gates", "analyze"],
)
def test_closed_stdout_exits_quietly(tmp_path, argv):
    n = 200
    (tmp_path / "rep200.stab").write_text(
        "".join("I" * i + "ZZ" + "I" * (n - 2 - i) + "\n" for i in range(n - 1))
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    with subprocess.Popen(
        [sys.executable, "-m", "autgates.cli", *argv],
        cwd=tmp_path, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as proc:
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) in {0, 2, 3, 4}
    assert "Traceback" not in err and "Exception ignored" not in err


def test_closed_stderr_keeps_the_exit_code(tmp_path):
    # as in "analyze rep400.stab 2>&1 | head -1": stdout and stderr share
    # one pipe, which the reader closes before "elapsed" is written
    n = 400
    (tmp_path / "rep400.stab").write_text(
        "".join("I" * i + "ZZ" + "I" * (n - 2 - i) + "\n" for i in range(n - 1))
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    with subprocess.Popen(
        [sys.executable, "-m", "autgates.cli", "analyze", "rep400.stab"],
        cwd=tmp_path, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
    ) as proc:
        assert proc.stdout.readline().startswith(b"code: n=400 k=1")
        proc.stdout.close()
        assert proc.wait(timeout=120) == 0
