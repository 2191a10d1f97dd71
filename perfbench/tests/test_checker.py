"""The checker accepts the program's outputs and rejects corrupted ones."""

import copy
import json

import numpy as np
import pytest

import autgates.codes
from checker import (
    BLOCKS,
    CheckError,
    CodeModel,
    check_gates_report,
    check_perm_order,
    parse_checks,
    parse_circuit_file,
    parse_cycles,
    propagate,
    target_matrix,
)
from workloads import run_cli


def _gates(code, rep, rows):
    rc, out = run_cli(["gates", code, "--rep", rep, "--rows", rows, "--json"])
    assert rc == 0
    return json.loads(out)


def _model(code):
    return CodeModel(autgates.codes.corpus_path(code).read_text())


@pytest.mark.parametrize(
    "gate, pauli, image",
    [
        ("H", "X", "+Z"),
        ("H", "Y", "-Y"),
        ("S", "X", "+Y"),
        ("S", "Y", "-X"),
        ("SQRTX", "Z", "-Y"),
        ("GAMMA", "X", "+Y"),
        ("GAMMA", "Y", "+Z"),
        ("GAMMA", "Z", "+X"),
    ],
)
def test_gate_images_follow_the_documented_signs(gate, pauli, image):
    _, [(phase, x, z)] = parse_checks(pauli)
    xs, zs, ph = propagate([[x]], [[z]], [phase], [(gate, (0,))])
    letter = "IXZY"[xs[0, 0] + 2 * zs[0, 0]]
    sign = (ph[0] - (letter == "Y")) % 4
    assert {0: "+", 2: "-"}[sign] + letter == image


@pytest.mark.parametrize(
    "code, rep, rows",
    [
        ("n5k1d3", "threeblock", "codewords"),
        ("n4k2d2", "hswap", "given"),
        ("n4k2d2", "threeblock", "codewords"),
    ],
)
def test_accepts_todays_gates_reports(code, rep, rows):
    doc = _gates(code, rep, rows)
    model = _model(code)
    check_gates_report(model, doc, rep, rows)
    degree = BLOCKS[rep] * model.n
    gens = [parse_cycles(g["permutation"], degree) for g in doc["generators"]]
    check_perm_order(gens, degree, doc["search"]["order"])


def _flip(letter):
    return {"I": "X", "X": "Z", "Z": "X", "Y": "X"}[letter]


def test_rejects_a_flipped_correction_letter():
    doc = _gates("n5k1d3", "threeblock", "codewords")
    bad = copy.deepcopy(doc)
    corr = bad["generators"][0]["correction"]
    head = len(corr) - 5
    bad["generators"][0]["correction"] = corr[:head] + _flip(corr[head]) + corr[head + 1 :]
    with pytest.raises(CheckError, match="sign|outside"):
        check_gates_report(_model("n5k1d3"), bad, "threeblock", "codewords")


def test_rejects_a_dropped_gate():
    doc = _gates("n5k1d3", "threeblock", "codewords")
    bad = copy.deepcopy(doc)
    gen = next(g for g in bad["generators"] if g["circuit"])
    del gen["circuit"][0]
    with pytest.raises(CheckError):
        check_gates_report(_model("n5k1d3"), bad, "threeblock", "codewords")


def test_rejects_a_swapped_action_row():
    doc = _gates("n4k2d2", "threeblock", "codewords")
    bad = copy.deepcopy(doc)
    gen = next(g for g in bad["generators"] if g["action"][0] != g["action"][1])
    gen["action"][0], gen["action"][1] = gen["action"][1], gen["action"][0]
    with pytest.raises(CheckError, match="action differs"):
        check_gates_report(_model("n4k2d2"), bad, "threeblock", "codewords")


def test_rejects_a_non_automorphism_generator():
    doc = _gates("n5k1d3", "hswap", "given")
    bad = copy.deepcopy(doc)
    bad["generators"][0]["permutation"] = "(0 1)(5 6)"  # swap qubits 0 and 1
    with pytest.raises(CheckError, match="preserve"):
        check_gates_report(_model("n5k1d3"), bad, "hswap", "given")


def test_rejects_a_wrong_automorphism_order():
    doc = _gates("n5k1d3", "hswap", "codewords")
    gens = [parse_cycles(g["permutation"], 10) for g in doc["generators"]]
    with pytest.raises(CheckError, match="sympy"):
        check_perm_order(gens, 10, doc["search"]["order"] * 2)


def test_find_gate_circuit_checks_and_corruptions():
    model = _model("n4k2d2")
    rc, out = run_cli(["find-gate", "n4k2d2", "--target", "CNOT(0,1)"])
    assert rc == 0
    header, gates = parse_circuit_file(out)
    model.check_preserves(gates)
    assert np.array_equal(model.action(gates), target_matrix("CNOT(0,1)", 2))
    assert not np.array_equal(model.action(gates), target_matrix("CNOT(1,0)", 2))
    with pytest.raises(CheckError):
        model.check_preserves([("X", (0,))] + gates)
