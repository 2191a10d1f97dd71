"""The benchmark's tracer must find every name it wraps in the program.

``perfbench/tracing.py`` patches functions and methods by name from
outside the package, so renaming one of them breaks only traced runs.
Installing and uninstalling the tracer here turns such a rename into a
fast tier-1 failure.
"""

import importlib.util
from pathlib import Path

import numpy as np

import autgates
from autgates import binrep, cliffordmap, embedded, logsearch
from autgates.binrep import RepKind, row_augmented_matrix
from autgates.circuits import CliffordCircuit, Gate
from autgates.codes import load
from autgates.embedded import all_pairs, embed
from autgates.logsearch import LogicalActionGroup
from autgates.permgroup import MatrixElement, StabilizerChain

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_counts_and_uninstalls():
    originals = {
        name: StabilizerChain.__dict__[name] for name in ("sift", "_rebuild_tree")
    }
    inverse = MatrixElement.__dict__["inverse"]
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        group = LogicalActionGroup(1)
        h = np.array([[0, 1], [1, 0]], dtype=np.uint8)
        s = np.array([[1, 1], [0, 1]], dtype=np.uint8)
        group.add(h, CliffordCircuit(1, (Gate("H", (0,)),)))
        group.add(s, CliffordCircuit(1, (Gate("S", (0,)),)))
        assert group.order() == 6
    finally:
        tracer.uninstall()
    counts = tracer.counts
    assert counts["logsearch.add.calls"] == 2
    assert counts["logsearch.add_grew"] == 2
    assert counts["permgroup.sift_calls"] > 0
    assert counts["permgroup.inverse_calls"] > 0
    assert counts["permgroup.orbit_points"] > 0
    for name, fn in originals.items():
        assert StabilizerChain.__dict__[name] is fn
    assert MatrixElement.__dict__["inverse"] is inverse


def test_tracer_reads_the_discovery_path():
    # every module namespace the tracer patches for the representation
    # and lifting spans, with the function found there before install
    wrapped = [
        (mod, name)
        for mod in (autgates, binrep, cliffordmap, embedded, logsearch)
        for name in ("build", "row_augmented_matrix", "perm_to_circuit")
        if name in mod.__dict__
    ]
    originals = {(mod, name): mod.__dict__[name] for mod, name in wrapped}
    code = load("n4k2d2")
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        assert all(mod.__dict__[name] is not originals[mod, name] for mod, name in wrapped)
        # through the modules: names imported here before install stay unwrapped
        found = logsearch.discover_gates(code, RepKind.SSWAP)
        emb_found = embedded.discover_embedded_gates(code, all_pairs(code.n))
    finally:
        tracer.uninstall()
    for (mod, name), fn in originals.items():
        assert mod.__dict__[name] is fn
    assert found.gates and emb_found.gates
    counts = tracer.counts
    # each search matrix is one row_augmented_matrix span with build nested in it
    assert counts["binrep.calls"] == 4
    emb_rows = embed(code, all_pairs(code.n)).check_matrix
    cells = sum(
        row_augmented_matrix(rows, RepKind.SSWAP)[0].size
        for rows in (code.check_matrix, emb_rows)
    )
    assert counts["binrep.matrix_cells"] == cells
    assert counts["cliffordmap.lift_gates"] > 0
    assert counts["logsearch.discover.calls"] == counts["embedded.calls"] == 1
    assert counts["embedded.candidates"] > 0
