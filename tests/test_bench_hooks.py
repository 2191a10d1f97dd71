"""The benchmark's tracer must find every name it wraps in the program.

``perfbench/tracing.py`` patches functions and methods by name from
outside the package, so renaming one of them breaks only traced runs.
Installing and uninstalling the tracer here turns such a rename into a
fast tier-1 failure.
"""

import importlib.util
from pathlib import Path

import numpy as np

from autgates.circuits import CliffordCircuit, Gate
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
