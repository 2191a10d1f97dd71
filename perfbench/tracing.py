"""Spans and counters recorded from outside the program.

``Tracer.install`` replaces public functions and methods of the autgates
modules with wrappers, in every module namespace where callers look them
up, and ``uninstall`` puts the originals back.  A span records (name,
start, end, parent, job); a counter only counts.  Spans stay in memory
and are written out once, at the end of the run.

Each layer's self time is its spans' durations minus the durations of
their child spans, so the self times of all layers, the benchmark's own
``job`` span included, add up to the traced job time.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# span name -> functions (module or class, attribute) it wraps
SPANS = {
    "cli": [("autgates.cli", "main")],
    "stabilizer.tableau": [("autgates.stabilizer", "tableau")],
    "binrep": [("autgates.binrep", "build"), ("autgates.binrep", "row_augmented_matrix")],
    "autsearch": [("autgates.autsearch", "matrix_automorphisms")],
    "cliffordmap.lift": [("autgates.cliffordmap", "perm_to_circuit")],
    "cliffordmap.correct": [("autgates.cliffordmap", "pauli_correct_and_action")],
    "cliffordmap.verify": [
        ("autgates.cliffordmap", "verify_preserves_stabilizers"),
        ("autgates.cliffordmap", "correction_is_logical"),
    ],
    "logsearch.discover": [("autgates.logsearch", "discover_gates")],
    "logsearch.add": [("autgates.logsearch:LogicalActionGroup", "add")],
    "logsearch.synth": [("autgates.logsearch", "synthesize")],
    "embedded": [("autgates.embedded", "discover_embedded_gates")],
    "embedded.interpret": [("autgates.embedded", "interpret")],
    "embedded.sound": [("autgates.embedded", "interpretation_sound")],
}

# counter name -> functions whose calls it counts
CALL_COUNTERS = {
    "permgroup.sift_calls": [("autgates.permgroup:StabilizerChain", "sift")],
    "permgroup.inverse_calls": [
        ("autgates.permgroup:MatrixElement", "inverse"),
        ("autgates.permgroup:PermElement", "inverse"),
    ],
    "gf2.invert_calls": [("autgates.gf2", "invert")],
    "gf2.rref_calls": [("autgates.gf2", "rref")],
    "gf2.mat2_calls": [("autgates.gf2", "mat2")],
    "circuits.conjugate_calls": [("autgates.circuits:CliffordCircuit", "conjugate")],
    "pauli.allocs": [("autgates.pauli:PhasedPauli", "__init__")],
}


def _count_result(counts, name, args, result):
    """Work counts read off a wrapped call's arguments and result."""
    if name == "binrep" and isinstance(result, tuple):
        counts["binrep.matrix_cells"] += int(result[0].size)
    elif name == "autsearch":
        counts["autsearch.nodes"] += result.nodes
        counts["autsearch.generators"] += len(result.generators)
    elif name == "cliffordmap.lift":
        counts["cliffordmap.lift_gates"] += len(result)
    elif name == "cliffordmap.correct":
        t, circ = args[0], args[1]
        # rows pushed: n - k stabilizers plus 2k logicals
        counts["cliffordmap.correct_gate_rows"] += len(circ) * (t.n + t.k)
    elif name == "logsearch.add":
        counts["logsearch.add_grew"] += bool(result)
    elif name == "logsearch.synth":
        counts["logsearch.word_factors"] += len(result.word)
    elif name == "embedded":
        counts["embedded.candidates"] += len(result.gates) + len(result.rejected)
        counts["embedded.rejected"] += len(result.rejected)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, job]
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.job = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.job])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def job_span(self, job: int, fn):
        """fn wrapped in the root span of job number ``job``."""

        def run():
            self.job = job
            idx = self.begin("job")
            try:
                return fn()
            finally:
                self.end(idx)
                self.job = None

        return run

    def _span_wrapper(self, name, fn):
        tracer = self
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            idx = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            _count_result(counts, name, args, result)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _orbit_wrapper(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(chain):
            fn(chain)
            counts["permgroup.orbit_points"] += len(chain.tree)

        return wrapper

    # -- patching

    def _replace(self, target: str, attr: str, make) -> None:
        mod_name, _, cls_name = target.partition(":")
        if cls_name:
            owner = getattr(sys.modules[mod_name], cls_name)
            original = owner.__dict__[attr]
            self._patched.append((owner, attr, original))
            setattr(owner, attr, make(original))
            return
        original = getattr(sys.modules[mod_name], attr)
        wrapper = make(original)
        program = [m for n, m in sys.modules.items() if n.split(".")[0] == "autgates"]
        for mod in program:
            if mod.__dict__.get(attr) is original:
                self._patched.append((mod, attr, original))
                setattr(mod, attr, wrapper)

    def install(self) -> None:
        import autgates.cli  # noqa: F401  - loads every module the CLI reaches

        for name, targets in SPANS.items():
            for target, attr in targets:
                self._replace(target, attr, lambda fn, name=name: self._span_wrapper(name, fn))
        for name, targets in CALL_COUNTERS.items():
            for target, attr in targets:
                self._replace(target, attr, lambda fn, name=name: self._count_wrapper(name, fn))
        # orbits are built in this private method; nothing public sees them
        self._replace("autgates.permgroup:StabilizerChain", "_rebuild_tree", self._orbit_wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results

    def self_times(self) -> dict[tuple, float]:
        """Total self time in seconds per (job, span name)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: defaultdict[tuple, float] = defaultdict(float)
        for idx, (name, start, end, _, job) in enumerate(self.spans):
            out[job, name] += end - start - child[idx]
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "job"],
                    "spans": self.spans,
                    "counts": dict(self.counts),
                },
                fh,
            )
