"""The four workloads: their set-up, their rounds of jobs and their checks.

A workload's run is whole rounds of jobs, issued one after another by a
single client.  ``Job.run`` is the timed call into the program;
``Job.check`` runs afterwards, untimed, and raises ``CheckError`` when an
output is wrong.  It returns the gate counts of the certified circuits
the job emitted.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from checker import (
    BLOCKS,
    CheckError,
    CodeModel,
    check_gates_report,
    check_perm_order,
    closure_order,
    count_gates,
    group_elements,
    parse_action,
    parse_circuit_file,
    parse_cycles,
    parse_gate,
    pauli_gates,
    target_matrix,
)

GROSS = (12, 6, [(3, 0), (0, 1), (0, 2)], [(0, 3), (1, 0), (2, 0)])
STEANE = ["IIIXXXX", "IXXIIXX", "XIXIXIX", "IIIZZZZ", "IZZIIZZ", "ZIZIZIZ"]
REPS = ("hswap", "sswap", "sqrtxswap", "threeblock")
# realizable with --embed all; each set generates the full logical Clifford group
TARGETS = {
    "n4k2d2": [
        "H(0)", "H(1)", "S(0)", "S(1)", "CNOT(0,1)", "CNOT(1,0)", "CZ(0,1)", "SWAP(0,1)", "CXX(0,1)"
    ],
    "n5k1d3": ["H(0)", "S(0)", "SQRTX(0)", "GAMMA(0)"],
    "steane": ["H(0)", "S(0)", "SQRTX(0)", "GAMMA(0)"],
}
CLIFFORD_ORDER = {1: 6, 2: 720}  # |Sp(2k, 2)|


class JobFailed(CheckError):
    """The program gave no answer: a non-zero exit or an incomplete search."""


@dataclass
class Job:
    label: str
    run: Callable[[], object]
    check: Callable[[object], list[int]]


def run_cli(argv: list[str]) -> tuple[int, str]:
    """autgates.cli.main in-process, stdout captured; (exit code, stdout)."""
    import autgates.cli

    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        rc = autgates.cli.main(argv)
    return rc, out.getvalue()


def _stdout(result: tuple[int, str]) -> str:
    """A CLI job's stdout; a non-zero exit fails the job."""
    rc, out = result
    if rc != 0:
        raise JobFailed("exit code %d" % rc)
    return out


def _gates_of(circuit) -> list[tuple[str, tuple[int, ...]]]:
    return [(g.name, tuple(g.qubits)) for g in circuit.gates]


class Workload:
    """Set-up in three parts, then rounds of jobs.

    ``prepare`` is the repeatable set-up (timed several times, median
    kept), ``setup_once`` the set-up too long to repeat, and
    ``prepare_inputs`` untimed input generation and checks.
    """

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.rng = random.Random(seed)
        self.deferred: list[tuple] = []

    def prepare(self) -> None:
        pass

    def setup_once(self) -> None:
        pass

    def prepare_inputs(self) -> None:
        pass

    def round(self) -> list[Job]:
        raise NotImplementedError

    def check_gates(self, model, result, rep: str, rows: str) -> tuple[dict, list[int]]:
        """Checks a `gates --json` job; returns its report and circuit sizes.

        The sympy order check waits for ``finish``.
        """
        doc = json.loads(_stdout(result))
        check_gates_report(model, doc, rep, rows)
        degree = BLOCKS[rep] * model.n
        gens = [parse_cycles(g["permutation"], degree) for g in doc["generators"]]
        self.deferred.append((gens, degree, doc["search"]["order"]))
        return doc, [count_gates(g["circuit"], g["correction"]) for g in doc["generators"]]

    def finish(self) -> int:
        """Checks deferred to the end of the run; returns how many failed."""
        failed = 0
        for gens, degree, order in self.deferred:
            try:
                check_perm_order(gens, degree, order)
            except CheckError:
                failed += 1
        return failed


class GatesWorkload(Workload):
    """`gates CODE --rep R --json` for hswap and threeblock on a BB code."""

    reps = ("hswap", "threeblock")

    def __init__(self, work, seed, code_arg, torus):
        super().__init__(work, seed)
        self.code_arg = code_arg
        self.torus = torus  # l * m: the translations every BB code has

    def code_text(self) -> str:
        import autgates.codes

        if Path(self.code_arg).is_file():
            return Path(self.code_arg).read_text()
        return autgates.codes.corpus_path(self.code_arg).read_text()

    def prepare(self) -> None:
        import autgates

        autgates.parse_code_file(self.code_text())

    def prepare_inputs(self) -> None:
        self.model = CodeModel(self.code_text())

    def round(self) -> list[Job]:
        reps = list(self.reps)
        self.rng.shuffle(reps)
        return [self._job(rep) for rep in reps]

    def _job(self, rep: str) -> Job:
        argv = ["gates", self.code_arg, "--rep", rep, "--json"]

        def check(result):
            doc, sizes = self.check_gates(self.model, result, rep, "given")
            order = doc["search"]["order"]
            if order % self.torus:
                raise CheckError("order %d misses the %d torus translations" % (order, self.torus))
            return sizes

        return Job("gates " + rep, lambda: run_cli(argv), check)


class GrossWorkload(GatesWorkload):
    """The [[144,12,12]] gross code, built by the benchmark into its own file."""

    def __init__(self, work, seed):
        super().__init__(work, seed, str(work / "gross.stab"), GROSS[0] * GROSS[1])

    def prepare(self) -> None:
        import autgates

        code = autgates.bivariate_bicycle(*GROSS)
        text = "".join(c.to_string() + "\n" for c in code.checks)
        Path(self.code_arg).write_text(text)
        autgates.parse_code_file(text)


class SynthWorkload(Workload):
    """Library use: discover on bb72 once, then synthesize targets.

    Targets are group elements of the discovered action group, which the
    benchmark enumerates from the checked generator actions.  The run is a
    stratified sample: elements are sorted by the length of the circuit
    their word stitches together and cut into ``per_round`` strata of
    nearly equal size, and each round draws one element from every
    stratum.  Plain random words gave seed-to-seed spreads of 12-27% in
    the mean circuit length; the strata bring that to 1-2%.
    """

    per_round = 20

    def prepare(self) -> None:
        import autgates

        self.code = autgates.load("bb72")

    def setup_once(self) -> None:
        import autgates

        self.disc = autgates.discover_gates(
            self.code, autgates.RepKind.THREEBLOCK, autgates.RowSource.AS_GIVEN
        )

    def prepare_inputs(self) -> None:
        import autgates.codes

        self.model = CodeModel(autgates.codes.corpus_path("bb72").read_text())
        disc = self.disc
        actions = []
        for gate in disc.gates:
            gates = pauli_gates(gate.report.pauli_correction.to_string()) + _gates_of(gate.circuit)
            self.model.check_preserves(gates)
            act = self.model.action(gates)
            if not np.array_equal(act, gate.report.u_act):
                raise CheckError("discovered generator: reported action differs")
            actions.append(act)
        elements = group_elements(actions, 2 * self.model.k)
        if len(elements) != disc.group.order():
            raise CheckError(
                "action group order %d, closure gives %d" % (disc.group.order(), len(elements))
            )
        lengths = [len(c) for _, c in disc.group.generators]
        inv_lengths = [len(c.inverse()) for _, c in disc.group.generators]

        def stitched(u):
            word = disc.group.express(u)
            return sum(lengths[i] if e > 0 else inv_lengths[i] for i, e in word)

        ranked = sorted(elements, key=lambda u: (stitched(u), self.rng.random()))
        cuts = [len(ranked) * i // self.per_round for i in range(self.per_round + 1)]
        self.strata = [ranked[a:b] for a, b in zip(cuts, cuts[1:])]

    def round(self) -> list[Job]:
        targets = [self.rng.choice(s) for s in self.strata]
        self.rng.shuffle(targets)
        return [self._job(u) for u in targets]

    def _job(self, target) -> Job:
        import autgates as ag

        t = self.disc.tableau
        group = self.disc.group

        def run():
            res = ag.synthesize(group, target, t)
            ok = ag.verify_preserves_stabilizers(t, res.corrected) and ag.correction_is_logical(
                t, res.report
            )
            return res, ok

        def check(result):
            res, ok = result
            if not ok:
                raise CheckError("the program's own certification rejected the circuit")
            gates = _gates_of(res.corrected)
            self.model.check_preserves(gates)
            if not np.array_equal(self.model.action(gates), target):
                raise CheckError("synthesized action differs from the target")
            return [len(gates)]

        return Job("synthesize", run, check)


class SmallWorkload(Workload):
    """The interactive CLI mix on n4k2d2, n5k1d3 and the Steane code.

    The jobs are the same for every seed; the seed shuffles their order.
    """

    def __init__(self, work, seed):
        super().__init__(work, seed)
        self.paths = {name: work / (name + ".stab") for name in TARGETS}
        self.texts = {}
        self.reached: dict[str, list[np.ndarray]] = {name: [] for name in TARGETS}
        self.serial = 0

    def prepare(self) -> None:
        import autgates
        import autgates.codes

        for name in TARGETS:
            if name == "steane":
                text = "".join(s + "\n" for s in STEANE)
            else:
                text = autgates.codes.corpus_path(name).read_text()
            self.paths[name].write_text(text)
            self.texts[name] = text
            autgates.parse_code_file(text)

    def prepare_inputs(self) -> None:
        self.models = {name: CodeModel(text) for name, text in self.texts.items()}

    def round(self) -> list[Job]:
        units = []
        for name in TARGETS:
            for rep in REPS:
                for rows in ("given", "codewords"):
                    units.append([self._gates_job(name, rep, rows)])
            for target in TARGETS[name]:
                units.append(self._find_and_verify(name, target))
        self.rng.shuffle(units)
        return [job for unit in units for job in unit]

    def _gates_job(self, name, rep, rows) -> Job:
        argv = ["gates", str(self.paths[name]), "--rep", rep, "--rows", rows, "--json"]
        model = self.models[name]

        def check(result):
            return self.check_gates(model, result, rep, rows)[1]

        return Job("gates %s %s %s" % (name, rep, rows), lambda: run_cli(argv), check)

    def _find_and_verify(self, name, target) -> list[Job]:
        model = self.models[name]
        self.serial += 1
        circ_path = self.work / ("circuit-%d.txt" % self.serial)
        expected = target_matrix(target, model.k)
        found = {}
        find_argv = ["find-gate", str(self.paths[name]), "--target", target, "--embed", "all"]
        verify_argv = ["verify", str(self.paths[name]), str(circ_path), "--json"]

        def check_find(result):
            out = _stdout(result)
            header, gates = parse_circuit_file(out)
            model.check_preserves(gates)
            act = model.action(gates)
            if not np.array_equal(act, expected):
                raise CheckError("find-gate %s: action differs from the target" % target)
            if not np.array_equal(parse_action(header["action"].split(";")), act):
                raise CheckError("find-gate %s: reported action differs" % target)
            self.reached[name].append(act)
            circ_path.write_text(out)
            found["gates"] = gates
            return [len(gates)]

        def check_verify(result):
            doc = json.loads(_stdout(result))
            if not doc["valid"] or "gates" not in found:
                raise CheckError("verify rejected a find-gate circuit")
            gates = [parse_gate(g) for g in doc["circuit"]]
            if gates != found["gates"]:
                raise CheckError("verify read another circuit")
            model.check_preserves(pauli_gates(doc["correction"]) + gates)
            if not np.array_equal(parse_action(doc["action"]), model.action(gates)):
                raise CheckError("verify: reported action differs")
            return []

        return [
            Job("find-gate %s %s" % (name, target), lambda: run_cli(find_argv), check_find),
            Job("verify %s %s" % (name, target), lambda: run_cli(verify_argv), check_verify),
        ]

    def finish(self) -> int:
        failed = super().finish()
        for name, actions in self.reached.items():
            k = self.models[name].k
            if closure_order(actions, 2 * k) != CLIFFORD_ORDER[k]:
                failed += 1
        return failed


def make(name: str, work: Path, seed: int) -> Workload:
    if name == "bb72-gates":
        return GatesWorkload(work, seed, "bb72", 36)
    if name == "gross-gates":
        return GrossWorkload(work, seed)
    if name == "bb72-synth":
        return SynthWorkload(work, seed)
    if name == "small-codes":
        return SmallWorkload(work, seed)
    raise ValueError("unknown workload %r" % name)


WORKLOADS = ("bb72-gates", "gross-gates", "bb72-synth", "small-codes")
