"""Command line interface.

Four subcommands cover the pipeline: analyze (standard form and logical
basis of a code file), gates (automorphism discovery with verified
circuits), find-gate (synthesize a target logical action), and verify
(certify a circuit file against a code).  Reports go to stdout and are
byte-identical across runs on identical inputs; timing goes to stderr.
Exit codes: 0 success, 2 target not realizable, 3 parse or input error,
4 search budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from .binrep import RepKind, RowSource
from .circuits import CliffordCircuit, circuit_from_text, circuit_to_qasm
from .cliffordmap import (
    correction_is_logical,
    corrected_circuit,
    pauli_correct_and_action,
    verify_preserves_stabilizers,
)
from .codes import corpus_names, corpus_path
from .embedded import all_pairs, discover_embedded_gates, parse_pairs_file
from .errors import AutgatesError, NotRealizableError, ParseError
from .logsearch import (
    discover_gates,
    parse_action_matrix,
    parse_target,
    synthesize,
)
from .pauli import PREFIXES, PhasedPauli
from .permgroup import cycle_string
from .stabilizer import (
    destabilizers,
    logical_paulis,
    parse_code_file,
    standard_form,
    tableau,
)

EXIT_OK = 0
EXIT_NOT_REALIZABLE = 2
EXIT_PARSE = 3
EXIT_BUDGET = 4

DEFAULT_BUDGET_MS = 60000.0

_REPS = {
    "hswap": RepKind.HSWAP,
    "sswap": RepKind.SSWAP,
    "sqrtxswap": RepKind.SQRTXSWAP,
    "threeblock": RepKind.THREEBLOCK,
}
_ROWS = {"given": RowSource.AS_GIVEN, "codewords": RowSource.ALL_CODEWORDS}


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ParseError("cannot read %s: %s" % (path, exc.strerror or exc)) from None


def _load_code(arg: str):
    if Path(arg).is_file():
        return parse_code_file(_read_text(arg))
    if arg in corpus_names():
        return parse_code_file(corpus_path(arg).read_text())
    raise ParseError(
        "no such code file or bundled name: %r (bundled: %s)"
        % (arg, ", ".join(corpus_names()))
    )


def _budget_ms(args) -> float:
    if getattr(args, "budget", None) is not None:
        budget, source = args.budget, "--budget"
    else:
        budget = os.environ.get("AUTGATES_BUDGET_MS", DEFAULT_BUDGET_MS)
        source = "AUTGATES_BUDGET_MS"
    try:
        budget = float(budget)
    except ValueError:
        raise ParseError("%s must be a number, got %r" % (source, budget)) from None
    if not budget >= 0:  # also rejects nan, which no deadline comparison would end
        raise ParseError("%s must be a number >= 0, got %r" % (source, budget))
    return budget


def _bits(row) -> str:
    return "".join(str(int(b)) for b in row)


def _split_row(row, n: int) -> str:
    return _bits(row[:n]) + "|" + _bits(row[n:])


def _action_rows(u_act) -> list[str]:
    return [_bits(row) for row in u_act]


def _emit(doc: dict, as_json: bool, lines: list[str]) -> None:
    if as_json:
        print(json.dumps(doc, indent=2))
    else:
        print("\n".join(lines))


def cmd_analyze(args) -> int:
    code = _load_code(args.code)
    sf = standard_form(code)
    lx, lz = logical_paulis(sf)
    dst = destabilizers(sf)
    t = tableau(code)
    g_rows = sf.unpermute(sf.g_std)
    rows = [
        PREFIXES[int(ph)] + _split_row(row, sf.n)
        for row, ph in zip(g_rows, sf.phases)
    ]
    lx_str = [PhasedPauli.from_vector(r).to_string() for r in lx]
    lz_str = [PhasedPauli.from_vector(r).to_string() for r in lz]
    dst_str = [PhasedPauli.from_vector(r).to_string() for r in dst]
    doc = {
        "schema_version": 1,
        "command": "analyze",
        "code": {"n": code.n, "k": t.k, "checks": len(code.checks)},
        "standard_form": {
            "r": sf.r,
            "s": sf.s,
            "qubit_order": [int(q) for q in sf.qubit_perm],
            "rows": rows,
        },
        "logical_x": lx_str,
        "logical_z": lz_str,
        "destabilizers": dst_str,
        "tableau_symplectic": True,
    }
    lines = [
        "code: n=%d k=%d checks=%d" % (code.n, t.k, len(code.checks)),
        "standard form: r=%d s=%d" % (sf.r, sf.s),
        "qubit order: %s" % " ".join(str(int(q)) for q in sf.qubit_perm),
    ]
    lines += ["  " + row for row in rows]
    lines.append("logical X:")
    lines += ["  " + s for s in lx_str]
    lines.append("logical Z:")
    lines += ["  " + s for s in lz_str]
    lines.append("destabilizers:")
    lines += ["  " + s for s in dst_str]
    lines.append("tableau: symplectic")
    _emit(doc, args.json, lines)
    return EXIT_OK


def _gate_entry(images, circ: CliffordCircuit, report) -> dict:
    return {
        "permutation": cycle_string(images),
        "circuit": [str(g) for g in circ.gates],
        "correction": report.pauli_correction.to_string(),
        "action": _action_rows(report.u_act),
        "action_name": report.action_word,
    }


def _gate_lines(idx: int, entry: dict) -> list[str]:
    return [
        "generator %d:" % idx,
        "  permutation: %s" % entry["permutation"],
        "  circuit: %s" % ("; ".join(entry["circuit"]) or "I"),
        "  correction: %s" % entry["correction"],
        "  action: %s" % ";".join(entry["action"]),
        "  action name: %s" % (entry["action_name"] or "-"),
    ]


def cmd_gates(args) -> int:
    code = _load_code(args.code)
    deadline = time.monotonic() + _budget_ms(args) / 1000.0
    disc = discover_gates(
        code, kind=_REPS[args.rep], rows=_ROWS[args.rows], deadline=deadline
    )
    t = disc.tableau
    entries = []
    for gate in disc.gates:
        if not verify_preserves_stabilizers(
            t, corrected_circuit(gate.report, gate.circuit)
        ):  # pragma: no cover - certification already checked this
            raise AutgatesError("discovered gate failed re-verification")
        entries.append(_gate_entry(gate.images, gate.circuit, gate.report))
    doc = {
        "schema_version": 1,
        "command": "gates",
        "code": {"n": code.n, "k": t.k, "checks": len(code.checks)},
        "representation": args.rep,
        "rows": args.rows,
        "search": {
            "complete": disc.search.complete,
            "nodes": disc.search.nodes,
            "order": disc.search.group.order(),
        },
        "action_group_order": disc.group.order(),
        "generators": entries,
    }
    lines = [
        "code: n=%d k=%d checks=%d" % (code.n, t.k, len(code.checks)),
        "representation: %s" % args.rep,
        "rows: %s" % args.rows,
        "automorphism group: order %d (%s, %d nodes)"
        % (
            disc.search.group.order(),
            "complete" if disc.search.complete else "incomplete",
            disc.search.nodes,
        ),
        "action group: order %d" % disc.group.order(),
        "generators: %d" % len(entries),
    ]
    for idx, entry in enumerate(entries):
        lines += _gate_lines(idx, entry)
    _emit(doc, args.json, lines)
    return EXIT_OK if disc.search.complete else EXIT_BUDGET


def _parse_target_arg(arg: str, k: int):
    if Path(arg).is_file():
        return parse_action_matrix(_read_text(arg))
    return parse_target(arg, k)


def cmd_find_gate(args) -> int:
    code = _load_code(args.code)
    deadline = time.monotonic() + _budget_ms(args) / 1000.0
    disc = discover_gates(
        code, kind=_REPS[args.rep], rows=_ROWS[args.rows], deadline=deadline
    )
    t = disc.tableau
    target = _parse_target_arg(args.target, t.k)
    group = disc.group
    complete = disc.search.complete
    if args.embed is not None:
        spec = (
            all_pairs(code.n)
            if args.embed == "all"
            else parse_pairs_file(_read_text(args.embed), code.n)
        )
        for kind in (RepKind.SSWAP, RepKind.SQRTXSWAP):
            emb_disc = discover_embedded_gates(code, spec, kind=kind, deadline=deadline)
            complete = complete and emb_disc.search.complete
            for gate in emb_disc.gates:
                if args.max_2q is not None and gate.two_qubit_count > args.max_2q:
                    continue
                group.add(gate.report.u_act, gate.circuit)
    try:
        result = synthesize(group, target, t)
    except NotRealizableError:
        if not complete:
            print("search budget exceeded; result inconclusive", file=sys.stderr)
            return EXIT_BUDGET
        raise
    if not verify_preserves_stabilizers(
        t, result.corrected
    ):  # pragma: no cover - certification already checked this
        raise AutgatesError("synthesized gate failed re-verification")
    entry = {
        "action": _action_rows(result.report.u_act),
        "action_name": result.report.action_word,
        "correction": result.report.pauli_correction.to_string(),
        "circuit": [str(g) for g in result.corrected.gates],
        "word_length": len(result.word),
    }
    doc = {
        "schema_version": 1,
        "command": "find-gate",
        "code": {"n": code.n, "k": t.k, "checks": len(code.checks)},
        "target": args.target,
        "realized": True,
        "search_complete": complete,
        **entry,
    }
    if args.json:
        print(json.dumps(doc, indent=2))
    elif args.qasm:
        print(circuit_to_qasm(result.corrected), end="")
    else:
        lines = [
            "# code: n=%d k=%d" % (code.n, t.k),
            "# target: %s" % args.target,
            "# action: %s" % ";".join(entry["action"]),
            "# action name: %s" % (entry["action_name"] or "-"),
            "# correction: %s" % entry["correction"],
            "# gates follow, correction first",
        ]
        lines += entry["circuit"]
        print("\n".join(lines))
    return EXIT_OK


def cmd_verify(args) -> int:
    code = _load_code(args.code)
    circ = circuit_from_text(_read_text(args.circuit), n=code.n)
    t = tableau(code)
    report = pauli_correct_and_action(t, circ)
    valid = report.valid and correction_is_logical(t, report)
    reason = report.reason
    if report.valid and not valid:
        reason = "circuit moves the code space (stabilizer signs flip)"
    doc = {
        "schema_version": 1,
        "command": "verify",
        "code": {"n": code.n, "k": t.k, "checks": len(code.checks)},
        "circuit": [str(g) for g in circ.gates],
        "valid": valid,
    }
    lines = [
        "code: n=%d k=%d checks=%d" % (code.n, t.k, len(code.checks)),
        "circuit: %s" % (str(circ)),
        "verdict: %s" % ("valid" if valid else "invalid"),
    ]
    if valid:
        doc.update(
            {
                "correction": report.pauli_correction.to_string(),
                "action": _action_rows(report.u_act),
                "action_name": report.action_word,
            }
        )
        lines += [
            "correction: %s" % report.pauli_correction.to_string(),
            "action: %s" % ";".join(_action_rows(report.u_act)),
            "action name: %s" % (report.action_word or "-"),
        ]
    else:
        doc["reason"] = reason
        lines.append("reason: %s" % reason)
    _emit(doc, args.json, lines)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="autgates",
        description="Logical Clifford gates of stabilizer codes from binary code automorphisms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("code", help="code file path or bundled name")
        p.add_argument("--json", action="store_true", help="emit a JSON report")

    p = sub.add_parser("analyze", help="standard form, logical basis, tableau")
    add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("gates", help="discover and certify automorphism gates")
    add_common(p)
    p.add_argument("--rep", choices=sorted(_REPS), default="threeblock")
    p.add_argument("--rows", choices=sorted(_ROWS), default="given")
    p.add_argument("--budget", type=float, default=None, help="search budget in ms")
    p.set_defaults(func=cmd_gates)

    p = sub.add_parser("find-gate", help="synthesize a target logical action")
    add_common(p)
    p.add_argument("--target", required=True, help="gate expression or action matrix file")
    p.add_argument("--rep", choices=sorted(_REPS), default="threeblock")
    p.add_argument("--rows", choices=sorted(_ROWS), default="codewords")
    p.add_argument("--embed", default=None, metavar="PAIRS", help="'all' or a pairs file")
    p.add_argument("--max-2q", type=int, default=None, dest="max_2q",
                   help="drop embedded gates with more two-qubit gates")
    p.add_argument("--budget", type=float, default=None, help="search budget in ms")
    p.add_argument("--qasm", action="store_true", help="emit OpenQASM 2 instead of gate lines")
    p.set_defaults(func=cmd_find_gate)

    p = sub.add_parser("verify", help="certify a circuit file against a code")
    add_common(p)
    p.add_argument("circuit", help="circuit file, one gate per line")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    start = time.monotonic()
    try:
        rc = args.func(args)
    except NotRealizableError as exc:
        print("not realizable: %s" % exc, file=sys.stderr)
        return EXIT_NOT_REALIZABLE
    except AutgatesError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    finally:
        elapsed = (time.monotonic() - start) * 1000.0
        print("elapsed: %.1f ms" % elapsed, file=sys.stderr)
    return rc


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
