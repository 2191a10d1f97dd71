"""Command line interface.

Four subcommands cover the pipeline: analyze (standard form and logical
basis of a code file), gates (automorphism discovery with verified
circuits), find-gate (synthesize a target logical action), and verify
(certify a circuit file against a code).  Reports go to stdout and are
byte-identical across runs on identical inputs; timing goes to stderr.
Exit codes: 0 success, 2 target not realizable, 3 usage, parse or input
error, 4 search budget exceeded.
"""

from __future__ import annotations

import argparse
import functools
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
from .codes import corpus_names, load
from .embedded import all_pairs, discover_embedded_gates, parse_pairs_file
from .errors import AutgatesError, NotRealizableError, ParseError, TooManyCodewordsError
from .gf2 import rank
from .logsearch import (
    check_action_matrix,
    discover_gates,
    parse_action_matrix,
    parse_target,
    synthesize,
)
from .pauli import PREFIXES
from .permgroup import cycle_string
from .stabilizer import parse_code_file, tableau

EXIT_OK = 0
EXIT_NOT_REALIZABLE = 2
EXIT_PARSE = 3
EXIT_BUDGET = 4

DEFAULT_BUDGET_MS = 60000.0

_REP_CHOICES = sorted(kind.value for kind in RepKind)
_ROW_CHOICES = sorted(rows.value for rows in RowSource)


def _read_text(path: str) -> str:
    """The file's UTF-8 text without a leading byte-order mark; decoding the
    bytes whole keeps a bad byte's offset in the file, BOM included."""
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except OSError as exc:
        raise ParseError("cannot read %s: %s" % (path, exc.strerror or exc)) from None
    except UnicodeDecodeError as exc:
        raise ParseError("cannot read %s: not UTF-8 at byte %d" % (path, exc.start)) from None
    return text.removeprefix("\ufeff")


def _load_code(arg: str):
    if Path(arg).is_file():
        return parse_code_file(_read_text(arg))
    if arg in corpus_names():
        return load(arg)
    raise ParseError(
        "no such code file or bundled name: %r (bundled: %s)"
        % (arg, ", ".join(corpus_names()))
    )


def _deadline(args) -> float:
    """time.monotonic() value at which the search stops."""
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
    return time.monotonic() + budget / 1000.0


def _bits(row) -> str:
    return (row + ord("0")).astype("u1").tobytes().decode()  # one call per row


def _split_row(row, n: int) -> str:
    return _bits(row[:n]) + "|" + _bits(row[n:])


def _action_rows(u_act) -> list[str]:
    return [_bits(row) for row in u_act]


def _report(doc: dict, as_json: bool, lines: list[str]) -> str:
    return (json.dumps(doc, indent=2) if as_json else "\n".join(lines)) + "\n"


def _head(command: str, code, k: int) -> dict:
    """The fields every JSON report starts with."""
    return {
        "schema_version": 1,
        "command": command,
        "code": {"n": code.n, "k": k, "checks": len(code.checks)},
    }


def _action_entry(report) -> dict:
    return {
        "correction": report.pauli_correction.to_string(),
        "action": _action_rows(report.u_act),
        "action_name": report.action_word,
    }


def cmd_analyze(args) -> tuple[int, str]:
    code = _load_code(args.code)
    t = tableau(code)
    sf = t.standard_form
    rows = [PREFIXES[int(t.phases[i])] + _split_row(t.tau[i], t.n) for i in t.stab_rows]
    lx_str, lz_str, dst_str = (
        [t.row_pauli(i).to_string() for i in span]
        for span in (t.logical_x_rows, t.logical_z_rows, t.destabilizer_rows)
    )
    doc = {
        **_head("analyze", code, t.k),
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
    sections = (("logical X", lx_str), ("logical Z", lz_str), ("destabilizers", dst_str))
    for title, strings in sections:
        lines += [title + ":"] + ["  " + s for s in strings]
    lines.append("tableau: symplectic")
    return EXIT_OK, _report(doc, args.json, lines)


def _gate_entry(images, circ: CliffordCircuit, report) -> dict:
    return {
        "permutation": cycle_string(images),
        "circuit": [str(g) for g in circ.gates],
        **_action_entry(report),
    }


def _action_lines(entry: dict) -> list[str]:
    return [
        "correction: %s" % entry["correction"],
        "action: %s" % ";".join(entry["action"]),
        "action name: %s" % (entry["action_name"] or "-"),
    ]


def _gate_lines(idx: int, entry: dict) -> list[str]:
    return [
        "generator %d:" % idx,
        "  permutation: %s" % entry["permutation"],
        "  circuit: %s" % ("; ".join(entry["circuit"]) or "I"),
    ] + ["  " + line for line in _action_lines(entry)]


def cmd_gates(args) -> tuple[int, str]:
    code = _load_code(args.code)
    disc = discover_gates(
        code, kind=RepKind(args.rep), rows=RowSource(args.rows), deadline=_deadline(args)
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
        **_head("gates", code, t.k),
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
    rc = EXIT_OK if disc.search.complete else EXIT_BUDGET
    return rc, _report(doc, args.json, lines)


def _parse_target_arg(arg: str, k: int):
    if Path(arg).is_file():
        return check_action_matrix(parse_action_matrix(_read_text(arg)), k)
    return parse_target(arg, k)


def cmd_find_gate(args) -> tuple[int, str]:
    code = _load_code(args.code)
    deadline = _deadline(args)
    if args.max_2q is not None and args.max_2q < 0:
        raise ParseError("--max-2q must be >= 0, got %d" % args.max_2q)
    # every input is checked before the search; k needs no tableau
    target = _parse_target_arg(args.target, code.n - rank(code.check_matrix))
    if args.embed is not None:
        spec = (
            all_pairs(code.n)
            if args.embed == "all"
            else parse_pairs_file(_read_text(args.embed), code.n)
        )
    disc = discover_gates(
        code, kind=RepKind(args.rep), rows=RowSource(args.rows), deadline=deadline
    )
    t = disc.tableau
    group = disc.group
    complete = disc.search.complete
    if args.embed is not None:
        for kind in (RepKind.SSWAP, RepKind.SQRTXSWAP):
            emb_disc = discover_embedded_gates(code, spec, kind=kind, deadline=deadline, t=t)
            complete = complete and emb_disc.search.complete
            for gate in emb_disc.gates:
                if args.max_2q is not None and gate.circuit.two_qubit_count() > args.max_2q:
                    continue
                group.add(gate.report.u_act, gate.circuit)
            del emb_disc  # free this basis's search before the next one's
    try:
        result = synthesize(group, target, t)
    except NotRealizableError:
        if not complete:
            _write(sys.stderr, "search budget exceeded; result inconclusive\n")
            return EXIT_BUDGET, ""
        raise
    if not verify_preserves_stabilizers(
        t, result.corrected
    ):  # pragma: no cover - certification already checked this
        raise AutgatesError("synthesized gate failed re-verification")
    entry = {
        # find-gate lists these three in key order: action, action_name, correction
        **dict(sorted(_action_entry(result.report).items())),
        "circuit": [str(g) for g in result.corrected.gates],
        "word_length": len(result.word),
    }
    doc = {
        **_head("find-gate", code, t.k),
        "target": args.target,
        "realized": True,
        "search_complete": complete,
        **entry,
    }
    if args.qasm and not args.json:
        return EXIT_OK, circuit_to_qasm(result.corrected)
    lines = [
        "# code: n=%d k=%d" % (code.n, t.k),
        "# target: %s" % args.target,
        "# action: %s" % ";".join(entry["action"]),
        "# action name: %s" % (entry["action_name"] or "-"),
        "# correction: %s" % entry["correction"],
        "# gates follow, correction first",
    ]
    lines += entry["circuit"]
    return EXIT_OK, _report(doc, args.json, lines)


def cmd_verify(args) -> tuple[int, str]:
    code = _load_code(args.code)
    circ = circuit_from_text(_read_text(args.circuit), n=code.n)
    t = tableau(code)
    report = pauli_correct_and_action(t, circ)
    valid = report.valid and correction_is_logical(t, report)
    reason = report.reason
    if report.valid and not valid:
        reason = "circuit moves the code space (stabilizer signs flip)"
    doc = {
        **_head("verify", code, t.k),
        "circuit": [str(g) for g in circ.gates],
        "valid": valid,
    }
    lines = [
        "code: n=%d k=%d checks=%d" % (code.n, t.k, len(code.checks)),
        "circuit: %s" % (str(circ)),
        "verdict: %s" % ("valid" if valid else "invalid"),
    ]
    if valid:
        doc.update(_action_entry(report))
        lines += _action_lines(doc)
    else:
        doc["reason"] = reason
        lines.append("reason: %s" % reason)
    return EXIT_OK, _report(doc, args.json, lines)


class _Parser(argparse.ArgumentParser):
    """argparse, with usage errors on the input-error exit code, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, "%s: error: %s\n" % (self.prog, message))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p.add_argument("--rep", choices=_REP_CHOICES, default="threeblock")
    p.add_argument("--rows", choices=_ROW_CHOICES, default="given")
    p.add_argument("--budget", type=float, default=None, help="search budget in ms")
    p.set_defaults(func=cmd_gates)

    p = sub.add_parser("find-gate", help="synthesize a target logical action")
    add_common(p)
    p.add_argument("--target", required=True, help="gate expression or action matrix file")
    p.add_argument("--rep", choices=_REP_CHOICES, default="threeblock")
    p.add_argument("--rows", choices=_ROW_CHOICES, default="codewords")
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


def _write(stream, text):
    """Write and flush text; a reader that closed the stream early is no error.

    The stream is then pointed at devnull, so that the flush at exit cannot
    raise again (Python signal docs), and the run keeps its own exit code.
    """
    try:
        stream.write(text)
        stream.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    start = time.monotonic()
    try:
        rc, out = args.func(args)
        _write(sys.stdout, out)
    except NotRealizableError as exc:
        _write(sys.stderr, "not realizable: %s\n" % exc)
        return EXIT_NOT_REALIZABLE
    except TooManyCodewordsError as exc:
        _write(sys.stderr, "error: %s; --rows given avoids the enumeration\n" % exc)
        return EXIT_PARSE
    except AutgatesError as exc:
        _write(sys.stderr, "error: %s\n" % exc)
        return EXIT_PARSE
    finally:
        elapsed = (time.monotonic() - start) * 1000.0
        _write(sys.stderr, "elapsed: %.1f ms\n" % elapsed)
    return rc


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
