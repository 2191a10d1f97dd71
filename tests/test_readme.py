"""The examples in README.md, run in-process.

Each ``$ autgates ...`` block must exit 0, and the lines it shows must
appear in the command's stdout in the same order.  A ``...`` line
stands for one or more omitted lines; elsewhere the shown lines are
consecutive, and a block that neither starts nor ends with ``...``
shows the whole output.  The ``python`` block must print the group
order its comment names and then a circuit realizing its target.
"""

import re
import shlex
from pathlib import Path

import pytest

from autgates import circuit_from_text, load, parse_target, pauli_correct_and_action, tableau
from autgates.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def cli_examples():
    """(argv, shown output lines) of each ``$ autgates`` code block."""
    examples = []
    for block in README.read_text().split("```")[1::2]:
        lines = block.strip("\n").splitlines()
        if lines and lines[0].startswith("$ autgates "):
            examples.append((shlex.split(lines[0])[2:], lines[1:]))
    return examples


EXAMPLES = cli_examples()


def shown_in(shown, out):
    """True when out reads as shown, each ``...`` one or more whole lines."""
    pattern = "\n".join("(?s:.*)" if l == "..." else re.escape(l) for l in shown)
    return re.fullmatch(pattern, out.rstrip("\n")) is not None


def test_readme_has_every_subcommand():
    assert sorted({argv[0] for argv, _ in EXAMPLES}) == [
        "analyze", "find-gate", "gates", "verify"
    ]


@pytest.mark.parametrize(
    "argv, shown", EXAMPLES, ids=[" ".join(argv) for argv, _ in EXAMPLES]
)
def test_readme_example(tmp_path, monkeypatch, capsys, argv, shown):
    monkeypatch.chdir(tmp_path)
    if argv[0] == "verify":
        # the circuit file is the one the example's output echoes
        circuit = next(l for l in shown if l.startswith("circuit: "))
        gates = circuit[len("circuit: "):].split("; ")
        Path(argv[-1]).write_text("".join(g + "\n" for g in gates))
    rc = main(argv)
    out = capsys.readouterr().out
    assert rc == 0
    assert shown_in(shown, out), out


def test_shown_in_matches_omissions():
    out = "a\nb\nc\nd\n"
    assert shown_in(["a", "b", "c", "d"], out)
    assert shown_in(["a", "...", "d"], out)
    assert shown_in(["...", "c", "d"], out)
    assert shown_in(["a", "b", "..."], out)
    assert shown_in(["...", "b", "..."], out)
    assert not shown_in(["a", "c", "..."], out)
    assert not shown_in(["a", "b"], out)
    assert not shown_in(["...", "b", "a", "..."], out)
    assert not shown_in(["a", "...", "b", "c", "d"], out)


def test_readme_library_example(capsys):
    (block,) = README.read_text().split("```python\n")[1:]
    exec(block.split("```")[0], {})
    order, circuit = capsys.readouterr().out.splitlines()
    assert order == "720"
    t = tableau(load("n4k2d2"))
    circ = circuit_from_text(circuit.replace("; ", "\n"), n=4)
    report = pauli_correct_and_action(t, circ)
    assert report.valid and circ.gates
    assert (report.u_act == parse_target("S(0)", t.k)).all()
