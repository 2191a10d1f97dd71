"""Clifford circuits, their symplectic matrices and exact Pauli conjugation.

Every gate is defined once, by a row of GATES: its signed images of X_q and
Z_q, its inverse word and its QASM body.  Conjugation, symplectic matrices,
inverses and QASM are all derived from that table, and the table is checked
against a dense unitary conjugation oracle in the test suite.  It also
yields the decode table that lifts block permutations to gates
(cliffordmap.block_gates) and, from that, the auxiliary rotations the
embedded-code search probes (embedded.auxiliary_rotations).  The layers
of circdecomp's layered form take their symplectics from it too.

Propagation (Aaronson & Gottesman, Phys. Rev. A 70, 052328, 2004) takes one
numpy step per layer, not per gate.  A gate whose table images only
exchange its two qubits (SWAP) relabels the rows and moves no data, and a
run of one gate on pairwise disjoint qubits is one gather per qubit slot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from typing import NamedTuple

import numpy as np

from .errors import LengthMismatchError, ParseError
from .pauli import PhasedPauli, row_products


class GateDef(NamedTuple):
    images: tuple[str, ...]  # signed images of X_0 (X_1) Z_0 (Z_1)
    inverse: tuple[str, ...]  # gate names applied in order on the same qubits
    qasm: str  # '; '-separated statements on {0} (and {1})


_TABLE = {
    "H": ("Z X", "H", "h {0}"),
    "S": ("Y Z", "SDG", "s {0}"),
    "SDG": ("-Y Z", "S", "sdg {0}"),
    "SQRTX": ("X -Y", "SQRTX X", "h {0}; s {0}; h {0}"),  # SQRTX**3 = SQRTX X
    "GAMMA": ("Y X", "GAMMADG", "sdg {0}; h {0}"),  # H Sdg: X -> Y -> Z -> X
    "GAMMADG": ("Z Y", "GAMMA", "h {0}; s {0}"),
    "X": ("X -Z", "X", "x {0}"),
    "Y": ("-X -Z", "Y", "y {0}"),
    "Z": ("-X Z", "Z", "z {0}"),
    "I": ("X Z", "", "id {0}"),
    "SWAP": ("IX XI IZ ZI", "SWAP", "swap {0}, {1}"),
    "CNOT": ("XX IX ZI ZZ", "CNOT", "cx {0}, {1}"),
    "CZ": ("XZ ZX ZI IZ", "CZ", "cz {0}, {1}"),
    "CXX": ("XI IX ZX XZ", "CXX", "h {0}; h {1}; cz {0}, {1}; h {0}; h {1}"),
}
GATES = {
    name: GateDef(tuple(images.split()), tuple(inverse.split()), qasm)
    for name, (images, inverse, qasm) in _TABLE.items()
}

ONE_QUBIT_GATES = tuple(name for name, g in GATES.items() if len(g.images) == 2)
TWO_QUBIT_GATES = tuple(name for name, g in GATES.items() if len(g.images) == 4)
# two-qubit gates that map some single-qubit Pauli to a two-qubit one
TWO_QUBIT_ENTANGLERS = tuple(
    name
    for name in TWO_QUBIT_GATES
    if any("I" not in image for image in GATES[name].images)
)
# two-qubit gates that only exchange their qubits: propagation relabels rows
_RELABELS = frozenset(name for name, g in GATES.items() if g.images == ("IX", "XI", "IZ", "ZI"))


@cache
def _lookup(name: str) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Phase increments and per-qubit output codes of a gate on its 4^m local inputs.

    A qubit holding X^x Z^z has code x + 2z.  The local input with codes
    c_0 (and c_1) has index c_0 (+ 4 c_1); its image is the product of the
    images of X_0^x0 (X_1^x1) Z_0^z0 (Z_1^z1), in that order.
    """
    images = [PhasedPauli.from_string(s) for s in GATES[name].images]
    m = len(images) // 2
    coeffs = [[idx >> (2 * (j % m) + j // m) & 1 for j in range(2 * m)] for idx in range(4**m)]
    inc, out = row_products([p.phase for p in images], [p.vector() for p in images], coeffs)
    return inc, tuple((out[:, :m] + 2 * out[:, m:]).T)


@dataclass(frozen=True)
class Gate:
    name: str
    qubits: tuple[int, ...]

    def __post_init__(self):
        if self.name not in GATES:
            raise ParseError(f"unknown gate {self.name!r}")
        arity = len(GATES[self.name].images) // 2
        if len(self.qubits) != arity or len(set(self.qubits)) != arity:
            takes = "one qubit" if arity == 1 else "two distinct qubits"
            raise ParseError(f"{self.name} takes {takes}, got {self.qubits}")

    def __str__(self) -> str:
        return " ".join([self.name, *map(str, self.qubits)])


@dataclass(frozen=True)
class CliffordCircuit:
    """A gate list applied left to right on n qubits."""

    n: int
    gates: tuple[Gate, ...] = field(default_factory=tuple)

    def __post_init__(self):
        for g in self.gates:
            if any(q < 0 or q >= self.n for q in g.qubits):
                raise ParseError(f"gate {g} out of range for {self.n} qubits")

    def __add__(self, other: "CliffordCircuit") -> "CliffordCircuit":
        if self.n != other.n:
            raise ParseError(f"cannot concatenate circuits on {self.n} and {other.n} qubits")
        return CliffordCircuit(self.n, self.gates + other.gates)

    def __len__(self) -> int:
        return len(self.gates)

    def propagate(self, phases, rows) -> tuple[np.ndarray, np.ndarray]:
        """Push a batch of Paulis i^phase X(x) Z(z), rows (x|z), through the circuit.

        Returns new (phases mod 4, rows) holding U p Udag for each input p.
        The rows are held qubit-major as codes x + 2z and `where` maps each
        qubit to its row: a SWAP (_RELABELS) swaps two entries of `where`,
        and a run of one gate on pairwise disjoint qubits, of any arity, is
        one gather per qubit slot j, which adds code << 2j to the gates' local
        index.  Rows must be 2n wide, one per phase (LengthMismatchError).
        """
        n, gates = self.n, self.gates
        rows = np.asarray(rows, dtype=np.uint8)
        phases = np.array(phases, dtype=np.int64)
        if rows.shape != (len(phases), 2 * n):
            raise LengthMismatchError(f"{len(phases)} phases, rows {rows.shape}, on {n} qubits")
        code = (rows[:, :n] + 2 * rows[:, n:]).T.copy()
        where = list(range(n))
        i = 0
        while i < len(gates):
            name, qs = gates[i].name, gates[i].qubits
            i += 1
            if name in _RELABELS:
                where[qs[0]], where[qs[1]] = where[qs[1]], where[qs[0]]
                continue
            run, used = list(qs), set(qs)  # a run ends at its first shared qubit
            while i < len(gates) and gates[i].name == name and used.isdisjoint(gates[i].qubits):
                run += gates[i].qubits
                used.update(gates[i].qubits)
                i += 1
            m, rs = len(qs), [where[q] for q in run]  # slot j's rows: rs[j::m]
            idx = code.take(rs[::m], axis=0).astype(np.intp)  # take on intp: faster than []
            for j in range(1, m):
                idx += code.take(rs[j::m], axis=0) << 2 * j
            inc, outs = _lookup(name)
            phases += inc.take(idx).sum(axis=0)
            for j, out in enumerate(outs):
                code[rs[j::m]] = out.take(idx)
        code = code[where].T
        return phases % 4, np.hstack([code & 1, code >> 1])

    def conjugate(self, p: PhasedPauli) -> PhasedPauli:
        """Push p through the circuit: U p Udag with U = gates applied in order."""
        phases, rows = self.propagate([p.phase], p.vector()[None, :])
        return PhasedPauli.from_vector(rows[0], int(phases[0]))

    def symplectic(self) -> np.ndarray:
        """The 2n x 2n binary matrix acting on Pauli rows (x|z) from the right."""
        return self.propagate(np.zeros(2 * self.n), np.eye(2 * self.n, dtype=np.uint8))[1]

    def inverse(self) -> "CliffordCircuit":
        gates = tuple(
            Gate(name, g.qubits) for g in reversed(self.gates) for name in GATES[g.name].inverse
        )
        return CliffordCircuit(self.n, gates)

    def two_qubit_count(self) -> int:
        """Number of entangling gates (CNOT, CZ, CXX); SWAPs are not counted."""
        return sum(1 for g in self.gates if g.name in TWO_QUBIT_ENTANGLERS)

    def __str__(self) -> str:
        return "; ".join(str(g) for g in self.gates) or "I"


def circuit_from_text(text: str, n: int | None = None) -> CliffordCircuit:
    """Parse one gate per line: 'H 0', 'SWAP 1 4', 'CNOT 0 2'; '#' comments."""
    gates: list[Gate] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        name = parts[0].upper()
        if name not in GATES:
            raise ParseError(f"line {lineno}: unknown gate {parts[0]!r}")
        # decimal digits only, as in pairs files: int() also takes "+1" and "1_0"
        if not all(tok.isdecimal() for tok in parts[1:]):
            raise ParseError(f"line {lineno}: bad qubit index in {raw!r}")
        qubits = tuple(int(tok) for tok in parts[1:])
        try:  # the arity and range rules, named by line
            gates.append(Gate(name, qubits))
            if n is not None:
                CliffordCircuit(n, (gates[-1],))
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
    if n is None:
        n = max((q + 1 for g in gates for q in g.qubits), default=0)
    return CliffordCircuit(n, tuple(gates))


def pauli_to_gates(p: PhasedPauli) -> CliffordCircuit:
    """Pauli gate layer realizing p up to global phase."""
    letters = ("IXZY"[int(a) + 2 * int(b)] for a, b in zip(p.x, p.z))
    gates = (Gate(letter, (q,)) for q, letter in enumerate(letters) if letter != "I")
    return CliffordCircuit(p.n, tuple(gates))


def circuit_to_qasm(circ: CliffordCircuit) -> str:
    """OpenQASM 2 text, each gate written as its table body."""
    lines = ['OPENQASM 2.0;', 'include "qelib1.inc";', f"qreg q[{circ.n}];"]
    for g in circ.gates:
        qs = [f"q[{q}]" for q in g.qubits]
        lines += [stmt.format(*qs) + ";" for stmt in GATES[g.name].qasm.split("; ")]
    return "\n".join(lines) + "\n"
