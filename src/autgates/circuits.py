"""Clifford circuits, their symplectic matrices and exact Pauli conjugation.

Every gate is defined once, by a row of GATES: its signed images of X_q and
Z_q, its inverse word and its QASM body.  Conjugation, symplectic matrices,
inverses and QASM are all derived from that table, and the table is checked
against a dense unitary conjugation oracle in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from typing import NamedTuple

import numpy as np

from .errors import ParseError
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


@cache
def _lookup(name: str) -> tuple[np.ndarray, np.ndarray]:
    """Phase increments and output codes of a gate on its 4^m local inputs.

    A qubit holding X^x Z^z has code x + 2z.  The local input with codes
    c_0 (and c_1) has index c_0 (+ 4 c_1); its image is the product of the
    images of X_0^x0 (X_1^x1) Z_0^z0 (Z_1^z1), in that order.
    """
    images = [PhasedPauli.from_string(s) for s in GATES[name].images]
    m = len(images) // 2
    coeffs = [[idx >> (2 * (j % m) + j // m) & 1 for j in range(2 * m)] for idx in range(4**m)]
    inc, out = row_products([p.phase for p in images], [p.vector() for p in images], coeffs)
    return inc, (out[:, :m] + 2 * out[:, m:]).T


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
        """
        n = self.n
        rows = np.asarray(rows, dtype=np.uint8)
        phases = np.array(phases, dtype=np.int64)
        code = (rows[:, :n] + 2 * rows[:, n:]).T.copy()  # qubit-major, so a gate reads rows
        for g in self.gates:
            inc, outs = _lookup(g.name)
            idx = code[g.qubits[0]]
            if len(g.qubits) == 2:
                idx = idx + 4 * code[g.qubits[1]]
            phases += inc[idx]
            for q, out in zip(g.qubits, outs):
                code[q] = out[idx]
        return phases % 4, np.hstack([code.T & 1, code.T >> 1])

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

    def to_text(self) -> str:
        return "\n".join(str(g) for g in self.gates) + ("\n" if self.gates else "")

    def __str__(self) -> str:
        return "; ".join(str(g) for g in self.gates) or "I"


def circuit_from_text(text: str, n: int | None = None) -> CliffordCircuit:
    """Parse one gate per line: 'H 0', 'SWAP 1 4', 'CNOT 0 2'; '#' comments."""
    gates: list[Gate] = []
    maxq = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        name = parts[0].upper()
        if name not in GATES:
            raise ParseError(f"line {lineno}: unknown gate {parts[0]!r}")
        try:
            qubits = tuple(int(tok) for tok in parts[1:])
        except ValueError:
            raise ParseError(f"line {lineno}: bad qubit index in {raw!r}") from None
        if any(q < 0 for q in qubits):
            raise ParseError(f"line {lineno}: negative qubit index in {raw!r}")
        gates.append(Gate(name, qubits))
        maxq = max(maxq, *qubits)
    if n is None:
        n = maxq + 1 if maxq >= 0 else 0
    return CliffordCircuit(n, tuple(gates))


def pauli_to_gates(p: PhasedPauli) -> CliffordCircuit:
    """Pauli gate layer realizing p up to global phase."""
    gates = []
    for q in range(p.n):
        a, b = int(p.x[q]), int(p.z[q])
        if a and b:
            gates.append(Gate("Y", (q,)))
        elif a:
            gates.append(Gate("X", (q,)))
        elif b:
            gates.append(Gate("Z", (q,)))
    return CliffordCircuit(p.n, tuple(gates))


def circuit_to_qasm(circ: CliffordCircuit) -> str:
    """OpenQASM 2 text, each gate written as its table body."""
    lines = ['OPENQASM 2.0;', 'include "qelib1.inc";', f"qreg q[{circ.n}];"]
    for g in circ.gates:
        qs = [f"q[{q}]" for q in g.qubits]
        lines += [stmt.format(*qs) + ";" for stmt in GATES[g.name].qasm.split("; ")]
    return "\n".join(lines) + "\n"
