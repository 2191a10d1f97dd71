"""Logical action groups: membership, exact orders and gate synthesis.

Each physical circuit produced by the automorphism pipeline acts on the
k logical qubits as a 2k x 2k binary symplectic matrix.  The actions of
all discovered circuits form a group under composition.  This module
collects those actions together with one implementing circuit per
generator, answers exact membership and order queries through a
stabilizer chain on the faithful right action over length-2k binary
vectors, and synthesizes a physical circuit for any target action in
the group by stitching generator circuits along a membership word and
recomputing the Pauli correction on the composite.

Targets are symplectic matrices, so realizability is decided up to
logical Pauli factors; the exact sign bookkeeping is restored by the
final correction pass.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .autsearch import AutSearchResult, matrix_automorphisms
from .binrep import (
    BlockRep,
    RepKind,
    RowSource,
    build,
    row_augmented_matrix,
)
from .circuits import CliffordCircuit, Gate
from .cliffordmap import (
    LogicalReport,
    corrected_circuit,
    pauli_correct_and_action,
    perm_to_circuit,
)
from .errors import (
    AutgatesError,
    DimensionError,
    NotRealizableError,
    NotSymplecticError,
    ParseError,
)
from .gf2 import asbits, invert, is_symplectic, mat2
from .permgroup import MatrixElement, StabilizerChain
from .stabilizer import StabilizerCode, Tableau, tableau


class LogicalActionGroup:
    """Group of logical actions, each backed by an implementing circuit.

    Generators keep their insertion index even when redundant, so the
    words returned by express always index into the generators list.
    The caller certifies that each circuit realizes its action matrix
    on the code at hand; synthesize re-verifies every composite.
    """

    def __init__(self, k: int):
        self.k = int(k)
        dim = 2 * self.k
        self.generators: list[tuple[np.ndarray, CliffordCircuit]] = []
        self._chain = StabilizerChain(
            MatrixElement.identity(dim),
            prescribed_base=tuple(1 << i for i in range(dim)),
        )

    def _check_matrix(self, u_act) -> np.ndarray:
        u = asbits(u_act)
        dim = 2 * self.k
        if u.shape != (dim, dim):
            raise DimensionError(
                "action matrix must be %d x %d, got %s" % (dim, dim, u.shape)
            )
        if dim and not is_symplectic(u):
            raise NotSymplecticError("action matrix is not symplectic")
        return u

    def add(self, u_act, circuit: CliffordCircuit) -> bool:
        """Register an action with a circuit; True if the group grew."""
        u = self._check_matrix(u_act)
        idx = len(self.generators)
        self.generators.append((u, circuit))
        return self._chain.add(MatrixElement.from_matrix(u, ((idx, 1),)))

    def order(self) -> int:
        return self._chain.order()

    def contains(self, u_act) -> bool:
        u = self._check_matrix(u_act)
        return self._chain.contains(MatrixElement.from_matrix(u))

    def express(self, u_act):
        """Word of (generator_index, exponent) pairs recomposing to u_act.

        The word reads left to right in application order; None when the
        action is outside the group.
        """
        u = self._check_matrix(u_act)
        elt = self._chain.express(MatrixElement.from_matrix(u))
        return None if elt is None else elt.word

    def word_matrix(self, word) -> np.ndarray:
        """Recompose a word into its action matrix."""
        out = np.eye(2 * self.k, dtype=np.uint8)
        for idx, exp in word:
            g = self.generators[idx][0]
            out = mat2(out, g if exp > 0 else invert(g))
        return out

    def word_circuit(self, word, n: int) -> CliffordCircuit:
        """Concatenate generator circuits along a word, inverses included."""
        gates = []
        for idx, exp in word:
            circ = self.generators[idx][1]
            if exp < 0:
                circ = circ.inverse()
            gates.extend(circ.gates)
        return CliffordCircuit(n, tuple(gates))


@dataclass
class SynthesisResult:
    """A stitched circuit realizing a target logical action.

    circuit is the bare generator composite; corrected prepends the
    Pauli gates from report.pauli_correction so every stabilizer and
    logical sign comes out exact.
    """

    word: tuple
    circuit: CliffordCircuit
    report: LogicalReport
    corrected: CliffordCircuit


def synthesize(
    group: LogicalActionGroup, target, t: Tableau
) -> SynthesisResult:
    """Physical circuit whose logical action equals the target matrix.

    Raises NotRealizableError when the target lies outside the group.
    The composite is re-run through the correction pass, so the result
    carries the exact Pauli correction for the stitched circuit.
    """
    u = group._check_matrix(target)
    word = group.express(u)
    if word is None:
        raise NotRealizableError(
            "target action is not generated by the discovered gates"
        )
    circ = group.word_circuit(word, t.n)
    report = pauli_correct_and_action(t, circ)
    if not report.valid or not np.array_equal(report.u_act, u):  # pragma: no cover
        raise AutgatesError("synthesized circuit failed re-verification")
    return SynthesisResult(
        word=word,
        circuit=circ,
        report=report,
        corrected=corrected_circuit(report, circ),
    )


@dataclass
class DiscoveredGate:
    """One automorphism generator lifted to a verified circuit."""

    images: tuple
    circuit: CliffordCircuit
    report: LogicalReport


@dataclass
class DiscoveryResult:
    """End-to-end discovery output for one code and representation."""

    rep: BlockRep
    rows: RowSource
    tableau: Tableau
    search: AutSearchResult
    gates: list[DiscoveredGate]
    group: LogicalActionGroup


def discover_gates(
    code: StabilizerCode,
    kind: RepKind = RepKind.THREEBLOCK,
    rows: RowSource = RowSource.AS_GIVEN,
    deadline: float | None = None,
) -> DiscoveryResult:
    """Run representation, automorphism search, lifting and correction.

    Every search generator is converted to a circuit and put through
    the correction pass; an invalid report here would mean the search
    or the lifting is broken, so it raises instead of skipping.
    """
    rep = build(code, kind)
    mat, colors = row_augmented_matrix(rep, rows)
    search = matrix_automorphisms(mat, colors, deadline=deadline)
    t = tableau(code)
    group = LogicalActionGroup(t.k)
    gates = []
    for images in search.generators:
        circ = perm_to_circuit(rep, images)
        report = pauli_correct_and_action(t, circ)
        if not report.valid:  # pragma: no cover
            raise AutgatesError(
                "automorphism lifted to a circuit that breaks the code"
            )
        group.add(report.u_act, circ)
        gates.append(DiscoveredGate(images=images, circuit=circ, report=report))
    return DiscoveryResult(
        rep=rep, rows=rows, tableau=t, search=search, gates=gates, group=group
    )


_TERM_RE = re.compile(
    r"\s*([A-Za-z]+)\s*(?:\(\s*([0-9]+(?:\s*,\s*[0-9]+)*)\s*\))?\s*;?"
)


def parse_target(text: str, k: int) -> np.ndarray:
    """Parse a named logical target into its 2k x 2k action matrix.

    Terms like "S(0)", "CNOT(0,1)" or bare "I" compose left to right:
    "H(0) S(0)" means apply H first.  Indices address logical qubits.
    Pauli terms are accepted and act as the identity, matching the
    up-to-Pauli notion of realizability.
    """
    gates = []
    pos = 0
    end = len(text)
    while pos < end and text[pos:].strip():
        m = _TERM_RE.match(text, pos)
        if m is None or m.end() == pos:
            raise ParseError("cannot parse target near %r" % text[pos:])
        pos = m.end()
        name = m.group(1).upper()
        args = (
            tuple(int(a) for a in m.group(2).split(","))
            if m.group(2)
            else ()
        )
        if name == "I" and not args:
            continue
        gates.append(Gate(name, args))
    return CliffordCircuit(k, tuple(gates)).symplectic()


def parse_action_matrix(text: str) -> np.ndarray:
    """Parse a binary matrix given as lines of 0/1 entries.

    Spaces and commas within a row are ignored, '#' starts a comment.
    The matrix must be square with even dimension; whether it is
    symplectic is checked where it is used.
    """
    rows = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        entry = line.replace(",", "").replace(" ", "").replace("\t", "")
        if not set(entry) <= {"0", "1"}:
            raise ParseError("matrix rows must contain only 0 and 1")
        rows.append([int(c) for c in entry])
    if not rows:
        raise ParseError("no matrix rows found")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ParseError("matrix rows have unequal lengths")
    if len(rows) != width or width % 2:
        raise ParseError("action matrix must be square with even dimension")
    return asbits(np.array(rows, dtype=np.uint8))
