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

import math
import re
from dataclasses import dataclass

import numpy as np

from .autsearch import AutSearchResult, matrix_automorphisms
from .binrep import RepKind, RowSource, row_augmented_matrix
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
from .gf2 import asbits, is_symplectic
from .permgroup import MatrixElement, StabilizerChain
from .stabilizer import StabilizerCode, Tableau, tableau


def check_action_matrix(u_act, k: int) -> np.ndarray:
    """u_act as bits, if it is a 2k x 2k symplectic matrix."""
    u = asbits(u_act)
    if u.shape != (2 * k, 2 * k):
        raise DimensionError("action matrix must be %d x %d, got %s" % (2 * k, 2 * k, u.shape))
    if k and not is_symplectic(u):
        raise NotSymplecticError("action matrix is not symplectic")
    return u


def symplectic_group_order(k: int) -> int:
    """|Sp(2k, 2)| = 2^(k^2) (4 - 1)(4^2 - 1)...(4^k - 1)."""
    return 2 ** (k * k) * math.prod(4**i - 1 for i in range(1, k + 1))


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

    def add(self, u_act, circuit: CliffordCircuit, bound: int | None = None) -> bool:
        """Register an action with a circuit; True if the group grew.

        bound must be at least the order of the group that every action
        registered so far, this one included, generates; it defaults to
        |Sp(2k, 2)|, as every action is symplectic.  When those are the
        images of the group H_j that the first j search generators
        generate (PermGroup.prefix_orders), |H_j| is such a bound, and so
        is |H_j| / |K|, for K the kernel of that map on H_{j-1}
        (discover_gates).  It only saves work: the group, its order and
        every express word are as without it.  A bound that is too small
        gives a wrong group.
        """
        u = check_action_matrix(u_act, self.k)
        idx = len(self.generators)
        self.generators.append((u, circuit))
        if bound is None:
            bound = symplectic_group_order(self.k)
        return self._chain.add(MatrixElement.from_matrix(u, ((idx, 1),)), bound)

    def order(self) -> int:
        return self._chain.order()

    def express(self, u_act):
        """Word of (generator_index, exponent) pairs recomposing to u_act.

        The word reads left to right in application order; None when the
        action is outside the group.
        """
        u = check_action_matrix(u_act, self.k)
        elt = self._chain.express(MatrixElement.from_matrix(u))
        return None if elt is None else elt.word

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
    word = group.express(target)
    if word is None:
        raise NotRealizableError(
            "target action is not generated by the discovered gates"
        )
    circ = group.word_circuit(word, t.n)
    report = pauli_correct_and_action(t, circ)
    if not report.valid or not np.array_equal(
        report.u_act, asbits(target)
    ):  # pragma: no cover
        raise AutgatesError("synthesized circuit failed re-verification")
    return SynthesisResult(
        word=word,
        circuit=circ,
        report=report,
        corrected=corrected_circuit(report, circ),
    )


@dataclass
class DiscoveredGate:
    """One automorphism, as images of the searched columns, lifted to a
    verified circuit on the code's own qubits."""

    images: tuple
    circuit: CliffordCircuit
    report: LogicalReport


@dataclass
class DiscoveryResult:
    """End-to-end discovery output for one code and representation."""

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
    mat, colors = row_augmented_matrix(code.check_matrix, kind, rows)
    search = matrix_automorphisms(mat, colors, deadline=deadline)
    t = tableau(code)
    group = LogicalActionGroup(t.k)
    # the first j actions are the image phi(H_j) of the group H_j that the
    # first j search generators generate (prefix_orders, exact also when the
    # search was cut short).  With K_j = ker phi & H_j, K_{j-1} <= K_j as
    # H_{j-1} <= H_j, so |phi(H_j)| = |H_j| / |K_j| <= |H_j| / |K_{j-1}|; and
    # |K_{j-1}| = |H_{j-1}| / |phi(H_{j-1})|, as each add leaves the chain
    # complete, so its order is exact
    kernel = 1
    gates = []
    for images, order in zip(search.generators, search.group.prefix_orders()):
        circ = perm_to_circuit(kind, images)
        report = pauli_correct_and_action(t, circ)
        if not report.valid:  # pragma: no cover
            raise AutgatesError(
                "automorphism lifted to a circuit that breaks the code"
            )
        group.add(report.u_act, circ, order // kernel)
        kernel, rest = divmod(order, group.order())
        if rest:  # Lagrange: |phi(H_j)| divides |H_j|
            raise AutgatesError("logical actions are not an image of the automorphisms")
        gates.append(DiscoveredGate(images=images, circuit=circ, report=report))
    return DiscoveryResult(tableau=t, search=search, gates=gates, group=group)


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
    # every term is read before any gate is built, so unparsable text is
    # reported as such rather than as the arity of the term before it
    terms = []
    pos = 0
    end = len(text)
    while pos < end and text[pos:].strip():
        m = _TERM_RE.match(text, pos)
        if m is None or m.end() == pos:
            raise ParseError("cannot parse target near %r" % text[pos:])
        pos = m.end()
        terms.append(m.groups())
    gates = []
    for name, args in terms:
        name = name.upper()
        args = tuple(int(a) for a in args.split(",")) if args else ()
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
