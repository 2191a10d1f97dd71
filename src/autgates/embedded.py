"""Embedded codes: auxiliary parity qubits that turn CNOT and CZ into
qubit permutations.

Each auxiliary qubit tracks the parity of one pair of original qubits,
recorded as a weight-two row of a pairing matrix M.  With Z-type
auxiliaries (basis "z") the enlarged check matrix is

    G_V = [ G_X  G_X M^T  G_Z  0 ]
          [  0      0      M   I ]

and a phase gate on an auxiliary corresponds to S_a S_b CZ_ab on its
pair, while swapping an auxiliary with one of its members corresponds
to a CNOT.  The X-type dual (basis "x") uses auxiliaries holding X
parities,

    G_V = [ G_X   0   G_Z  G_Z M^T ]
          [  M    I    0      0    ]

so that SQRTX on an auxiliary corresponds to SQRTX_a SQRTX_b CXX_ab.
Both forms are built by the embedding circuit, CNOTs from the pair
members onto each Z-type auxiliary (from each X-type auxiliary onto its
members): the checks, padded with the identity on the auxiliaries, and
one Z (X) on each auxiliary go through it in one batch, so lifted checks
keep their signs and parity checks are +.

Automorphism discovery runs on the embedded code; interpretation maps
each embedded circuit back to the original qubits and is then checked
semantically: the interpreted circuit must move every lifted stabilizer
and logical generator exactly as the embedded circuit does, up to an
embedded stabilizer element with its exact sign.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autsearch import AutSearchResult, matrix_automorphisms
from .binrep import RepKind, RowSource, build, row_augmented_matrix
from .circuits import GATES, CliffordCircuit, Gate
from .cliffordmap import LogicalReport, pauli_correct_and_action, perm_to_circuit
from .errors import (
    DimensionError,
    EmbeddedInterpretationError,
    ParseError,
)
from .gf2 import mat2
from .pauli import PhasedPauli, row_products
from .stabilizer import StabilizerCode, Tableau, tableau


@dataclass(frozen=True)
class EmbeddingSpec:
    """Qubit pairs receiving auxiliary parity qubits."""

    n: int
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        seen = set()
        for a, b in self.pairs:
            if not (0 <= a < self.n and 0 <= b < self.n):
                raise DimensionError("pair (%d, %d) out of range for n=%d" % (a, b, self.n))
            if a == b:
                raise DimensionError("pair (%d, %d) must join two distinct qubits" % (a, b))
            key = frozenset((a, b))
            if key in seen:
                raise DimensionError("pair (%d, %d) appears twice" % (a, b))
            seen.add(key)

    @property
    def m(self) -> int:
        return len(self.pairs)

    @property
    def matrix(self) -> np.ndarray:
        """The m x n pairing matrix; row j marks the members of pair j."""
        mat = np.zeros((self.m, self.n), dtype=np.uint8)
        for j, (a, b) in enumerate(self.pairs):
            mat[j, a] = 1
            mat[j, b] = 1
        return mat


def all_pairs(n: int) -> EmbeddingSpec:
    """Every qubit pair, in lexicographic order."""
    return EmbeddingSpec(
        n, tuple((a, b) for a in range(n) for b in range(a + 1, n))
    )


def parse_pairs_file(text: str, n: int) -> EmbeddingSpec:
    """Parse pair lines "i j" (0-based), with '#' comments."""
    pairs = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2 or not all(p.isdigit() for p in parts):
            raise ParseError("line %d: expected two qubit indices" % lineno)
        pairs.append((int(parts[0]), int(parts[1])))
    return EmbeddingSpec(n, tuple(pairs))


@dataclass
class EmbeddedCode:
    """An enlarged code with one parity auxiliary per pair."""

    base: StabilizerCode
    spec: EmbeddingSpec
    basis: str  # "z": Z-type auxiliaries (S/CZ); "x": X-type (SQRTX/CXX)
    code: StabilizerCode

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def m(self) -> int:
        return self.spec.m


def _pad(rows: np.ndarray, n: int, m: int) -> np.ndarray:
    """(x|z) rows on n qubits, padded with the identity on m auxiliaries."""
    out = np.zeros((len(rows), 2 * (n + m)), dtype=np.uint8)
    out[:, :n] = rows[:, :n]
    out[:, n + m : 2 * n + m] = rows[:, n:]
    return out


def embedding_circuit(emb: EmbeddedCode) -> CliffordCircuit:
    """The embedding: CNOTs from each pair onto its Z-type auxiliary, or
    from an X-type auxiliary onto its pair."""
    gates = []
    for j, (a, b) in enumerate(emb.spec.pairs):
        aux = emb.n + j
        if emb.basis == "z":
            gates.append(Gate("CNOT", (a, aux)))
            gates.append(Gate("CNOT", (b, aux)))
        else:
            gates.append(Gate("CNOT", (aux, a)))
            gates.append(Gate("CNOT", (aux, b)))
    return CliffordCircuit(emb.n + emb.m, tuple(gates))


def embed(code: StabilizerCode, spec: EmbeddingSpec, basis: str = "z") -> EmbeddedCode:
    """Adjoin one parity auxiliary per pair: the padded checks and one
    parity Pauli per auxiliary, pushed through the embedding circuit."""
    if spec.n != code.n:
        raise DimensionError("spec is for n=%d, code has n=%d" % (spec.n, code.n))
    if basis not in ("z", "x"):
        raise DimensionError("basis must be 'z' or 'x'")
    emb = EmbeddedCode(base=code, spec=spec, basis=basis, code=code)
    n, m = code.n, spec.m
    parity = np.eye(m, 2 * (n + m), n + (n + m if basis == "z" else 0), dtype=np.uint8)
    rows = np.vstack([_pad(code.check_matrix, n, m), parity])
    phases = [c.phase for c in code.checks] + [0] * m
    phases, rows = embedding_circuit(emb).propagate(phases, rows)
    emb.code = StabilizerCode(
        [PhasedPauli.from_vector(row, ph) for ph, row in zip(phases, rows)], n=n + m
    )
    return emb


def interpret(emb: EmbeddedCode, circ: CliffordCircuit) -> CliffordCircuit:
    """Map a circuit on the embedded code back to the original qubits.

    Gates on original qubits pass through.  A gate on an auxiliary must
    fix its parity Pauli: on a Z-type auxiliary of pair (a, b) the gates
    whose image of Z is +Z, on an X-type auxiliary those whose image of X
    is +X.  The identity drops out, a Pauli becomes the same Pauli on a
    and b, and any other such gate G becomes G_a G_b CZ_ab (Z-type) or
    G_a G_b CXX_ab (X-type): S gives S_a S_b CZ_ab, SQRTX gives
    SQRTX_a SQRTX_b CXX_ab.  A SWAP of a Z-type auxiliary with member b
    becomes CNOT a->b, of an X-type one CNOT b->a.  Each auxiliary's pair
    is tracked through the circuit: a SWAP of two original qubits
    relabels the pair members, and a SWAP of two auxiliaries exchanges
    their pairs and drops out.  A SWAP of an auxiliary with a non-member
    drops out here and is vetted by interpretation_sound.  Anything else
    touching an auxiliary (H in particular) has no counterpart and raises.
    """
    if circ.n != emb.n + emb.m:
        raise DimensionError(
            "circuit acts on %d qubits, embedded code has %d" % (circ.n, emb.n + emb.m)
        )
    n = emb.n
    parity, dual, pair_gate = ("Z", "X", "CZ") if emb.basis == "z" else ("X", "Z", "CXX")
    pairs = list(emb.spec.pairs)  # current pair of each auxiliary
    out = []
    for gate in circ.gates:
        if all(q < n for q in gate.qubits):
            out.append(gate)
            if gate.name == "SWAP":
                relabel = dict(zip(gate.qubits, reversed(gate.qubits)))
                pairs = [tuple(relabel.get(q, q) for q in pair) for pair in pairs]
            continue
        if len(gate.qubits) == 1:
            a, b = pairs[gate.qubits[0] - n]
            images = dict(zip("XZ", GATES[gate.name].images))
            if images[parity] != parity:
                raise EmbeddedInterpretationError(
                    "%s on auxiliary qubit %d has no action on the original code"
                    % (gate.name, gate.qubits[0])
                )
            if images[dual] == dual:  # the identity
                continue
            out.append(Gate(gate.name, (a,)))
            out.append(Gate(gate.name, (b,)))
            if images[dual].lstrip("-") != dual:  # not a Pauli
                out.append(Gate(pair_gate, (a, b)))
            continue
        if gate.name != "SWAP":
            raise EmbeddedInterpretationError(
                "%s coupling an auxiliary qubit has no action on the original code"
                % gate.name
            )
        q0, q1 = gate.qubits
        if q0 >= n and q1 >= n:
            pairs[q0 - n], pairs[q1 - n] = pairs[q1 - n], pairs[q0 - n]
            continue
        aux, orig = (q0, q1) if q0 >= n else (q1, q0)
        a, b = pairs[aux - n]
        if orig not in (a, b):
            continue
        other = a if orig == b else b
        if emb.basis == "z":
            out.append(Gate("CNOT", (other, orig)))
        else:
            out.append(Gate("CNOT", (orig, other)))
    return CliffordCircuit(n, tuple(out))


def interpretation_sound(
    emb: EmbeddedCode,
    t: Tableau,
    embedded_circ: CliffordCircuit,
    interp: CliffordCircuit,
) -> bool:
    """Does the interpreted circuit match the embedded one on the code?

    For every stabilizer and logical generator P of the original code,
    conjugating the lift of P by the embedded circuit must equal the
    lift of the interpreted image of P, up to an embedded stabilizer
    element with its exact sign (lifted checks and auxiliary parity
    rows).  This is the conjugation test that vets dropped SWAPs
    involving auxiliaries.

    All rows are pushed through at once and compared in the frame before
    the embedding circuit V, where the embedded circuit E becomes V, then
    E, then V^-1, the lift of P is P itself, and the embedded stabilizers
    are the code's stabilizers times parity Paulis on the auxiliaries.
    """
    n, m, k = emb.n, emb.m, t.k
    rows = [*t.stab_rows, *t.logical_x_rows, *t.logical_z_rows]
    phases, bits = t.phases[rows], t.tau[rows]
    lift = embedding_circuit(emb)
    left_phases, left = (lift + embedded_circ + lift.inverse()).propagate(
        phases, _pad(bits, n, m)
    )
    right_phases, right = interp.propagate(phases, bits)
    aux_x, aux_z = left[:, n : n + m], left[:, 2 * n + m :]
    if (aux_x if emb.basis == "z" else aux_z).any():  # only parity Paulis allowed there
        return False
    b = mat2(np.hstack([left[:, :n], left[:, n + m : 2 * n + m]]) ^ right, t.inverse)
    if b[:, n - k :].any():
        return False
    # each interpreted image times its stabilizer element, with the exact sign
    prod_phases, _ = row_products(
        np.concatenate([right_phases, t.phases]),
        np.vstack([right, t.tau]),
        np.hstack([np.eye(len(rows), dtype=np.uint8), b]),
    )
    return bool(np.array_equal(prod_phases, left_phases))


@dataclass
class EmbeddedGate:
    """One embedded automorphism mapped back to the original qubits."""

    images: tuple
    embedded_circuit: CliffordCircuit
    circuit: CliffordCircuit
    report: LogicalReport
    two_qubit_count: int


@dataclass
class EmbeddedDiscovery:
    """Discovery output on an embedded code."""

    embedded: EmbeddedCode
    search: AutSearchResult
    tableau: Tableau
    gates: list[EmbeddedGate]
    rejected: list[tuple[tuple, str]]


def _rotation_images(kind: RepKind, n_total: int, qubit: int) -> tuple:
    # the per-qubit column permutation of the rep's defining gate
    perm = (1, 0) if kind.blocks == 2 else (0, 2, 1)
    images = list(range(kind.blocks * n_total))
    for b in range(kind.blocks):
        images[b * n_total + qubit] = perm[b] * n_total + qubit
    return tuple(images)


def discover_embedded_gates(
    code: StabilizerCode,
    spec: EmbeddingSpec,
    kind: RepKind = RepKind.SSWAP,
    rows: RowSource = RowSource.AS_GIVEN,
    deadline: float | None = None,
) -> EmbeddedDiscovery:
    """Automorphism discovery on the embedded code, mapped back and verified.

    The auxiliary basis follows the representation: SQRTXSWAP works on
    X-type auxiliaries, every other kind on Z-type.  Besides the search
    generators, each single-auxiliary rotation is probed for membership
    in the automorphism group; these probes are what produce pair
    rotations with a single two-qubit gate.  Uninterpretable or
    semantically unsound generators land in rejected with a reason.
    """
    basis = "x" if kind is RepKind.SQRTXSWAP else "z"
    emb = embed(code, spec, basis=basis)
    rep = build(emb.code, kind)
    mat, colors = row_augmented_matrix(rep, rows)
    search = matrix_automorphisms(mat, colors, deadline=deadline)
    t = tableau(code)
    candidates = list(search.generators)
    if kind is not RepKind.HSWAP:
        known = set(candidates)
        n_total = emb.n + emb.m
        for j in range(emb.m):
            images = _rotation_images(kind, n_total, emb.n + j)
            if images not in known and search.group.contains(images):
                known.add(images)
                candidates.append(images)
    gates, rejected = [], []
    for images in candidates:
        circ_e = perm_to_circuit(rep, images)
        try:
            interp = interpret(emb, circ_e)
        except EmbeddedInterpretationError as exc:
            rejected.append((images, str(exc)))
            continue
        if not interpretation_sound(emb, t, circ_e, interp):
            rejected.append(
                (images, "interpreted circuit disagrees with the embedded action")
            )
            continue
        report = pauli_correct_and_action(t, interp)
        if not report.valid:  # pragma: no cover
            rejected.append((images, "interpreted circuit breaks the code"))
            continue
        gates.append(
            EmbeddedGate(
                images=images,
                embedded_circuit=circ_e,
                circuit=interp,
                report=report,
                two_qubit_count=interp.two_qubit_count(),
            )
        )
    return EmbeddedDiscovery(
        embedded=emb, search=search, tableau=t, gates=gates, rejected=rejected
    )
