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
keep their signs and parity checks are +.  The circuit is its own
inverse: its CNOTs commute, since none targets a qubit another controls.

The lifted rows need no commutation check: they commute before the lift
(each parity Pauli sits where the padded checks act as the identity), the
lift is a Clifford, and CNOT adds no phase, so EmbeddedCode keeps them as
the lift returns them, with no second StabilizerCode.

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
from .binrep import RepKind, row_augmented_matrix
from .circuits import GATES, CliffordCircuit, Gate
from .cliffordmap import block_gates, pauli_correct_and_action, perm_to_circuit
from .errors import (
    DimensionError,
    EmbeddedInterpretationError,
    ParseError,
)
from .gf2 import mat2
from .logsearch import DiscoveredGate
from .pauli import row_products
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
        if len(parts) != 2 or not all(p.isdecimal() for p in parts):
            raise ParseError("line %d: expected two qubit indices" % lineno)
        pairs.append((int(parts[0]), int(parts[1])))
    return EmbeddingSpec(n, tuple(pairs))


@dataclass
class EmbeddedCode:
    """An enlarged code with one parity auxiliary per pair, as its rows.

    lift, the embedding circuit, has for pair (a, b) the CNOTs a->aux,
    b->aux, or aux->a, aux->b for an X-type aux.  phases and check_matrix
    are its images of base's padded checks, then of the parity Paulis:
    Clifford images of commuting Hermitian rows under CNOTs, which add no
    phase, so they need no check of their own.
    """

    base: StabilizerCode
    spec: EmbeddingSpec
    basis: str  # "z": Z-type auxiliaries (S/CZ); "x": X-type (SQRTX/CXX)
    phases: np.ndarray  # i-exponent of each row i^phase X(x) Z(z)
    check_matrix: np.ndarray  # (x|z) rows on n + m qubits
    lift: CliffordCircuit

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


def embed(code: StabilizerCode, spec: EmbeddingSpec, basis: str = "z") -> EmbeddedCode:
    """Adjoin one parity auxiliary per pair: the padded checks and one
    parity Pauli per auxiliary, pushed through the embedding circuit."""
    if spec.n != code.n:
        raise DimensionError("spec is for n=%d, code has n=%d" % (spec.n, code.n))
    if basis not in ("z", "x"):
        raise DimensionError("basis must be 'z' or 'x'")
    n, m = code.n, spec.m
    cnots = [(q, n + j) for j, pair in enumerate(spec.pairs) for q in pair]
    gates = (Gate("CNOT", c if basis == "z" else c[::-1]) for c in cnots)
    lift = CliffordCircuit(n + m, tuple(gates))
    parity = np.eye(m, 2 * (n + m), n + (n + m if basis == "z" else 0), dtype=np.uint8)
    rows = np.vstack([_pad(code.check_matrix, n, m), parity])
    phases, rows = lift.propagate([c.phase for c in code.checks] + [0] * m, rows)
    return EmbeddedCode(code, spec, basis, phases, rows, lift)


def _fixes(name: str, pauli: str) -> bool:
    """Does the one-qubit gate map the Pauli "X" or "Z" to itself, sign
    included?  Only gates fixing an auxiliary's parity Pauli act on it."""
    return GATES[name].images["XZ".index(pauli)] == pauli


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
    is tracked through the circuit: a SWAP of two original qubits moves
    the members' labels, in O(1), and a SWAP of two auxiliaries exchanges
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
    pairs = list(emb.spec.pairs)  # each auxiliary's pair, by the members' first labels
    where = list(range(n))  # label -> the qubit holding it now
    label = list(range(n))  # qubit -> the label it holds now
    out = []
    for gate in circ.gates:
        if all(q < n for q in gate.qubits):
            out.append(gate)
            if gate.name == "SWAP":
                q0, q1 = gate.qubits
                label[q0], label[q1] = label[q1], label[q0]
                where[label[q0]], where[label[q1]] = q0, q1
            continue
        if len(gate.qubits) == 1:
            a, b = (where[q] for q in pairs[gate.qubits[0] - n])
            if not _fixes(gate.name, parity):
                raise EmbeddedInterpretationError(
                    "%s on auxiliary qubit %d has no action on the original code"
                    % (gate.name, gate.qubits[0])
                )
            dual_image = GATES[gate.name].images["XZ".index(dual)]
            if dual_image == dual:  # the identity
                continue
            out.append(Gate(gate.name, (a,)))
            out.append(Gate(gate.name, (b,)))
            if dual_image.lstrip("-") != dual:  # not a Pauli
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
        a, b = (where[q] for q in pairs[aux - n])
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
    V^-1 is V: its CNOTs are self-inverse and commute, each with its control
    on an original qubit and its target on an auxiliary (X-type: reversed).
    """
    n, m, k = emb.n, emb.m, t.k
    rows = [*t.stab_rows, *t.logical_x_rows, *t.logical_z_rows]
    phases, bits = t.phases[rows], t.tau[rows]
    left_phases, left = (emb.lift + embedded_circ + emb.lift).propagate(
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
class EmbeddedDiscovery:
    """Discovery output on an embedded code."""

    embedded: EmbeddedCode
    search: AutSearchResult
    gates: list[DiscoveredGate]  # circuits on the original qubits
    rejected: list[tuple[tuple, str]]


def auxiliary_rotations(kind: RepKind, parity: str) -> list[tuple[int, ...]]:
    """Block rearrangements whose gate acts on an auxiliary with this parity
    Pauli: from block_gates, those with a gate that fixes it."""
    return [
        local
        for local, name in block_gates(kind).items()
        if name is not None and _fixes(name, parity)
    ]


def _rotation_images(local: tuple[int, ...], n_total: int, qubit: int) -> tuple:
    """Column images rearranging one qubit's blocks by local."""
    images = list(range(len(local) * n_total))
    for b, slot in enumerate(local):
        images[b * n_total + qubit] = slot * n_total + qubit
    return tuple(images)


def discover_embedded_gates(
    code: StabilizerCode,
    spec: EmbeddingSpec,
    kind: RepKind = RepKind.SSWAP,
    deadline: float | None = None,
    t: Tableau | None = None,
) -> EmbeddedDiscovery:
    """Automorphism discovery on the embedded code, mapped back and verified.

    The auxiliary basis follows the representation: SQRTXSWAP works on
    X-type auxiliaries, every other kind on Z-type.  Besides the search
    generators, each single-auxiliary rotation (auxiliary_rotations; hswap
    has none) is probed for membership in the automorphism group; these
    probes are what produce pair rotations with a single two-qubit gate.
    Uninterpretable or semantically unsound generators land in rejected
    with a reason.  t is the code's tableau, built here unless given.
    """
    basis = "x" if kind is RepKind.SQRTXSWAP else "z"
    emb = embed(code, spec, basis=basis)
    mat, colors = row_augmented_matrix(emb.check_matrix, kind)
    search = matrix_automorphisms(mat, colors, deadline=deadline)
    t = tableau(code) if t is None else t
    candidates = list(search.generators)
    known = set(candidates)
    n_total = emb.n + emb.m
    for local in auxiliary_rotations(kind, basis.upper()):
        for j in range(emb.m):
            images = _rotation_images(local, n_total, emb.n + j)
            if images not in known and search.group.contains(images):
                known.add(images)
                candidates.append(images)
    gates, rejected = [], []
    for images in candidates:
        circ_e = perm_to_circuit(kind, images)
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
        gates.append(DiscoveredGate(images=images, circuit=interp, report=report))
    return EmbeddedDiscovery(embedded=emb, search=search, gates=gates, rejected=rejected)
