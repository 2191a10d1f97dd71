"""Structured permutations to circuits, Pauli corrections, logical actions.

A column permutation that preserves the constraint rows B factors, per
qubit, into a rearrangement P_q of that qubit's blocks followed by a
permutation sigma of the qubits realized as SWAPs.  Decoding is a lookup:
block_gates derives, once per representation, the gate of every one-qubit
rearrangement from the gate table by pushing the block mixer's columns
through each gate's symplectic.  perm_to_circuit(kind, images) reads n as
len(images) // kind.blocks and lifts the permutation to each qubit's gate
followed by the SWAPs.  There is no second derivation to re-check it
against; every lifted circuit is certified on the code itself, by the
correction pass below.

The Pauli correction pushes the tableau rows through the circuit in one
batch, decomposes the images over the tableau basis via
b = (x'|z') Omega tau^T Omega, and multiplies the correction by the paired
row (i+n mod 2n) wherever the image sign disagrees with the signed product
of tableau rows (adjusted by i^(-aX.aZ) so that squares of mapped logical
Paulis stay +I).  The corrected operator is the circuit preceded by the
correction's gates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache

import numpy as np

from .binrep import RepKind, block_mixer
from .circuits import ONE_QUBIT_GATES, CliffordCircuit, Gate, pauli_to_gates
from .errors import DimensionError, LengthMismatchError, NotStructuredError
from .gf2 import asbits, mat2
from .pauli import PhasedPauli, product_phases, row_products
from .permgroup import cycles
from .stabilizer import Tableau


def _decode_structure(kind: RepKind, images) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """Per-qubit block rearrangements and the induced qubit permutation."""
    images = [int(i) for i in images]
    blocks = kind.blocks
    n = len(images) // blocks
    if sorted(images) != list(range(blocks * n)):
        raise DimensionError(f"images do not form a permutation of {blocks * n} columns")
    sigma = np.zeros(n, dtype=np.int64)
    local: list[tuple[int, ...]] = []
    for q in range(n):
        cols = [images[b * n + q] for b in range(blocks)]
        target = cols[0] % n
        if any(c % n != target for c in cols):
            raise NotStructuredError(f"columns of qubit {q} scatter across qubits")
        sigma[q] = target
        local.append(tuple(c // n for c in cols))
    return local, sigma


@cache
def block_gates(kind: RepKind) -> dict[tuple[int, ...], str | None]:
    """The gate of each one-qubit block rearrangement, from the gate table.

    Block b holds (x|z) . c_b, c_b the x and z rows of E_1's column b.  A
    gate whose symplectic U maps each c_j to some c_b moves block b to
    slot j: the rearrangement with local[b] = j.  The first such gate
    wins.  Only an identity symplectic fixes every c_b (the x and z rows
    of E_1 have full rank), so the identity rearrangement, whose gates
    are I and the Paulis, needs no gate.
    """
    c = block_mixer(kind, 1)[:2]
    cols = [tuple(col) for col in c.T]
    table: dict[tuple[int, ...], str | None] = {tuple(range(len(cols))): None}
    for name in ONE_QUBIT_GATES:
        u = CliffordCircuit(1, (Gate(name, (0,)),)).symplectic()
        moved = [tuple(col) for col in mat2(u, c).T]
        if sorted(moved) == sorted(cols):
            table.setdefault(tuple(moved.index(col) for col in cols), name)
    return table


def perm_to_circuit(kind: RepKind, images) -> CliffordCircuit:
    """Single-qubit gates plus SWAPs realizing a structured permutation.

    Emits each qubit's gate from block_gates, then one SWAP chain per
    cycle of the qubit permutation: the cycle (a1 a2 ... am) becomes
    SWAP(a1,a2), SWAP(a1,a3), ..., SWAP(a1,am).  Images whose length is
    not a multiple of kind.blocks are no permutation of blocks * n
    columns and raise DimensionError.
    """
    local, sigma = _decode_structure(kind, images)
    table = block_gates(kind)
    gates = [Gate(table[loc], (q,)) for q, loc in enumerate(local) if table[loc] is not None]
    for cyc in cycles(sigma):
        gates.extend(Gate("SWAP", (cyc[0], other)) for other in cyc[1:])
    return CliffordCircuit(len(local), tuple(gates))


@dataclass
class LogicalReport:
    """Outcome of certifying a candidate logical circuit against a tableau."""

    valid: bool
    pauli_correction: PhasedPauli | None = None
    u_act: np.ndarray | None = None
    action_word: str | None = None
    reason: str | None = None


def pauli_correct_and_action(t: Tableau, circ: CliffordCircuit) -> LogicalReport:
    """Pauli correction and 2k x 2k logical action of a candidate circuit.

    Invalid (valid=False) when any stabilizer or logical row image picks up
    a destabilizer component, or a stabilizer row image hits the logicals.
    Otherwise returns the correction Pauli (to apply BEFORE the circuit)
    that restores every row sign, and the logical action rows (aX|aZ).
    """
    n, k = t.n, t.k
    if circ.n != n:
        raise LengthMismatchError(f"circuit on {circ.n} qubits, code on {n}")
    rows = np.array([*t.stab_rows, *t.logical_x_rows, *t.logical_z_rows], dtype=np.int64)
    phases, mapped = circ.propagate(t.phases[rows], t.tau[rows])
    b = mat2(mapped, t.inverse)
    a_x = b[:, n - k : n]
    a_z = b[:, 2 * n - k :]
    leaves = b[:, n : 2 * n - k].any(axis=1)
    hits = (rows < n - k) & (a_x.any(axis=1) | a_z.any(axis=1))
    failed = np.nonzero(leaves | hits)[0]
    if failed.size:
        r = failed[0]
        if leaves[r]:
            reason = f"row {rows[r]} image leaves the code space"
        else:
            reason = f"stabilizer row {rows[r]} image hits the logicals"
        return LogicalReport(valid=False, reason=reason)
    prod_phases = product_phases(t.phases, t.row_order, b)
    v = (prod_phases - (a_x.astype(np.int64) * a_z).sum(axis=1)) % 4
    # relative phase is always a sign; the paired row flips it
    paired = (rows[phases != v] + n) % (2 * n)
    c_phase, c_rows = row_products(t.phases[paired], t.tau[paired], np.ones((1, len(paired))))
    u_act = np.hstack([a_x, a_z])[n - k :]
    return LogicalReport(
        valid=True,
        pauli_correction=PhasedPauli.from_vector(c_rows[0], int(c_phase[0])),
        u_act=u_act,
        action_word=action_name(u_act),
    )


def corrected_circuit(report: LogicalReport, circ: CliffordCircuit) -> CliffordCircuit:
    """The certified operator: Pauli correction gates, then the circuit."""
    return pauli_to_gates(report.pauli_correction) + circ


def correction_is_logical(t: Tableau, report: LogicalReport) -> bool:
    """Is the computed correction a logical Pauli (or identity)?

    A correction with destabilizer components means some stabilizer sign
    flipped, so the raw circuit moves the code space; a correction built
    purely from logical Paulis means the raw circuit is a logical
    operator as it stands, up to logical Pauli.
    """
    if not report.valid:
        return False
    n, k = t.n, t.k
    b = mat2(report.pauli_correction.vector()[None, :], t.inverse)[0]
    return not b[n : 2 * n - k].any()


def verify_preserves_stabilizers(t: Tableau, circ: CliffordCircuit) -> bool:
    """Independent check that each signed check maps to a +1-signed stabilizer.

    The stabilizer rows are the identity at the standard form's pivots, so
    an image's coefficients over them are its entries there; an image that
    its coefficients do not rebuild lies outside the span.  Each sign is
    then compared with its coefficients' product.  This shares no
    decomposition path with pauli_correct_and_action (no tableau inverse,
    no destabilizers) and row-reduces nothing.
    """
    phases, stab, r = t.phases[t.stab_rows], t.stabilizers, t.n - t.k
    mapped_phases, mapped = circ.propagate(phases, stab)
    coeffs = mapped[:, t.stabilizer_pivots]
    if not np.array_equal(mat2(coeffs, stab), mapped):
        return False
    prod_phases = product_phases(phases, t.row_order[:r, :r], coeffs)
    return bool(np.array_equal(prod_phases, mapped_phases))


@lru_cache(maxsize=8)
def _named_actions(k: int) -> dict[bytes, str]:
    """Names for logical symplectics reachable in at most two gates, k <= 3."""
    gates: list[Gate] = []
    for q in range(k):
        gates.extend(Gate(name, (q,)) for name in ONE_QUBIT_GATES)
    for a in range(k):
        for c in range(a + 1, k):
            gates.append(Gate("CNOT", (a, c)))
            gates.append(Gate("CNOT", (c, a)))
            gates.extend(Gate(name, (a, c)) for name in ("SWAP", "CZ", "CXX"))
    eye = np.eye(2 * k, dtype=np.uint8)
    table = {eye.tobytes(): "I"}
    # gates with an identity symplectic (the Paulis) name nothing
    singles = [
        (g,) for g in gates if not np.array_equal(CliffordCircuit(k, (g,)).symplectic(), eye)
    ]
    words = singles + [w1 + w2 for w1 in singles for w2 in singles]
    for word in words:  # singles first, so shorter names win
        key = CliffordCircuit(k, word).symplectic().tobytes()
        table.setdefault(key, "; ".join(str(g) for g in word))
    return table


def action_name(u_act: np.ndarray) -> str | None:
    """Readable name of a logical action when k <= 3 and the word is short."""
    if u_act.shape[0] == 0:
        return "I"
    if u_act.shape[0] > 6:
        return None
    return _named_actions(u_act.shape[0] // 2).get(asbits(u_act).tobytes())
