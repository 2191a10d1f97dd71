"""Independent oracles for tests.

Dense complex-matrix oracles pin down sign conventions; a dense conjugated
permutation matrix pins the symplectic of a structured permutation; a
block-structured brute force checks automorphism groups without the
refinement search; a breadth-first closure of binary matrices checks
matrix groups without the stabilizer chain.
"""

from __future__ import annotations

import itertools

import numpy as np

from autgates.binrep import block_mixer
from autgates.circuits import CliffordCircuit
from autgates.gf2 import invert, mat2
from autgates.pauli import PhasedPauli

_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_S = np.diag([1, 1j]).astype(complex)
_SDG = np.diag([1, -1j]).astype(complex)
_SQRTX = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex)

DENSE_1Q = {
    "I": _I2,
    "X": _X,
    "Y": _Y,
    "Z": _Z,
    "H": _H,
    "S": _S,
    "SDG": _SDG,
    "SQRTX": _SQRTX,
    "GAMMA": _H @ _SDG,  # apply Sdg first, then H
    "GAMMADG": _S @ _H,
}

_CZ = np.diag([1, 1, 1, -1]).astype(complex)
_CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
_SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)
_HH = np.kron(_H, _H)

DENSE_2Q = {
    "CZ": _CZ,
    "CNOT": _CNOT,
    "SWAP": _SWAP,
    "CXX": _HH @ _CZ @ _HH,
}


def _embed(mat: np.ndarray, qubits: tuple[int, ...], n: int) -> np.ndarray:
    """Lift a 1- or 2-qubit matrix to n qubits (qubit 0 = leftmost factor)."""
    if len(qubits) == 1:
        ops = [_I2] * n
        ops[qubits[0]] = mat
        out = ops[0]
        for op in ops[1:]:
            out = np.kron(out, op)
        return out
    # permute the two target qubits to the front, apply, permute back
    q0, q1 = qubits
    perm = [q0, q1] + [q for q in range(n) if q not in (q0, q1)]
    dim = 2**n
    pmat = np.zeros((dim, dim), dtype=complex)
    for idx in range(dim):
        bits = [(idx >> (n - 1 - j)) & 1 for j in range(n)]
        newbits = [bits[p] for p in perm]
        jdx = sum(b << (n - 1 - j) for j, b in enumerate(newbits))
        pmat[jdx, idx] = 1
    big = np.kron(mat, np.eye(2 ** (n - 2), dtype=complex))
    return pmat.conj().T @ big @ pmat


def dense_pauli(p: PhasedPauli) -> np.ndarray:
    out = np.eye(2 ** p.n, dtype=complex)
    for q in range(p.n):
        local = _I2
        if p.x[q]:
            local = local @ _X
        if p.z[q]:
            local = local @ _Z
        out = out @ _embed(local, (q,), p.n)
    return (1j ** p.phase) * out


def dense_circuit(circ: CliffordCircuit) -> np.ndarray:
    """Unitary of the circuit; gates applied left to right, so U = Uk ... U1."""
    u = np.eye(2**circ.n, dtype=complex)
    for g in circ.gates:
        table = DENSE_1Q if len(g.qubits) == 1 else DENSE_2Q
        u = _embed(table[g.name], g.qubits, circ.n) @ u
    return u


def decode_pauli(mat: np.ndarray, n: int) -> PhasedPauli | None:
    """Match a dense matrix to the unique phased Pauli it equals, else None."""
    for bits in range(4**n):
        x = [(bits >> j) & 1 for j in range(n)]
        z = [(bits >> (n + j)) & 1 for j in range(n)]
        cand = PhasedPauli(0, x, z)
        base = dense_pauli(cand)
        for phase in range(4):
            if np.allclose(mat, (1j**phase) * base, atol=1e-9):
                return PhasedPauli(phase, x, z)
    return None


def dense_conjugate(circ: CliffordCircuit, p: PhasedPauli) -> PhasedPauli:
    u = dense_circuit(circ)
    out = decode_pauli(u @ dense_pauli(p) @ u.conj().T, p.n)
    assert out is not None, "conjugation result is not a phased Pauli"
    return out


def dense_perm_symplectic(kind, images) -> np.ndarray:
    """Leading 2n x 2n block of E P E^-1, E the block mixer of ``kind``.

    P has P[i, images[i]] = 1 and acts on row vectors from the right; for
    three blocks the conjugate must split off the auxiliary block.
    """
    width = len(images)
    n = width // kind.blocks
    p = np.zeros((width, width), dtype=np.uint8)
    p[np.arange(width), images] = 1
    e = block_mixer(kind, n)
    conj = mat2(mat2(e, p), invert(e))
    assert not conj[: 2 * n, 2 * n :].any() and not conj[2 * n :, : 2 * n].any()
    return conj[: 2 * n, : 2 * n]


def block_automorphisms(rows, n: int, blocks: int) -> set[tuple[int, ...]]:
    """Column automorphisms of a block representation, by brute force.

    ``rows`` has ``blocks * n`` columns, block-major: column ``b * n + q``
    is block ``b`` of qubit ``q``.  Returns the image tuple of every column
    permutation that preserves the constraint rows ``[I|...|I]`` -- that is,
    moves the block columns of each qubit q onto those of one qubit pi(q) --
    and maps the multiset of ``rows`` to itself.

    Enumerates the row bijection sigma and the qubit permutation pi; given
    both, each qubit's local block permutation is fixed independently.  The
    cost is m! * n! for m rows, so this suits a handful of rows only.
    """
    rows = [tuple(int(v) for v in r) for r in np.asarray(rows)]
    local_perms = list(itertools.permutations(range(blocks)))

    def columns(rs):
        """columns(rs)[q][b]: column b * n + q of rs, as a tuple."""
        return [[tuple(r[b * n + q] for r in rs) for b in range(blocks)]
                for q in range(n)]

    src = columns(rows)
    found = set()
    for sigma in itertools.permutations(range(len(rows))):
        dst = columns([rows[i] for i in sigma])
        # fits[q][p]: local perms t sending row r's qubit-q block b onto
        # row sigma(r)'s qubit-p block t[b], for every r and b
        fits = [
            [
                [t for t in local_perms
                 if all(dst[p][t[b]] == src[q][b] for b in range(blocks))]
                for p in range(n)
            ]
            for q in range(n)
        ]
        for pi in itertools.permutations(range(n)):
            choices = [fits[q][pi[q]] for q in range(n)]
            for taus in itertools.product(*choices):
                found.add(tuple(taus[q][b] * n + pi[q]
                                for b in range(blocks) for q in range(n)))
    return found


def matrix_closure(gens) -> dict[bytes, np.ndarray]:
    """Every product of the binary matrices gens, keyed by its bytes."""
    d = gens[0].shape[0]
    ident = np.eye(d, dtype=np.uint8)
    seen = {ident.tobytes(): ident}
    frontier = ident[None]
    while len(frontier):
        new = []
        for g in gens:
            # the whole frontier times g at once, one product per matrix
            for m in (frontier.astype(np.int64) @ g % 2).astype(np.uint8):
                if m.tobytes() not in seen:
                    seen[m.tobytes()] = m
                    new.append(m)
        frontier = np.array(new, dtype=np.uint8).reshape(-1, d, d)
    return seen


def dense_logical_action_holds(circ: CliffordCircuit, checks, logicals, u_act) -> bool:
    """Does circ keep the code projector and map each logical to what u_act says?

    checks are the code's signed checks; logicals are the 2k logical Paulis,
    X rows then Z rows, that the (aX|aZ) rows of u_act refer to.  Images are
    compared on the code space, up to a phase, since a logical gate is
    defined up to a logical Pauli.
    """
    dim = 2**circ.n
    proj = np.eye(dim, dtype=complex)
    for c in checks:
        proj = proj @ (np.eye(dim) + dense_pauli(c)) / 2
    u = dense_circuit(circ)
    if not np.allclose(u @ proj, proj @ u):
        return False
    dense = [dense_pauli(p) for p in logicals]
    for row, logical in zip(u_act, dense):
        want = np.eye(dim, dtype=complex)
        for bit, other in zip(row, dense):
            if bit:
                want = want @ other
        got, want = u @ logical @ u.conj().T @ proj, want @ proj
        phase = np.vdot(want, got) / np.vdot(want, want)
        if not (np.isclose(abs(phase), 1) and np.allclose(got, phase * want)):
            return False
    return True
