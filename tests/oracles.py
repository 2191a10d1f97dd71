"""Independent oracles for tests.

Dense complex-matrix oracles pin down sign conventions; a dense conjugated
permutation matrix pins the symplectic of a structured permutation; a
block-structured brute force checks automorphism groups without the
refinement search; a breadth-first closure of binary matrices checks
matrix groups without the stabilizer chain; a plain Schreier-Sims on
image tuples, sharing no code with autgates.permgroup, checks the
permutation chains; a breadth-first tree on bit matrices that composes
every element checks the matrix chain's trees, which compose on first
use; a chain's levels, words included, compare two chains built
differently; a refinement on dense incidence counts checks the
search's refinement on adjacency lists; the form omega, written out
as a matrix, checks symplecticity without gf2; the product of two Paulis,
one pair at a time, checks pauli.row_products; and every signed element
of a stabilizer group, enumerated, checks the stabilizer span test.
"""

from __future__ import annotations

import itertools
import math

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
    """i^phase times the tensor product of X^x Z^z over the qubits, qubit 0 leftmost."""
    out = np.ones((1, 1), dtype=complex)
    for q in range(p.n):
        local = _I2
        if p.x[q]:
            local = local @ _X
        if p.z[q]:
            local = local @ _Z
        out = np.kron(out, local)
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


def pauli_identity(n: int) -> PhasedPauli:
    return PhasedPauli(0, np.zeros(n, dtype=np.uint8), np.zeros(n, dtype=np.uint8))


def pauli_product(paulis, n: int) -> PhasedPauli:
    """The operator product p1 * p2 * ... of n-qubit Paulis, one pair at a time.

    Moving the Z part of the product so far past the X part of the next
    factor gives the sign (-1)^(z . x); the product of none is the identity.
    """
    phase, x, z = 0, np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    for p in paulis:
        assert p.n == n, f"{p.n}-qubit factor in an {n}-qubit product"
        phase += p.phase + 2 * int(z @ p.x)
        x, z = x ^ p.x, z ^ p.z
    return PhasedPauli(phase, x, z)


def paulis_commute(p: PhasedPauli, q: PhasedPauli) -> bool:
    return (int(p.x @ q.z) + int(p.z @ q.x)) % 2 == 0


def in_row_span(rows, v) -> bool:
    """Is v the sum of some subset of the rows?  Tries all 2^len(rows) subsets."""
    rows, v = np.asarray(rows, dtype=np.int64), np.asarray(v, dtype=np.int64)
    return any(
        np.array_equal(np.array(sel, dtype=np.int64) @ rows % 2, v)
        for sel in itertools.product((0, 1), repeat=len(rows))
    )


def signed_stabilizer_group(checks, n: int) -> set[PhasedPauli]:
    """Every signed product of the checks: 2^(n-k) elements for consistent signs."""
    group = {pauli_identity(n)}
    for c in checks:
        group |= {pauli_product([g, c], n) for g in group}
    return group


def dense_preserves_stabilizers(circ: CliffordCircuit, checks, n: int) -> bool:
    """Does conjugation by the circuit's dense unitary map each signed check
    onto an element of the signed stabilizer group?"""
    u = dense_circuit(circ)
    group = [dense_pauli(g) for g in signed_stabilizer_group(checks, n)]
    images = [u @ dense_pauli(c) @ u.conj().T for c in checks]
    return all(any(np.allclose(m, g, atol=1e-9) for g in group) for m in images)


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
    and maps the set of ``rows`` to itself; a repeated row counts once.

    Enumerates the row bijection sigma and the qubit permutation pi; given
    both, each qubit's local block permutation is fixed independently.  The
    cost is m! * n! for m rows, so this suits a handful of rows only.
    """
    rows = list(dict.fromkeys(tuple(int(v) for v in r) for r in np.asarray(rows)))
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


def omega(n: int) -> np.ndarray:
    """The 2n x 2n symplectic form [[0, I], [I, 0]]."""
    eye, zero = np.eye(n, dtype=np.uint8), np.zeros((n, n), dtype=np.uint8)
    return np.block([[zero, eye], [eye, zero]])


def omega_symplectic(u) -> bool:
    """Does the 2n x 2n binary u keep omega, u omega u^T == omega mod 2?"""
    u = np.asarray(u, dtype=np.int64)
    form = omega(len(u) // 2).astype(np.int64)
    return bool(np.array_equal(u @ form @ u.T % 2, form))


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


def dense_refine(matrix, colors, cell_id):
    """Equitable refinement of a column partition from dense incidence counts.

    The rows of the 0/1 matrix, with their colors, are taken as a set: a
    repeated (color, row) counts once.  Each step groups the rows by color
    and 1-count in every cell, then splits each cell by its columns'
    1-counts in every row group; it stops when no cell splits.  Returns the
    final cell_id, the number of cells, and per step the row and column keys.
    """
    matrix = np.asarray(matrix, dtype=np.int64)
    keys = np.unique(np.column_stack([np.asarray(colors, dtype=np.int64), matrix]), axis=0)
    colors, rows = keys[:, 0], keys[:, 1:]
    n = rows.shape[1]
    cell_id = np.asarray(cell_id, dtype=np.int64)
    trace = []
    num_cells = int(cell_id.max()) + 1 if n else 0
    while True:
        cnt = rows @ np.eye(num_cells, dtype=np.int64)[cell_id]
        row_keys, row_group = np.unique(
            np.column_stack([colors, cnt]), axis=0, return_inverse=True
        )
        gind = np.eye(row_keys.shape[0], dtype=np.int64)[row_group.ravel()]
        col_keys, new_cell_id = np.unique(
            np.column_stack([cell_id, (gind.T @ rows).T]), axis=0, return_inverse=True
        )
        trace.append((row_keys.shape, row_keys.tobytes(), col_keys.shape, col_keys.tobytes()))
        new_num = col_keys.shape[0]
        if new_num == num_cells:
            break
        cell_id = new_cell_id.ravel().astype(np.int64)
        num_cells = new_num
        if num_cells == n:
            break
    return cell_id, num_cells, tuple(trace)


class SchreierSims:
    """Base and strong generating set of the permutations gens, by plain Schreier-Sims.

    Written apart from autgates.permgroup, on image tuples: the base
    starts with ``base`` and is extended by the first point a residue
    moves, and every Schreier generator of every level is sifted, with no
    memo and no order stop.  ``base`` is the final base, ``order()`` the
    group order and ``contains(images)`` membership.
    """

    def __init__(self, degree, gens, base=()):
        self.identity = tuple(range(degree))
        self.base = list(base)
        self.strong, self.gens, self.trees = [], [], []
        for g in map(tuple, gens):
            if g != self.identity:
                self._append(g)
        self._levels(0)
        i = len(self.base) - 1
        while i >= 0:
            residue = self._schreier_residue(i)
            if residue is None:
                i -= 1
                continue
            self._append(residue)
            self._levels(i + 1)
            # the deepest level that gained a generator is checked first
            i = next(j for j, b in enumerate(self.base) if residue[b] != b)

    def _append(self, g):
        if all(g[b] == b for b in self.base):
            self.base.append(next(p for p, q in enumerate(g) if p != q))
        self.strong.append(g)

    def _levels(self, start):
        # level i: the strong generators fixing base[:i], and the orbit of
        # base[i] under them, each point with an element mapping base[i] there
        del self.gens[start:], self.trees[start:]
        for i in range(start, len(self.base)):
            gens = [g for g in self.strong if all(g[b] == b for b in self.base[:i])]
            tree = {self.base[i]: self.identity}
            queue = [self.base[i]]
            for a in queue:
                for g in gens:
                    if g[a] not in tree:
                        tree[g[a]] = _compose(tree[a], g)
                        queue.append(g[a])
            self.gens.append(gens)
            self.trees.append(tree)

    def _schreier_residue(self, i):
        """A Schreier generator of level i that does not sift, or None."""
        for point, u in self.trees[i].items():
            for g in self.gens[i]:
                v = self.trees[i][g[point]]
                residue = self.sift(_compose(_compose(u, g), _inverse(v)))
                if residue != self.identity:
                    return residue
        return None

    def sift(self, g):
        for b, tree in zip(self.base, self.trees):
            u = tree.get(g[b])
            if u is None:
                return g
            g = _compose(g, _inverse(u))
        return g

    def contains(self, images):
        return self.sift(tuple(images)) == self.identity

    def order(self):
        return math.prod(len(tree) for tree in self.trees)


def _compose(p, q):
    """Apply p, then q."""
    return tuple(q[i] for i in p)


def _inverse(p):
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def base_points(chain):
    """The chain's base, level by level."""
    points = []
    node = chain
    while node is not None and node.basepoint is not None:
        points.append(node.basepoint)
        node = node.stab
    return tuple(points)


def chain_levels(chain):
    """Each level's base point, generators and tree, with the elements' words."""
    levels = []
    node = chain
    while node is not None:
        tree = [(point, node.transversal(point)) for point in node.tree]
        levels.append(
            (
                node.basepoint,
                [(g.images, g.word) for g in node.gens],
                [(point, u.images, u.word) for point, u in tree],
            )
        )
        node = node.stab
    return levels


def _vector(point, d):
    """Bits of a point encoded as sum(v_j << j)."""
    return np.array([(point >> j) & 1 for j in range(d)], dtype=np.uint8)


def _point(bits):
    return sum(int(b) << j for j, b in enumerate(bits))


def _matrix(images, d):
    """Bit matrix whose rows are the encoded images of the unit vectors."""
    return np.array([_vector(row, d) for row in images], dtype=np.uint8)


def _invert_word(word):
    return tuple((idx, -exp) for idx, exp in reversed(word))


def eager_tree(level):
    """A matrix chain level's tree with every element composed: (point, images, word).

    Written apart from autgates.permgroup's trees, on bit matrices with
    words as tuples: a breadth-first search from the level's base point
    over the generators at this level and deeper, deepest first, each
    followed by its inverse, composing the element of every point when
    the point is reached.  Run right after a rebuild, it gives the tree
    that rebuild made.
    """
    nodes, node = [], level
    while node is not None:
        nodes.append(node)
        node = node.stab
    d = len(level.identity.images)
    steps = []
    for node in reversed(nodes):
        for g in node.gens:
            m = _matrix(g.images, d)
            steps += [(m, g.word), (invert(m), _invert_word(g.word))]
    tree = {level.basepoint: (np.eye(d, dtype=np.uint8), ())}
    queue = [level.basepoint]
    for a in queue:
        u, word = tree[a]
        for m, w in steps:
            b = _point(mat2(_vector(a, d), m))
            if b not in tree:
                tree[b] = (mat2(u, m), word + w)
                queue.append(b)
    return [(p, tuple(map(_point, u)), word) for p, (u, word) in tree.items()]


def eager_express(trees, m):
    """Word of the bit matrix m that sifting through the given level trees gives.

    trees are eager_tree lists, top level first.  Sifting divides m by
    the element of its base point's image at each level in turn, so m is
    those elements applied deepest first; None when m is not a member.
    """
    d = len(m)
    words = []
    for tree in trees:
        elements = {p: (images, word) for p, images, word in tree}
        hit = elements.get(_point(mat2(_vector(tree[0][0], d), m)))
        if hit is None:
            return None
        m = mat2(m, invert(_matrix(hit[0], d)))
        words.append(hit[1])
    if not np.array_equal(m, np.eye(d, dtype=np.uint8)):
        return None
    return tuple(f for w in reversed(words) for f in w)
