"""Independent checks of the outputs the benchmark collects.

Nothing here imports ``autgates.circuits``, ``autgates.pauli``,
``autgates.cliffordmap`` or ``autgates.permgroup``.  Gate images come from
dense unitaries, Pauli products and GF(2) membership are written out
below, and group orders come from sympy or from a closure computed here.
The only program code used is ``autgates.stabilizer``: the reported
logical actions are coordinates in the tableau's logical basis, so that
basis has to be the program's.

Every check raises ``CheckError`` with a reason on the first violation.
"""

from __future__ import annotations

import re
from collections import Counter
from itertools import product

import numpy as np


class CheckError(Exception):
    """An output contradicts what the checker computes."""


# ---------------------------------------------------------------- gates

_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_S = np.diag([1, 1j])
_SDG = np.diag([1, -1j])
_CZ = np.diag([1, 1, 1, -1]).astype(complex)

UNITARIES = {
    "I": _I2,
    "X": _X,
    "Y": _Y,
    "Z": _Z,
    "H": _H,
    "S": _S,
    "SDG": _SDG,
    "SQRTX": _H @ _S @ _H,
    "GAMMA": _H @ _SDG,
    "GAMMADG": _S @ _H,
    "SWAP": np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    ),
    "CNOT": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    ),
    "CZ": _CZ,
    "CXX": np.kron(_H, _H) @ _CZ @ np.kron(_H, _H),
}


def _local_pauli(bits) -> np.ndarray:
    """X^x0 Z^z0 (x) X^x1 Z^z1 ... for bits (x0, z0, x1, z1, ...)."""
    out = np.eye(1, dtype=complex)
    for q in range(0, len(bits), 2):
        x, z = bits[q], bits[q + 1]
        out = np.kron(out, np.linalg.matrix_power(_X, x) @ np.linalg.matrix_power(_Z, z))
    return out


def _image_table(u: np.ndarray):
    """For each local pattern, the (phase, new bits) of u P u^dagger."""
    width = 2 * (u.shape[0].bit_length() - 1)
    basis = {bits: _local_pauli(bits) for bits in product((0, 1), repeat=width)}
    phases = np.zeros(len(basis), dtype=np.int64)
    new_bits = np.zeros((len(basis), width), dtype=np.int64)
    for idx, pauli in enumerate(basis.values()):
        image = u @ pauli @ u.conj().T
        phases[idx], new_bits[idx] = next(
            (p, bits)
            for bits, mat in basis.items()
            for p in range(4)
            if np.allclose(image, (1j**p) * mat)
        )
    return phases, new_bits


GATE_TABLES = {name: _image_table(u) for name, u in UNITARIES.items()}
ONE_QUBIT = {name for name, u in UNITARIES.items() if u.shape[0] == 2}


def parse_gate(text: str) -> tuple[str, tuple[int, ...]]:
    parts = text.split()
    name = parts[0].upper()
    if name not in UNITARIES:
        raise CheckError("unknown gate %r" % text)
    qubits = tuple(int(p) for p in parts[1:])
    if len(qubits) != (1 if name in ONE_QUBIT else 2):
        raise CheckError("wrong arity in %r" % text)
    return name, qubits


def pauli_gates(pauli: str) -> list[tuple[str, tuple[int, ...]]]:
    """Gate layer of a Pauli string such as 'iIZZIY' (global phase dropped)."""
    letters = pauli.lstrip("+-i")
    return [(ch, (q,)) for q, ch in enumerate(letters) if ch != "I"]


def propagate(x, z, ph, gates):
    """Conjugate the rows i^ph X(x) Z(z) by the gates, applied in order.

    x and z are (rows, n) integer arrays and ph a (rows,) array; copies
    are returned.
    """
    x = np.array(x, dtype=np.int64)
    z = np.array(z, dtype=np.int64)
    ph = np.array(ph, dtype=np.int64)
    for name, qubits in gates:
        phases, new_bits = GATE_TABLES[name]
        if len(qubits) == 1:
            (q,) = qubits
            idx = 2 * x[:, q] + z[:, q]
            x[:, q] = new_bits[idx, 0]
            z[:, q] = new_bits[idx, 1]
        else:
            a, b = qubits
            idx = 8 * x[:, a] + 4 * z[:, a] + 2 * x[:, b] + z[:, b]
            x[:, a] = new_bits[idx, 0]
            z[:, a] = new_bits[idx, 1]
            x[:, b] = new_bits[idx, 2]
            z[:, b] = new_bits[idx, 3]
        ph += phases[idx]
    return x, z, ph % 4


# ---------------------------------------------------------------- GF(2)


def gf2_rank(m: np.ndarray) -> int:
    m = np.array(m, dtype=np.uint8) % 2
    rank = 0
    for col in range(m.shape[1]):
        rows = np.nonzero(m[rank:, col])[0]
        if rows.size == 0:
            continue
        piv = rank + rows[0]
        m[[rank, piv]] = m[[piv, rank]]
        hit = np.nonzero(m[:, col])[0]
        hit = hit[hit != rank]
        m[hit] ^= m[rank]
        rank += 1
        if rank == m.shape[0]:
            break
    return rank


def gf2_inverse(m: np.ndarray) -> np.ndarray:
    d = m.shape[0]
    aug = np.hstack([np.array(m, dtype=np.uint8) % 2, np.eye(d, dtype=np.uint8)])
    for col in range(d):
        rows = np.nonzero(aug[col:, col])[0]
        if rows.size == 0:
            raise CheckError("tableau is singular")
        piv = col + rows[0]
        aug[[col, piv]] = aug[[piv, col]]
        hit = np.nonzero(aug[:, col])[0]
        hit = hit[hit != col]
        aug[hit] ^= aug[col]
    return aug[:, d:]


def mat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a.astype(np.int64) @ b.astype(np.int64) % 2).astype(np.uint8)


def group_elements(gens, dim: int, limit: int = 100_000) -> list[np.ndarray]:
    """Every element of the matrix group gens generate, in BFS order."""
    eye = np.eye(dim, dtype=np.uint8)
    seen = {eye.tobytes(): eye}
    frontier = [eye]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = mat_mul(a, g)
                if b.tobytes() not in seen:
                    seen[b.tobytes()] = b
                    nxt.append(b)
        if len(seen) > limit:
            raise CheckError("group closure exceeds %d elements" % limit)
        frontier = nxt
    return list(seen.values())


def closure_order(gens, dim: int) -> int:
    """Order of the group of dim x dim binary matrices the gens generate."""
    return len(group_elements(gens, dim))


# ---------------------------------------------------------------- codes

BLOCKS = {"hswap": 2, "sswap": 2, "sqrtxswap": 2, "threeblock": 3}

_PAULI_RE = re.compile(r"^(\+|-|i|\+i|-i)?([IXYZ]+)$")
_PREFIX = {"": 0, "+": 0, "i": 1, "+i": 1, "-": 2, "-i": 3}


def parse_checks(text: str) -> tuple[int, list[tuple[int, int, int]]]:
    """Signed checks of a code file as (phase, x_bits, z_bits) ints."""
    n = None
    checks = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.lower().startswith("n="):
            n = int(line[2:])
            continue
        m = _PAULI_RE.match(line)
        if m is None:
            raise CheckError("bad check %r" % line)
        phase = _PREFIX[m.group(1) or ""]
        x = z = 0
        for q, ch in enumerate(m.group(2)):
            if ch in "XY":
                x |= 1 << q
            if ch in "ZY":
                z |= 1 << q
            if ch == "Y":
                phase += 1
        n = len(m.group(2)) if n is None else n
        checks.append((phase % 4, x, z))
    return n, checks


def _mul(a, b):
    """(i^p X(x) Z(z)) (i^q X(x') Z(z')) in the same normal form."""
    return ((a[0] + b[0] + 2 * (a[2] & b[1]).bit_count()) % 4, a[1] ^ b[1], a[2] ^ b[2])


def _bits_to_int(row) -> int:
    return int.from_bytes(np.packbits(row.astype(np.uint8), bitorder="little").tobytes(), "little")


def _int_to_bits(value: int, n: int) -> np.ndarray:
    return np.array([(value >> q) & 1 for q in range(n)], dtype=np.int64)


class CodeModel:
    """A code file's signed checks, its representations and its tableau."""

    def __init__(self, text: str):
        from autgates.stabilizer import parse_code_file, tableau

        self.n, self.checks = parse_checks(text)
        n = self.n
        self._basis: dict[int, tuple[int, int, int]] = {}
        for chk in self.checks:
            residue = self._reduce(chk)
            if residue[1] or residue[2]:
                top = (residue[1] | (residue[2] << n)).bit_length() - 1
                self._basis[top] = residue
            elif residue[0]:
                raise CheckError("the checks multiply to -I")
        self.rank = len(self._basis)
        self.k = n - self.rank
        t = tableau(parse_code_file(text))
        if t.k != self.k:
            raise CheckError("tableau has k=%d, checks give %d" % (t.k, self.k))
        self.tau = np.array(t.tau, dtype=np.uint8)
        self.tau_inv = gf2_inverse(self.tau)
        self.check_x = np.array([_int_to_bits(c[1], n) for c in self.checks])
        self.check_z = np.array([_int_to_bits(c[2], n) for c in self.checks])
        self.check_ph = np.array([c[0] for c in self.checks], dtype=np.int64)

    def _reduce(self, pauli):
        n = self.n
        while True:
            key = pauli[1] | (pauli[2] << n)
            if not key:
                return pauli
            row = self._basis.get(key.bit_length() - 1)
            if row is None:
                return pauli
            pauli = _mul(pauli, row)

    def check_preserves(self, gates) -> None:
        """Each signed check must map to a +1-signed stabilizer element."""
        x, z, ph = propagate(self.check_x, self.check_z, self.check_ph, gates)
        for i in range(len(self.checks)):
            image = (int(ph[i]), _bits_to_int(x[i]), _bits_to_int(z[i]))
            residue = self._reduce(image)
            if residue[1] or residue[2]:
                raise CheckError("check %d maps outside the stabilizer group" % i)
            if residue[0]:
                raise CheckError("check %d maps to a stabilizer with sign i^%d" % (i, residue[0]))

    def action(self, gates) -> np.ndarray:
        """2k x 2k action on the tableau's logical X and Z rows."""
        n, k = self.n, self.k
        rows = np.vstack([self.tau[n - k : n], self.tau[2 * n - k :]])
        x, z, _ = propagate(rows[:, :n], rows[:, n:], np.zeros(2 * k), gates)
        coeff = mat_mul(np.hstack([x, z]), self.tau_inv)
        if coeff[:, n : 2 * n - k].any():
            raise CheckError("a logical image has destabilizer components")
        return np.hstack([coeff[:, n - k : n], coeff[:, 2 * n - k :]])

    def rep_rows(self, rep: str) -> np.ndarray:
        """The check rows in the block form of a representation."""
        gx, gz = self.check_x.astype(np.uint8), self.check_z.astype(np.uint8)
        blocks = {
            "hswap": [gx, gz],
            "sswap": [gz, gx ^ gz],
            "sqrtxswap": [gx, gx ^ gz],
            "threeblock": [gx, gz, gx ^ gz],
        }[rep]
        return np.hstack(blocks)

    def check_automorphism(self, rep: str, rows: str, images) -> None:
        """images must permute the columns of the representation's code.

        'given' rows: the row multiset is preserved.  'codewords': the row
        span is preserved.  In both cases every qubit's columns must move
        together onto one qubit's columns, as the constraint rows demand.
        """
        n = self.n
        mat = self.rep_rows(rep)
        blocks = mat.shape[1] // n
        images = np.asarray(images, dtype=np.int64)
        if sorted(images.tolist()) != list(range(blocks * n)):
            raise CheckError("images are not a permutation of %d columns" % (blocks * n))
        targets = set()
        for q in range(n):
            cols = images[[b * n + q for b in range(blocks)]]
            if len({int(c) % n for c in cols}) != 1 or len({int(c) // n for c in cols}) != blocks:
                raise CheckError("qubit %d's columns do not move together" % q)
            targets.add(int(cols[0]) % n)
        if len(targets) != n:
            raise CheckError("induced qubit map is not a permutation")
        permuted = np.zeros_like(mat)
        permuted[:, images] = mat
        if rows == "given":
            before = Counter(r.tobytes() for r in mat)
            after = Counter(r.tobytes() for r in permuted)
            if before != after:
                raise CheckError("permutation does not preserve the check rows")
        elif gf2_rank(np.vstack([mat, permuted])) != gf2_rank(mat):
            raise CheckError("permutation does not preserve the row span")


# ---------------------------------------------------------------- targets

_TERM_RE = re.compile(r"\s*([A-Za-z]+)\s*\(\s*([0-9]+(?:\s*,\s*[0-9]+)*)\s*\)\s*")


def target_matrix(text: str, k: int) -> np.ndarray:
    """Action matrix of a named target such as 'H(0) CNOT(0,1)', H first."""
    gates = []
    for m in _TERM_RE.finditer(text):
        gates.append((m.group(1).upper(), tuple(int(a) for a in m.group(2).split(","))))
    eye = np.eye(2 * k, dtype=np.int64)
    x, z, _ = propagate(eye[:, :k], eye[:, k:], np.zeros(2 * k), gates)
    return np.hstack([x, z]).astype(np.uint8)


def parse_cycles(text: str, degree: int) -> list[int]:
    """Images of a permutation written in cycle notation."""
    images = list(range(degree))
    for cyc in re.findall(r"\(([^()]*)\)", text):
        pts = [int(p) for p in cyc.split()]
        for a, b in zip(pts, pts[1:] + pts[:1]):
            images[a] = b
    return images


def parse_action(rows) -> np.ndarray:
    return np.array([[int(c) for c in r] for r in rows], dtype=np.uint8)


# ---------------------------------------------------------------- outputs


def count_gates(circuit, correction: str) -> int:
    """Physical gates of a circuit with its correction layer in front."""
    return len(circuit) + len(pauli_gates(correction))


def check_gates_report(model: CodeModel, doc: dict, rep: str, rows: str) -> list[np.ndarray]:
    """Checks one `gates --json` report; returns the checked actions."""
    if not doc["search"]["complete"]:
        raise CheckError("search incomplete")  # exits 4 before it gets here
    degree = BLOCKS[rep] * model.n
    actions = []
    for idx, gen in enumerate(doc["generators"]):
        model.check_automorphism(rep, rows, parse_cycles(gen["permutation"], degree))
        gates = pauli_gates(gen["correction"]) + [parse_gate(g) for g in gen["circuit"]]
        model.check_preserves(gates)
        act = model.action(gates)
        if not np.array_equal(act, parse_action(gen["action"])):
            raise CheckError("generator %d: reported action differs" % idx)
        actions.append(act)
    order = closure_order(actions, 2 * model.k)
    if order != doc["action_group_order"]:
        raise CheckError(
            "action group order %d, closure gives %d" % (doc["action_group_order"], order)
        )
    if doc["search"]["order"] % order:
        raise CheckError("action order does not divide the automorphism order")
    return actions


def check_perm_order(generators, degree: int, order: int) -> None:
    """The reported automorphism order against sympy's Schreier-Sims."""
    from sympy.combinatorics import Permutation, PermutationGroup

    perms = [Permutation(list(g)) for g in generators] or [Permutation(list(range(degree)))]
    got = PermutationGroup(perms).order()
    if got != order:
        raise CheckError("automorphism order %d, sympy gives %d" % (order, got))


def parse_circuit_file(text: str) -> tuple[dict, list[tuple[str, tuple[int, ...]]]]:
    """Header fields ('# key: value') and gates of a find-gate circuit file."""
    header, gates = {}, []
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("#"):
            key, sep, value = line[1:].partition(":")
            if sep:
                header[key.strip()] = value.strip()
        elif line:
            gates.append(parse_gate(line))
    return header, gates
