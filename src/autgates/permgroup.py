"""Stabilizer chains, by deterministic Schreier-Sims or from a strong generating set.

The chain code is generic over the element type: anything that supports
``act``, ``compose``, ``inverse``, ``is_identity`` and ``moved_point``
can be used.  Both element types provided here hold an element as the
tuple of the images of its basis points, so ``is_identity`` and
``moved_point`` are written once for both; a type supplies its basis
points, ``act``, ``compose`` and ``inverse``.  ``PermElement`` permutes
``range(degree)`` and its basis points are ``0..d-1``.
``MatrixElement`` is an invertible binary matrix acting on
row vectors encoded as integers; its basis points are the unit vectors
``1 << i``, so its images are the matrix rows packed into Python ints
of any width.  An element computes its inverse at most once and keeps
it, since sifting divides by the same transversal elements over and
over; a matrix is inverted by Gauss-Jordan elimination on those ints.

Each chain level remembers the Schreier generators u*s*v^-1 it has
already passed to the level below, keyed by the images of u, s and v,
and never composes or sifts one again.  Skipping one cannot change the
chain: when ``add`` returns, the level below is complete for the group
it holds, and that group only grows, so a generator sifted once sifts
to the identity ever after and would change nothing.  Trees, strong
generators and ``express`` words are those of the plain algorithm.

Only ``MatrixElement``, the element of the logical-action chain, carries
a word in the user's generators: a tuple of ``(generator_index,
exponent)`` pairs with exponent +1 or -1, read left to right in
application order.  Words survive composition and sifting, so
``express`` returns elements whose words recompose exactly to the
requested matrix.  ``PermElement`` carries none, and ``PermGroup`` is
built from a given strong generating set without Schreier-Sims.
"""

import numpy as np

from .errors import SingularMatrixError
from .gf2 import asbits


def invert_word(word):
    """Word of the inverse element: reverse order, flip exponents."""
    return tuple((idx, -exp) for idx, exp in reversed(word))


def invert_images(p):
    """Images of the inverse permutation."""
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def cycles(images) -> list[list[int]]:
    """Nontrivial cycles [a1, a2, ...] with images[ai] = a(i+1), by first point."""
    seen = set()
    out = []
    for i in range(len(images)):
        if i in seen or images[i] == i:
            continue
        cycle = [i]
        j = int(images[i])
        while j != i:
            seen.add(j)
            cycle.append(j)
            j = int(images[j])
        out.append(cycle)
    return out


def cycle_string(images):
    """Format a permutation in disjoint cycle notation, e.g. "(0 3)(1 2)"."""
    return "".join("(%s)" % " ".join(map(str, c)) for c in cycles(images)) or "()"


class _Element:
    """Images of the basis points under an element."""

    __slots__ = ("images", "_inverse")

    def __init__(self, images):
        self.images = tuple(images)
        self._inverse = None

    @classmethod
    def identity(cls, dim):
        return cls(cls.basis(dim))

    def moved_point(self):
        """Smallest basis point not fixed, or None for the identity."""
        for point, image in zip(self.basis(len(self.images)), self.images):
            if image != point:
                return point
        return None

    def is_identity(self):
        return self.moved_point() is None


class PermElement(_Element):
    """Permutation of range(degree)."""

    __slots__ = ()

    @staticmethod
    def basis(dim):
        return range(dim)

    def act(self, point):
        return self.images[point]

    def compose(self, other):
        """Element "apply self, then other"."""
        return PermElement(map(other.images.__getitem__, self.images))

    def inverse(self):
        if self._inverse is None:
            self._inverse = PermElement(invert_images(self.images))
        return self._inverse

    def __repr__(self):
        return "PermElement(%s)" % cycle_string(self.images)


class MatrixElement(_Element):
    """Invertible binary matrix acting on row vectors encoded as ints.

    A vector (v_0, ..., v_{d-1}) is encoded as sum(v_j << j), and the
    images of the unit vectors are the matrix rows so encoded.  The
    action is right multiplication v @ M, so compose(a, b) is a @ b.
    The element carries its word in the generators.
    """

    __slots__ = ("word",)

    def __init__(self, images, word=()):
        super().__init__(images)
        self.word = tuple(word)

    @staticmethod
    def basis(dim):
        return [1 << i for i in range(dim)]

    @classmethod
    def from_matrix(cls, mat, word=()):
        """Element of a d x d binary matrix, each row packed into an int."""
        packed = np.packbits(asbits(mat), axis=1, bitorder="little")
        return cls((int.from_bytes(row.tobytes(), "little") for row in packed), word)

    def compose(self, other):
        """Element "apply self, then other"."""
        return MatrixElement(map(other.act, self.images), self.word + other.word)

    def act(self, point):
        # XOR the rows at the set bits of point, lowest bit first
        rows = self.images
        out = 0
        while point:
            low = point & -point
            out ^= rows[low.bit_length() - 1]
            point ^= low
        return out

    def inverse(self):
        if self._inverse is None:
            # Gauss-Jordan on [M | I], each row one int: bits 0..d-1 hold
            # the row of M, bits d..2d-1 the row operations applied to it
            d = len(self.images)
            rows = [row | 1 << (d + i) for i, row in enumerate(self.images)]
            for col in range(d):
                bit = 1 << col
                pivot = next((r for r in range(col, d) if rows[r] & bit), None)
                if pivot is None:
                    raise SingularMatrixError("singular %dx%d matrix" % (d, d))
                rows[col], rows[pivot] = rows[pivot], rows[col]
                top = rows[col]
                for r, row in enumerate(rows):
                    if row & bit and r != col:
                        rows[r] = row ^ top
            self._inverse = MatrixElement(
                (row >> d for row in rows), invert_word(self.word)
            )
        return self._inverse

    def __repr__(self):
        return "MatrixElement(%r)" % (self.images,)


class StabilizerChain:
    """One level of a stabilizer chain; ``add`` runs deterministic Schreier-Sims.

    Generators stored at a level fix the base points of all earlier
    levels.  The orbit of the level's base point is kept as a transversal
    dict mapping each orbit point to an element sending the base point to
    it.  A prescribed base is used as a prefix and extended on demand.
    """

    __slots__ = ("identity", "basepoint", "gens", "tree", "stab", "sifted")

    def __init__(self, identity, prescribed_base=()):
        self.identity = identity
        self.basepoint = None
        self.gens = []
        self.tree = {}
        self.stab = None
        self.sifted = set()
        base = tuple(prescribed_base)
        if base:
            self.basepoint = base[0]
            self.tree = {base[0]: identity}
            if len(base) > 1:
                self.stab = StabilizerChain(identity, base[1:])

    def strong_generators(self):
        """All generators at this level and deeper, deepest first."""
        gens = [] if self.stab is None else self.stab.strong_generators()
        return gens + self.gens

    def order(self):
        if self.basepoint is None:
            return 1
        sub = 1 if self.stab is None else self.stab.order()
        return len(self.tree) * sub

    def sift(self, g):
        """Divide g by transversal elements level by level.

        An identity residue means g is a member; otherwise the residue
        witnesses non-membership.
        """
        node = self
        while node is not None and node.basepoint is not None:
            u = node.tree.get(g.act(node.basepoint))
            if u is None:
                return g
            if u is not node.identity:
                g = g.compose(u.inverse())
            node = node.stab
        return g

    def contains(self, g):
        return self.sift(g).is_identity()

    def express(self, g):
        """Return a member equal to g whose word is in the generators.

        Only for elements that carry words.  Returns None when g is not
        in the group.  Sifting appends the inverse words of the dividing
        transversal elements to g's word, so inverting that tail gives a
        word that recomposes to g.
        """
        residue = self.sift(g)
        if not residue.is_identity():
            return None
        return type(g)(g.images, invert_word(residue.word[len(g.word):]))

    def add(self, gen):
        """Add a generator; returns True if the group grew."""
        residue = self.sift(gen)
        if residue.is_identity():
            return False
        self._insert(residue)
        return True

    def _insert(self, gen):
        # gen fixes the base points of every level above this one
        if self.basepoint is None:
            self.basepoint = gen.moved_point()
            self.tree = {self.basepoint: self.identity}
        if gen.act(self.basepoint) == self.basepoint:
            if self.stab is None:
                self.stab = StabilizerChain(self.identity)
            self.stab._insert(gen)
        else:
            self.gens.append(gen)
        self._rebuild_tree()
        self._close()

    def _rebuild_tree(self):
        steps = []
        for g in self.strong_generators():
            steps.append(g)
            steps.append(g.inverse())
        tree = {self.basepoint: self.identity}
        queue = [self.basepoint]
        head = 0
        while head < len(queue):
            a = queue[head]
            head += 1
            u = tree[a]
            for s in steps:
                b = s.act(a)
                if b not in tree:
                    tree[b] = u.compose(s)
                    queue.append(b)
        self.tree = tree

    def _close(self):
        """Sift every Schreier generator not yet sifted into the stabilizer."""
        if self.stab is None:
            self.stab = StabilizerChain(self.identity)
        gens = self.strong_generators()
        for point, u in self.tree.items():
            for s in gens:
                v = self.tree[s.act(point)]
                key = (u.images, s.images, v.images)
                if key not in self.sifted:
                    self.sifted.add(key)
                    self.stab.add(u.compose(s).compose(v.inverse()))

    def iter_elements(self):
        """Yield every group element once, as transversal products."""
        if self.basepoint is None:
            yield self.identity
            return
        if self.stab is None:
            deeper = [self.identity]
        else:
            deeper = self.stab.iter_elements()
        for rest in deeper:
            for u in self.tree.values():
                yield rest.compose(u)


class PermGroup:
    """Group of permutations of range(degree) with exact order.

    Built from a base and strong generating set of image tuples (the
    generators fixing each base prefix generate its pointwise stabilizer):
    each generator goes to the first base point it moves, and each level's
    tree is built once.  Its elements carry no words.
    """

    def __init__(self, degree, base=(), strong_generators=()):
        self.chain = StabilizerChain(PermElement.identity(degree), base)
        levels, node = [], self.chain
        while node is not None and node.basepoint is not None:
            levels.append(node)
            node = node.stab
        for images in strong_generators:
            if len(images) != degree:
                raise ValueError("generator degree mismatch")
            level = next((lv for lv in levels if images[lv.basepoint] != lv.basepoint), None)
            if level is None:
                raise ValueError("generator fixes every base point")
            level.gens.append(PermElement(images))
        for level in levels:
            level._rebuild_tree()

    def order(self):
        return self.chain.order()

    def contains(self, images):
        return self.chain.contains(PermElement(images))

    def iter_elements(self):
        """Yield the images tuple of every element once."""
        for elt in self.chain.iter_elements():
            yield elt.images
