"""Permutation groups via deterministic Schreier-Sims stabilizer chains.

The chain code is generic over the element type: anything that supports
``act``, ``compose``, ``inverse``, ``is_identity`` and ``moved_point``
can be used.  Both element types provided here hold an element as the
tuple of the images of its basis points, so ``compose``,
``is_identity`` and ``moved_point`` are written once for both; a type
supplies only its basis points, ``act`` and ``inverse``.
``PermElement`` permutes ``range(degree)`` and its basis points are
``0..d-1``.  ``MatrixElement`` is an invertible binary matrix acting on
row vectors encoded as integers; its basis points are the unit vectors
``1 << i``, so its images are the matrix rows packed into Python ints
of any width.  An element computes its inverse at most once and keeps
it, since sifting divides by the same transversal elements over and
over.

Every element carries a word in the user's generators as a tuple of
``(generator_index, exponent)`` pairs with exponent +1 or -1, read left
to right in application order.  Words survive composition and sifting,
so ``express`` returns group elements whose words recompose exactly to
the requested permutation or matrix.
"""

import numpy as np

from .gf2 import asbits, invert


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
    """Images of the basis points under an element, plus its word."""

    __slots__ = ("images", "word", "_inverse")

    def __init__(self, images, word=()):
        self.images = tuple(images)
        self.word = tuple(word)
        self._inverse = None

    @classmethod
    def identity(cls, dim):
        return cls(cls.basis(dim))

    def compose(self, other):
        """Element "apply self, then other"."""
        return type(self)(map(other.act, self.images), self.word + other.word)

    def moved_point(self):
        """Smallest basis point not fixed, or None for the identity."""
        for point, image in zip(self.basis(len(self.images)), self.images):
            if image != point:
                return point
        return None

    def is_identity(self):
        return self.moved_point() is None


class PermElement(_Element):
    """Permutation of range(degree) carrying a generator word."""

    __slots__ = ()

    @staticmethod
    def basis(dim):
        return range(dim)

    def act(self, point):
        return self.images[point]

    def inverse(self):
        if self._inverse is None:
            self._inverse = PermElement(
                invert_images(self.images), invert_word(self.word)
            )
        return self._inverse

    def __repr__(self):
        return "PermElement(%s)" % cycle_string(self.images)


class MatrixElement(_Element):
    """Invertible binary matrix acting on row vectors encoded as ints.

    A vector (v_0, ..., v_{d-1}) is encoded as sum(v_j << j), and the
    images of the unit vectors are the matrix rows so encoded.  The
    action is right multiplication v @ M, so compose(a, b) is a @ b.
    """

    __slots__ = ()

    @staticmethod
    def basis(dim):
        return [1 << i for i in range(dim)]

    @classmethod
    def from_matrix(cls, mat, word=()):
        """Element of a d x d binary matrix, each row packed into an int."""
        packed = np.packbits(asbits(mat), axis=1, bitorder="little")
        return cls((int.from_bytes(row.tobytes(), "little") for row in packed), word)

    def matrix(self):
        """The rows unpacked into a d x d uint8 array."""
        d = len(self.images)
        width = (d + 7) // 8
        packed = b"".join(row.to_bytes(width, "little") for row in self.images)
        bits = np.frombuffer(packed, dtype=np.uint8).reshape(d, width)
        return np.unpackbits(bits, axis=1, count=d, bitorder="little")

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
            self._inverse = MatrixElement.from_matrix(
                invert(self.matrix()), invert_word(self.word)
            )
        return self._inverse

    def __repr__(self):
        return "MatrixElement(%r)" % (self.matrix().tolist(),)


class StabilizerChain:
    """One level of a stabilizer chain built by deterministic Schreier-Sims.

    Generators stored at a level fix the base points of all earlier
    levels.  The orbit of the level's base point is kept as a transversal
    dict mapping each orbit point to an element sending the base point to
    it.  A prescribed base is used as a prefix and extended on demand.
    """

    __slots__ = ("identity", "basepoint", "gens", "tree", "stab")

    def __init__(self, identity, prescribed_base=()):
        self.identity = identity
        self.basepoint = None
        self.gens = []
        self.tree = {}
        self.stab = None
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

    def base(self):
        """Base points of the chain, skipping unused tail levels."""
        points = []
        node = self
        while node is not None and node.basepoint is not None:
            points.append(node.basepoint)
            node = node.stab
        return points

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
            g = g.compose(u.inverse())
            node = node.stab
        return g

    def contains(self, g):
        return self.sift(g).is_identity()

    def express(self, g):
        """Return a member equal to g whose word is in the generators.

        Returns None when g is not in the group.  Sifting appends the
        inverse words of the dividing transversal elements to g's word,
        so inverting that tail gives a word that recomposes to g.
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
        """Sift every Schreier generator into the stabilizer subgroup."""
        if self.stab is None:
            self.stab = StabilizerChain(self.identity)
        gens = self.strong_generators()
        for point in list(self.tree):
            u = self.tree[point]
            for s in gens:
                v = self.tree[s.act(point)]
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

    Generators are added by their image tuples and indexed in the order
    given, including redundant ones, so element words can be mapped back
    to caller-side data attached to each generator.
    """

    def __init__(self, degree, generators=(), prescribed_base=()):
        self.degree = int(degree)
        self.gen_images = []
        self.chain = StabilizerChain(
            PermElement.identity(self.degree), prescribed_base
        )
        for images in generators:
            self.add_generator(images)

    def add_generator(self, images):
        """Register a generator; returns True if the group grew."""
        images = tuple(images)
        if len(images) != self.degree:
            raise ValueError("generator degree mismatch")
        idx = len(self.gen_images)
        self.gen_images.append(images)
        return self.chain.add(PermElement(images, ((idx, 1),)))

    def order(self):
        return self.chain.order()

    def contains(self, images):
        return self.chain.contains(PermElement(images))

    def express(self, images):
        """Member equal to the given permutation, with word, or None."""
        return self.chain.express(PermElement(images))

    def base(self):
        return self.chain.base()

    def level_generators(self, depth):
        """Image tuples of generators fixing the first depth base points."""
        node = self.chain
        for _ in range(depth):
            if node.stab is None:
                return []
            node = node.stab
        return [g.images for g in node.strong_generators()]

    def iter_elements(self):
        """Yield the images tuple of every element once."""
        for elt in self.chain.iter_elements():
            yield elt.images

    def word_images(self, word):
        """Recompose a word into images, for checking and reporting."""
        out = PermElement.identity(self.degree)
        for idx, exp in word:
            g = PermElement(self.gen_images[idx])
            out = out.compose(g if exp > 0 else g.inverse())
        return out.images
