"""Stabilizer chains on a complete base, by Schreier-Sims or from a strong generating set.

The chain code is generic over the element type: anything that supports
``act``, ``compose``, ``inverse`` and ``is_identity`` can be used.  Both
element types provided here hold an element as the tuple of the images
of its basis points, so ``is_identity`` is one tuple comparison, written
once for both; a type supplies its basis points, ``act``, ``compose``
and ``inverse``.  ``PermElement`` permutes ``range(degree)`` and its
basis points are ``0..d-1``.
``MatrixElement`` is a binary symplectic matrix acting on
row vectors encoded as integers; its basis points are the unit vectors
``1 << i``, so its images are the matrix rows packed into Python ints
of any width.  An element computes its inverse at most once and keeps
it, since sifting divides by the same transversal elements over and
over; a matrix M is symplectic, so its inverse is omega M^T omega
(``gf2.symplectic_inverse``), as ``MatrixElement`` explains.

A chain's base is given up front and must be complete: only the
identity fixes every base point.  It is never extended; an element that
fixes it all and is not the identity raises ``ValueError``, and the last
level sifts no Schreier generators, as each fixes the whole base.  The
action chain's base is all 2k unit vectors, ``PermGroup``'s the search's.

Each tree is a Schreier vector: a rebuild records, breadth first, each
orbit point's parent and the step that first reached it, and composes
nothing.  A point's transversal element, its parent's composed with that
step, is built on first use and kept until the next rebuild.

``add`` may be given an upper bound on the order of the group generated,
and then stops sifting Schreier generators once the chain's order, the
product of its tree lengths, reaches it (the known-order stop of
Schreier-Sims).  The stop is exact.  Let G_i be the group generated by
the strong generators at level i and deeper; those at level i+1 fix
b_0..b_i, so G_{i+1} <= Stab_{G_i}(b_i).  A tree is the orbit of b_i
under G_i as it was when the tree was last rebuilt, so it is no larger
than the orbit now.  Hence |tree_i| * |G_{i+1}| <= |G_i|, and the
product of the tree lengths never exceeds |G_0|, at every point,
mid-closure and with stale ancestor trees included.  So when that
product equals a bound on |G_0|, every tree is a full orbit and each
G_{i+1} is the whole stabilizer: the chain is a base and strong
generating set, and every Schreier generator still to come would sift
to the identity.  Only those sifts are skipped.  Each level still
rebuilds its tree after a deeper insertion, since the new deeper
generators come first in its breadth-first search and so change its
transversal, and with it the words.  The stop is the only skip, and
every insert into the logical-action chain has a bound
(``LogicalActionGroup.add``).

Only ``MatrixElement``, the element of the logical-action chain, carries
a word in the user's generators: a tuple of ``(generator_index,
exponent)`` pairs with exponent +1 or -1, read left to right in
application order.  Words survive composition and sifting, so
``express`` returns elements whose words recompose exactly to the
requested matrix.  ``PermElement`` carries none, and ``PermGroup`` is
built from a given strong generating set without Schreier-Sims.

``PermGroup.prefix_orders`` gives the exact order of the group H_j that
the first j strong generators generate, when their levels never increase,
as the automorphism search returns them.  Let g_j move b_i first, and let
G^(i) be the group the generators at level i and deeper generate, the
stabilizer of b_0..b_{i-1}.  Then H_j <= G^(i), as g_1..g_j all fix
b_0..b_{i-1}, and G^(i+1) <= H_j, as every deeper generator comes before
g_j; so Stab_{H_j}(b_i) = G^(i+1), and |H_j| is the orbit length of b_i
under g_1..g_j times the deeper tree lengths.
"""

import functools
import math

import numpy as np

from .gf2 import asbits, symplectic_inverse


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

    def is_identity(self):
        return self.images == self.basis(len(self.images))


class PermElement(_Element):
    """Permutation of range(degree)."""

    __slots__ = ()

    @staticmethod
    @functools.cache
    def basis(dim):
        return tuple(range(dim))

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
    """Binary symplectic matrix acting on row vectors encoded as ints.

    A vector (v_0, ..., v_{d-1}) is encoded as sum(v_j << j), and the
    images of the unit vectors are the matrix rows so encoded.  The
    action is right multiplication v @ M, so compose(a, b) is a @ b.
    The element carries its word in the generators.  Its inverse is
    omega M^T omega, so M must be symplectic: ``check_action_matrix``, in
    ``LogicalActionGroup.add`` and ``express``, admits only an M whose
    product with that very inverse is the identity.
    """

    __slots__ = ("word",)

    def __init__(self, images, word=()):
        super().__init__(images)
        self.word = tuple(word)

    @staticmethod
    @functools.cache
    def basis(dim):
        return tuple(1 << i for i in range(dim))

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
            d, width = len(self.images), (len(self.images) + 7) // 8
            packed = b"".join(row.to_bytes(width, "little") for row in self.images)
            rows = np.frombuffer(packed, np.uint8).reshape(d, width)
            inv = symplectic_inverse(np.unpackbits(rows, axis=1, count=d, bitorder="little"))
            self._inverse = MatrixElement.from_matrix(inv, invert_word(self.word))
        return self._inverse

    def __repr__(self):
        return "MatrixElement(%r)" % (self.images,)


class StabilizerChain:
    """One level of a stabilizer chain; ``add`` runs deterministic Schreier-Sims.

    Generators stored at a level fix the base points of all earlier
    levels.  ``tree`` maps each point of the base point's orbit to the
    edge (parent point, step) that first reached it, and
    ``transversal(point)`` gives an element sending the base point there.
    The prescribed base must be complete; it is never extended.
    """

    __slots__ = ("identity", "basepoint", "gens", "tree", "elements", "stab")

    def __init__(self, identity, prescribed_base=()):
        base = tuple(prescribed_base)
        self.identity = identity
        self.basepoint = base[0] if base else None
        self.gens = []
        self.tree = dict.fromkeys(base[:1])  # the base point has no edge
        self.elements = dict.fromkeys(base[:1], identity)
        self.stab = StabilizerChain(identity, base[1:]) if len(base) > 1 else None

    def levels(self):
        """This level and every deeper one, top down."""
        node = self
        while node is not None and node.basepoint is not None:
            yield node
            node = node.stab

    def strong_generators(self):
        """All generators at this level and deeper, deepest first."""
        return [g for node in reversed(list(self.levels())) for g in node.gens]

    def order(self):
        return math.prod(len(node.tree) for node in self.levels())

    def transversal(self, point):
        """Element sending the base point to point; None off the orbit.

        Composed from the nearest ancestor already built, down the
        tree's edges, and cached until the next rebuild.
        """
        u = self.elements.get(point)
        if u is not None or point not in self.tree:
            return u
        path = []
        while point not in self.elements:
            path.append(point)
            point = self.tree[point][0]
        u = self.elements[point]
        for point in reversed(path):
            u = self.elements[point] = u.compose(self.tree[point][1])
        return u

    def sift(self, g):
        """Divide g by transversal elements level by level.

        An identity residue means g is a member; otherwise the residue
        witnesses non-membership.
        """
        for node in self.levels():
            u = node.transversal(g.act(node.basepoint))
            if u is None:
                return g
            if u is not node.identity:
                g = g.compose(u.inverse())
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

    def add(self, gen, bound=None):
        """Add a generator; returns True if the group grew.

        bound, if given, must be at least the order of the group that
        the chain's generators and gen generate.  Once the chain's order
        reaches it, the Schreier generators not yet sifted are skipped;
        trees, strong generators and words are as without it.
        """
        stop = None if bound is None else _OrderStop(self, bound)
        return self._add(gen, stop)

    def _add(self, gen, stop):
        residue = self.sift(gen)
        if residue.is_identity():
            return False
        self._insert(residue, stop)
        return True

    def _insert(self, gen, stop):
        # gen fixes the base points of every level above this one
        if self.basepoint is not None and gen.act(self.basepoint) != self.basepoint:
            self.gens.append(gen)
        elif self.stab is not None:
            self.stab._insert(gen, stop)
        else:
            raise ValueError("incomplete base: %r fixes every base point" % (gen,))
        # the tree is rebuilt even once the bound is reached: the levels
        # below may have new generators, which change its transversal
        self._rebuild_tree()
        if stop is not None:
            stop.refresh()
        self._close(stop)

    def _rebuild_tree(self):
        steps = [s for g in self.strong_generators() for s in (g, g.inverse())]
        tree = {self.basepoint: None}
        queue = [self.basepoint]
        for a in queue:
            for s in steps:
                b = s.act(a)
                if b not in tree:
                    tree[b] = (a, s)
                    queue.append(b)
        self.tree = tree
        self.elements = {self.basepoint: self.identity}

    def _close(self, stop):
        """Sift each Schreier generator into the stabilizer until the stop fires."""
        if self.stab is None:  # each one fixes the whole base: the identity
            return
        gens = self.strong_generators()
        for point in self.tree:
            u = self.transversal(point)
            for s in gens:
                if stop is not None and stop.reached:
                    return
                v = self.transversal(s.act(point))
                self.stab._add(u.compose(s).compose(v.inverse()), stop)


class _OrderStop:
    """Whether a chain's order has reached a known upper bound."""

    __slots__ = ("root", "bound", "reached")

    def __init__(self, root, bound):
        self.root = root
        self.bound = bound
        self.refresh()

    def refresh(self):
        # a chain's order changes only when one of its trees is rebuilt
        self.reached = self.root.order() >= self.bound


class PermGroup:
    """Group of permutations of range(degree) with exact order.

    Built from a base and strong generating set of image tuples (the
    generators fixing each base prefix generate its pointwise stabilizer):
    each generator goes to the first base point it moves, and each level's
    tree is built once.  Its elements carry no words.
    """

    def __init__(self, degree, base=(), strong_generators=()):
        self.chain = StabilizerChain(PermElement.identity(degree), base)
        self.levels = list(self.chain.levels())
        self.generators, self.depths = [], []  # images and level, in the order given
        for images in strong_generators:
            if len(images) != degree:
                raise ValueError("generator degree mismatch")
            depth = next((i for i, lv in enumerate(self.levels)
                          if images[lv.basepoint] != lv.basepoint), None)
            if depth is None:
                raise ValueError("generator fixes every base point")
            self.levels[depth].gens.append(PermElement(images))
            self.generators.append(tuple(images))
            self.depths.append(depth)
        for level in self.levels:
            level._rebuild_tree()

    def order(self):
        return self.chain.order()

    def prefix_orders(self):
        """Order of the group that each prefix of the strong generators generates.

        Needs generator levels that never increase (module docstring).
        """
        orders = []
        for j, depth in enumerate(self.depths):
            if j and depth > self.depths[j - 1]:
                raise ValueError("generator levels increase")
            # the orbit of its base point under generators 0..j, breadth first
            gens = self.generators[:j + 1]
            orbit = frontier = {self.levels[depth].basepoint}
            while frontier:
                frontier = {g[p] for p in frontier for g in gens} - orbit
                orbit |= frontier
            orders.append(len(orbit) * math.prod(len(lv.tree) for lv in self.levels[depth + 1:]))
        return orders

    def contains(self, images):
        return self.chain.contains(PermElement(images))
