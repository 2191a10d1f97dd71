"""Stabilizer chain tests against brute-force group closures and a plain Schreier-Sims."""

import numpy as np
import pytest

from autgates import permgroup
from autgates.circuits import CliffordCircuit, Gate
from autgates import gf2
from autgates.permgroup import (
    MatrixElement,
    PermElement,
    PermGroup,
    StabilizerChain,
    cycle_string,
    cycles,
    invert_images,
)

from oracles import (
    SchreierSims,
    base_points,
    chain_levels,
    eager_express,
    eager_tree,
    matrix_closure,
)


def closure(gens):
    """All products of the given permutations, by breadth-first search."""
    degree = len(gens[0])
    start = tuple(range(degree))
    seen = {start}
    frontier = [start]
    while frontier:
        new = []
        for p in frontier:
            for g in gens:
                q = tuple(g[i] for i in p)  # apply p, then g
                if q not in seen:
                    seen.add(q)
                    new.append(q)
        frontier = new
    return seen


def random_symplectic(rng, k):
    """Symplectic matrix of a seeded random H, S, CNOT circuit on k qubits,
    with its MatrixElement: an element of Sp(2k, 2)."""
    gates = []
    # a random length: each of H, S and CNOT is odd in Sp(4, 2) = S_6
    for _ in range(int(rng.integers(10 * k, 20 * k + 1))):
        q = int(rng.integers(k))
        kind = int(rng.integers(3 if k > 1 else 2))
        if kind == 2:
            gates.append(Gate("CNOT", (q, (q + 1 + int(rng.integers(k - 1))) % k)))
        else:
            gates.append(Gate("HS"[kind], (q,)))
    m = CliffordCircuit(k, tuple(gates)).symplectic()
    return m, MatrixElement.from_matrix(m)


def random_perm(rng, degree):
    images = list(range(degree))
    rng.shuffle(images)
    return tuple(images)


def perm_chain(degree, gens, base=None):
    """The chain Schreier-Sims builds from gens, on the complete base 0..degree-1."""
    chain = StabilizerChain(PermElement.identity(degree), range(degree) if base is None else base)
    for images in gens:
        chain.add(PermElement(images))
    return chain


def unit_vectors(d):
    return tuple(1 << i for i in range(d))


def bsgs_group(degree, chain):
    """PermGroup built from the chain's base and strong generators."""
    gens = [g.images for g in chain.strong_generators()]
    return PermGroup(degree, base_points(chain), gens)


def test_known_group_orders():
    # symmetric group S_6 from a transposition and a 6-cycle
    s6_gens = [(1, 0, 2, 3, 4, 5), (1, 2, 3, 4, 5, 0)]
    s6 = perm_chain(6, s6_gens)
    assert s6.order() == SchreierSims(6, s6_gens).order() == 720
    assert bsgs_group(6, s6).order() == 720
    # cyclic group C_13
    c13 = perm_chain(13, [tuple((i + 1) % 13 for i in range(13))])
    assert c13.order() == 13
    # alternating group A_4 from two 3-cycles
    a4_gens = [(1, 2, 0, 3), (0, 2, 3, 1)]
    a4 = perm_chain(4, a4_gens)
    assert a4.order() == SchreierSims(4, a4_gens).order() == 12
    # a generator already in the group does not grow it
    assert not a4.add(PermElement((1, 2, 0, 3)))
    assert a4.order() == 12
    assert bsgs_group(4, a4).order() == 12
    # dihedral group of the 12-gon: rotation and reflection
    rot = tuple((i + 1) % 12 for i in range(12))
    ref = tuple((-i) % 12 for i in range(12))
    d12 = perm_chain(12, [rot, ref])
    assert d12.order() == SchreierSims(12, [rot, ref]).order() == 24
    assert bsgs_group(12, d12).order() == 24


def test_trivial_group():
    g = PermGroup(5)
    assert g.order() == 1
    assert g.contains(tuple(range(5)))
    assert not g.contains((1, 0, 2, 3, 4))
    # a base with no generators is trivial too
    g = PermGroup(5, (2, 0))
    assert g.order() == 1
    assert not g.contains((1, 0, 2, 3, 4))
    # adding the identity does not grow a chain, even one with no base
    for chain in (perm_chain(5, []), StabilizerChain(PermElement.identity(5))):
        assert not chain.add(PermElement.identity(5))
        assert chain.order() == 1
    assert SchreierSims(5, [tuple(range(5))]).order() == 1


def test_order_and_membership_match_closure():
    rng = np.random.default_rng(11)
    for trial in range(20):
        degree = int(rng.integers(3, 8))
        gens = [random_perm(rng, degree) for _ in range(int(rng.integers(1, 4)))]
        ref = closure(gens)
        oracle = SchreierSims(degree, gens)
        chain = perm_chain(degree, gens)
        group = bsgs_group(degree, chain)
        assert chain.order() == group.order() == oracle.order() == len(ref)
        for p in list(ref)[:50]:
            assert chain.contains(PermElement(p))
            assert group.contains(p)
            assert oracle.contains(p)
        for _ in range(10):
            p = random_perm(rng, degree)
            assert chain.contains(PermElement(p)) == group.contains(p) == (p in ref)
            assert oracle.contains(p) == (p in ref)
    for trial in range(20):
        # Sp(6, 2) has about 1.5 * 10^6 elements, beyond a test's closure,
        # so several generators are drawn only up to 2k = 4
        k = int(rng.integers(1, 4))
        d = 2 * k
        count = 1 if k == 3 else int(rng.integers(1, 4))
        mats, elts = zip(*(random_symplectic(rng, k) for _ in range(count)))
        ref = matrix_closure(mats)
        chain = StabilizerChain(MatrixElement.identity(d), unit_vectors(d))
        for elt in elts:
            chain.add(elt)
        assert chain.order() == len(ref)
        for key in list(ref)[:50]:
            m = np.frombuffer(key, dtype=np.uint8).reshape(d, d)
            assert chain.contains(MatrixElement.from_matrix(m))
        for _ in range(10):
            m, elt = random_symplectic(rng, k)
            assert chain.contains(elt) == (m.tobytes() in ref)


def test_bsgs_group_holds_the_closure():
    gens = [(1, 2, 0, 3, 4), (0, 1, 2, 4, 3)]
    group = bsgs_group(5, perm_chain(5, gens))
    ref = closure(gens)
    assert group.order() == len(ref) == 6
    assert all(group.contains(p) for p in ref)


def test_prescribed_base_is_respected():
    gens = [(1, 0, 2, 3, 4, 5), (1, 2, 3, 4, 5, 0)]
    base = (3, 1, 4, 0, 5)
    chain = perm_chain(6, gens, base)
    assert chain.order() == 720
    assert base_points(chain) == base
    # the oracle extends a prefix of the base on demand
    oracle = SchreierSims(6, gens, base[:3])
    assert oracle.order() == 720
    assert tuple(oracle.base[:3]) == base[:3]


def test_incomplete_base_raises():
    # S_3 on base (0,): (1 2) fixes the base point and is not the identity
    chain = perm_chain(3, [(1, 0, 2)], base=(0,))
    with pytest.raises(ValueError, match="incomplete base"):
        chain.add(PermElement((1, 2, 0)))
    with pytest.raises(ValueError, match="incomplete base"):
        StabilizerChain(PermElement.identity(3)).add(PermElement((1, 0, 2)))
    # a matrix chain on the unit vector 1 alone
    chain = StabilizerChain(MatrixElement.identity(2), (1,))
    with pytest.raises(ValueError, match="incomplete base"):
        chain.add(MatrixElement.from_matrix([[1, 0], [1, 1]]))


def test_level_generators_fix_base_prefix():
    # with base 0..5, each level's generators fix the base prefix, and the
    # stabilizer of 0 in S_6 is S_5, of 0 and 1 is S_4
    gens = [(1, 0, 2, 3, 4, 5), (1, 2, 3, 4, 5, 0)]
    base = tuple(range(6))
    chain = perm_chain(6, gens, base)
    node, depth = chain, 0
    while node is not None:
        for g in node.strong_generators():
            assert g.images[:depth] == base[:depth]
        node, depth = node.stab, depth + 1
    assert chain.stab.order() == 120
    assert chain.stab.stab.order() == 24


def test_perm_group_from_strong_generators():
    # S_4 on base (0, 1, 2): (2 3) at level 2, (1 2 3) and (1 2) at
    # level 1, (0 1 2 3) and (0 1) at level 0
    base = (0, 1, 2)
    gens = [(0, 1, 3, 2), (0, 2, 3, 1), (0, 2, 1, 3), (1, 2, 3, 0), (1, 0, 2, 3)]
    group = PermGroup(4, base, gens)
    assert group.order() == 24
    assert base_points(group.chain) == base
    assert [g.images for g in group.chain.stab.stab.gens] == [gens[0]]
    assert all(group.contains(p) for p in closure(gens))
    # generators are placed by the first base point they move, in any order
    assert PermGroup(4, base, gens[::-1]).order() == 24
    with pytest.raises(ValueError, match="degree mismatch"):
        PermGroup(5, base, gens)
    # in a BSGS only the identity fixes every base point
    with pytest.raises(ValueError, match="fixes every base point"):
        PermGroup(4, (0, 1), gens)
    with pytest.raises(ValueError, match="fixes every base point"):
        PermGroup(4, (), [(1, 0, 2, 3)])


def test_prefix_orders():
    # S_4 on base (0, 1, 2), generators deepest level first
    base = (0, 1, 2)
    gens = [(0, 1, 3, 2), (0, 2, 3, 1), (0, 2, 1, 3), (1, 2, 3, 0), (1, 0, 2, 3)]
    assert PermGroup(4, base, gens).prefix_orders() == [2, 6, 6, 24, 24]
    # (1 2) alone moves 1 to 2 only; with the deeper (2 3) it reaches 3
    swaps = [(0, 1, 3, 2), (0, 2, 1, 3), (1, 0, 2, 3)]
    assert PermGroup(4, base, swaps).prefix_orders() == [2, 6, 24]
    assert PermGroup(5).prefix_orders() == []
    # the orders are exact only when the levels never increase
    with pytest.raises(ValueError, match="levels increase"):
        PermGroup(4, base, gens[::-1]).prefix_orders()
    with pytest.raises(ValueError, match="levels increase"):
        PermGroup(4, base, [swaps[1], swaps[0]]).prefix_orders()


def test_cycle_string_formats():
    assert cycle_string((0, 1, 2)) == "()"
    assert cycle_string((1, 0, 2)) == "(0 1)"
    assert cycle_string((1, 2, 0, 4, 3)) == "(0 1 2)(3 4)"
    assert cycles((3, 1, 0, 2, 5, 4)) == [[0, 3, 2], [4, 5]]
    assert cycles(np.array([0, 1])) == []
    assert invert_images((1, 2, 0)) == (2, 0, 1)


def test_matrix_element_action_and_inverse():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m, elt = random_symplectic(rng, int(rng.integers(1, 4)))
        d = len(m)
        inv = elt.inverse()
        for _ in range(10):
            v = rng.integers(0, 2, size=d).astype(np.uint8)
            point = int(v @ (1 << np.arange(d, dtype=np.int64)))
            image = int((v.astype(np.int64) @ m % 2) @ (1 << np.arange(d, dtype=np.int64)))
            assert elt.act(point) == image
            assert inv.act(elt.act(point)) == point
        assert elt.compose(inv).is_identity()
        assert elt.inverse() is inv  # computed once, then kept


def test_matrix_element_act_at_dimension_66():
    # rows wider than 64 bits: compare with v @ M mod 2 on bit vectors
    rng = np.random.default_rng(66)
    m, elt = random_symplectic(rng, 33)
    d = len(m)
    for _ in range(20):
        v = rng.integers(0, 2, size=d).astype(np.uint8)
        point = sum(int(bit) << j for j, bit in enumerate(v))
        w = v.astype(np.int64) @ m % 2
        assert elt.act(point) == sum(int(bit) << j for j, bit in enumerate(w))
    assert elt.images == tuple(sum(int(b) << j for j, b in enumerate(r)) for r in m)
    # the inverse, here and past 128 bits
    for k in (33, 65):
        _, elt = random_symplectic(rng, k)
        assert elt.compose(elt.inverse()).is_identity()
        assert elt.inverse().compose(elt).is_identity()


def test_symplectic_inverse_matches_elimination():
    # omega M^T omega against the independent Gauss-Jordan gf2.invert
    rng = np.random.default_rng(24)
    for k in (1, 2, 12, 33):
        for _ in range(5):
            m, elt = random_symplectic(rng, k)
            want = gf2.invert(m)
            assert np.array_equal(gf2.symplectic_inverse(m), want)
            assert elt.inverse().images == MatrixElement.from_matrix(want).images


def test_matrix_chain_sp4_order():
    # Sp(4, 2) has order 720; two seeded random circuits generate it
    rng = np.random.default_rng(3)
    (a, elt_a), (b, elt_b) = random_symplectic(rng, 2), random_symplectic(rng, 2)
    chain = StabilizerChain(MatrixElement.identity(4), unit_vectors(4))
    chain.add(elt_a)
    chain.add(elt_b)
    assert chain.order() == len(matrix_closure([a, b])) == 720


def test_matrix_chain_symplectic_groups():
    # Sp(2, 2) from the 1-qubit H and S symplectic matrices: order 6
    h = MatrixElement.from_matrix([[0, 1], [1, 0]], ((0, 1),))
    s = MatrixElement.from_matrix([[1, 1], [0, 1]], ((1, 1),))
    chain = StabilizerChain(MatrixElement.identity(2), prescribed_base=(1, 2))
    chain.add(h)
    chain.add(s)
    assert chain.order() == 6

    # Sp(4, 2) from 2-qubit gate matrices: order 720
    gens = []
    circs = [
        CliffordCircuit(2, (Gate("H", (0,)),)),
        CliffordCircuit(2, (Gate("S", (0,)),)),
        CliffordCircuit(2, (Gate("H", (1,)),)),
        CliffordCircuit(2, (Gate("S", (1,)),)),
        CliffordCircuit(2, (Gate("CNOT", (0, 1)),)),
    ]
    chain4 = StabilizerChain(MatrixElement.identity(4), prescribed_base=unit_vectors(4))
    for i, c in enumerate(circs):
        gens.append(MatrixElement.from_matrix(c.symplectic(), ((i, 1),)))
        chain4.add(gens[-1])
    assert chain4.order() == 720

    # express a random product and recompose its word
    rng = np.random.default_rng(9)
    target = MatrixElement.identity(4)
    for idx in rng.integers(0, len(gens), size=12):
        target = target.compose(gens[int(idx)])
    elt = chain4.express(MatrixElement(target.images))
    assert elt is not None
    recomposed = MatrixElement.identity(4)
    for idx, exp in elt.word:
        g = gens[idx]
        recomposed = recomposed.compose(g if exp > 0 else g.inverse())
    assert recomposed.images == target.images

    # an invertible matrix that skews only the x block is not symplectic
    outsider = MatrixElement.from_matrix(
        [[1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    )
    assert not chain4.contains(outsider)


def test_order_bound_skips_only_sifts(monkeypatch):
    # Sp(4, 2), order 720, from H(0), S(0), CNOT(0,1) and CNOT(1,0).  On
    # the unit-vector base the order is reached inside an insertion two
    # levels deep, while the levels above still have to rebuild their trees.
    gates = [Gate("H", (0,)), Gate("S", (0,)), Gate("CNOT", (0, 1)), Gate("CNOT", (1, 0))]
    gens = [
        MatrixElement.from_matrix(CliffordCircuit(2, (g,)).symplectic(), ((i, 1),))
        for i, g in enumerate(gates)
    ]
    sifts = 0
    plain_sift = StabilizerChain.sift

    def counting_sift(chain, g):
        nonlocal sifts
        sifts += 1
        return plain_sift(chain, g)

    monkeypatch.setattr(StabilizerChain, "sift", counting_sift)
    # the _insert nesting depth at which the bound is first reached
    depth, reached_at = 0, []
    plain_insert, plain_refresh = StabilizerChain._insert, permgroup._OrderStop.refresh

    def nested_insert(chain, gen, stop):
        nonlocal depth
        depth += 1
        try:
            plain_insert(chain, gen, stop)
        finally:
            depth -= 1

    def noting_refresh(stop):
        plain_refresh(stop)
        if stop.reached and not reached_at:
            reached_at.append(depth)

    monkeypatch.setattr(StabilizerChain, "_insert", nested_insert)
    monkeypatch.setattr(permgroup._OrderStop, "refresh", noting_refresh)

    def build(bound):
        nonlocal sifts
        sifts = 0
        chain = StabilizerChain(MatrixElement.identity(4), unit_vectors(4))
        grew = [chain.add(g, bound) for g in gens]
        return chain, grew, sifts

    plain, grew, plain_sifts = build(None)
    exact, exact_grew, exact_sifts = build(720)
    assert reached_at == [2]
    loose, loose_grew, loose_sifts = build(1440)
    assert plain.order() == exact.order() == loose.order() == 720
    assert exact_grew == loose_grew == grew
    assert chain_levels(exact) == chain_levels(plain)
    assert chain_levels(loose) == chain_levels(plain)
    assert exact_sifts < plain_sifts == loose_sifts
    # a chain stopped at the order of <H(0), S(0), CNOT(0,1)>, 48, then
    # grown without a bound, sifts the skipped Schreier generators to the
    # identity and ends as the plain chain
    grown = StabilizerChain(MatrixElement.identity(4), unit_vectors(4))
    for g in gens[:3]:
        grown.add(g, 48)
    assert grown.order() == 48
    assert grown.add(gens[3])
    assert chain_levels(grown) == chain_levels(plain)


@pytest.mark.parametrize("bounded", [False, True], ids=["unbounded", "bounded"])
@pytest.mark.parametrize("k, count", [(1, 2), (2, 2), (3, 2), (6, 1)])
def test_lazy_trees_equal_eager_trees(monkeypatch, k, count, bounded):
    # two seeded elements generate Sp(2k, 2) for k <= 3; at k = 6 one
    # element, as Sp(12, 2)'s chain takes minutes, with an 84-point orbit
    rng = np.random.default_rng(40 + k)
    mats, elts = zip(*(random_symplectic(rng, k) for _ in range(count)))
    gens = [MatrixElement(e.images, ((i, 1),)) for i, e in enumerate(elts)]
    d = 2 * k

    def build(bound):
        chain = StabilizerChain(MatrixElement.identity(d), unit_vectors(d))
        for g in gens:
            chain.add(g, bound)
        return chain

    bound = build(None).order() if bounded else None
    # each level's tree as its last rebuild made it, composed eagerly
    eager = {}
    plain_rebuild = StabilizerChain._rebuild_tree

    def recording_rebuild(level):
        plain_rebuild(level)
        eager[level] = eager_tree(level)

    monkeypatch.setattr(StabilizerChain, "_rebuild_tree", recording_rebuild)
    chain = build(bound)
    # a level never rebuilt holds its base point alone
    trees = [eager.get(level, [(level.basepoint, level.identity.images, ())])
             for level in chain.levels()]
    assert [tree for _, _, tree in chain_levels(chain)] == trees
    assert len(trees[0]) > 1
    # express words of seeded members, against sifting through the eager trees
    for _ in range(10):
        m = np.eye(d, dtype=np.uint8)
        for idx in rng.integers(0, count, size=8):
            m = gf2.mat2(m, mats[int(idx)])
        elt = chain.express(MatrixElement.from_matrix(m))
        assert elt is not None and elt.word == eager_express(trees, m)
