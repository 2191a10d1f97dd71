"""Automorphism search tests: known orders plus brute-force oracles."""

import tracemalloc
from itertools import permutations
from math import factorial

import numpy as np
import pytest

from autgates.autsearch import _Search, matrix_automorphisms, unique_rows
from autgates.binrep import RepKind, RowSource, row_augmented_matrix
from autgates.codes import bivariate_bicycle, load
from autgates.permgroup import PermElement
from autgates.stabilizer import StabilizerCode

from oracles import SchreierSims, base_points, dense_refine

# the check matrices of three small codes
FIVE_QUBIT = StabilizerCode.from_strings(["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"]).check_matrix
FIVE_QUBIT_CYCLIC = StabilizerCode.from_strings(
    ["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ", "ZZXIX"]
).check_matrix
STEANE = StabilizerCode.from_strings(
    ["IIIXXXX", "IXXIIXX", "XIXIXIX", "IIIZZZZ", "IZZIIZZ", "ZIZIZIZ"]
).check_matrix


def row_set(matrix, colors, images=None):
    """The set of (color, row) pairs, column j of each row moved to images[j]."""
    matrix = np.asarray(matrix)
    n = matrix.shape[1]
    images = range(n) if images is None else images
    out = set()
    for c, row in zip(colors, matrix):
        w = [0] * n
        for j in range(n):
            w[images[j]] = int(row[j])
        out.add((int(c), tuple(w)))
    return out


def brute_force_automorphisms(matrix, colors):
    """Every column permutation that maps the row set onto itself."""
    base = row_set(matrix, colors)
    return [
        perm for perm in permutations(range(np.shape(matrix)[1]))
        if row_set(matrix, colors, perm) == base
    ]


def identity_stack(n, blocks):
    return np.hstack([np.eye(n, dtype=np.uint8)] * blocks)


def test_structured_block_group_orders():
    # single-qubit Clifford group per qubit times qubit permutations
    for n in (1, 2, 3):
        res = matrix_automorphisms(identity_stack(n, 3))
        assert res.complete
        assert res.group.order() == 6**n * factorial(n)
    for n in (1, 2, 3):
        res = matrix_automorphisms(identity_stack(n, 2))
        assert res.complete
        assert res.group.order() == 2**n * factorial(n)


def test_five_qubit_h_swap_order_20():
    mat, colors = row_augmented_matrix(FIVE_QUBIT, RepKind.HSWAP, RowSource.ALL_CODEWORDS)
    res = matrix_automorphisms(mat, colors)
    assert res.complete
    assert res.group.order() == 20


def test_five_qubit_threeblock_orders():
    # the four independent checks admit the qubit swap (0 1)(2 4), which
    # maps XZZXI<->ZXIXZ and IXZZX<->XIXZZ, plus a block-mixing duality:
    # order 4 (checkable by hand on the check strings)
    mat, colors = row_augmented_matrix(FIVE_QUBIT, RepKind.THREEBLOCK, RowSource.AS_GIVEN)
    res = matrix_automorphisms(mat, colors)
    assert res.complete
    assert res.group.order() == 4
    swap_01_24 = [1, 0, 4, 3, 2]
    images = tuple(b * 5 + swap_01_24[q] for b in range(3) for q in range(5))
    assert res.group.contains(images)

    mat, colors = row_augmented_matrix(FIVE_QUBIT_CYCLIC, RepKind.THREEBLOCK, RowSource.AS_GIVEN)
    res = matrix_automorphisms(mat, colors)
    assert res.complete
    assert res.group.order() == 20

    mat, colors = row_augmented_matrix(FIVE_QUBIT, RepKind.THREEBLOCK, RowSource.ALL_CODEWORDS)
    res = matrix_automorphisms(mat, colors)
    assert res.complete
    assert res.group.order() == 360


def test_generators_preserve_rows():
    mat, colors = row_augmented_matrix(FIVE_QUBIT, RepKind.HSWAP, RowSource.ALL_CODEWORDS)
    res = matrix_automorphisms(mat, colors)
    for images in res.generators:
        assert row_set(mat, colors, images) == row_set(mat, colors)


def test_matches_brute_force_on_random_matrices():
    rng = np.random.default_rng(17)
    for trial in range(30):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 6))
        mat = rng.integers(0, 2, size=(m, n)).astype(np.uint8)
        colors = rng.integers(0, 2, size=m)
        if trial % 3 == 0:  # repeated rows
            picks = rng.integers(0, m, size=m + 2)
            mat, colors = mat[picks], colors[picks]
        ref = brute_force_automorphisms(mat, colors)
        res = matrix_automorphisms(mat, colors)
        assert res.complete
        assert res.group.order() == len(ref)
        for perm in ref:
            assert res.group.contains(perm)


def test_repeated_rows_count_once():
    # a = 1100 twice and b = 0011: as a set {a, b}, whose group also swaps
    # a with b (order 8); as a multiset, a would have to stay put (order 4)
    a, b = [1, 1, 0, 0], [0, 0, 1, 1]
    twice = matrix_automorphisms(np.array([a, a, b], np.uint8))
    once = matrix_automorphisms(np.array([a, b], np.uint8))
    assert twice.complete and once.complete
    assert twice.group.order() == once.group.order() == 8
    assert all(once.group.contains(g) for g in twice.generators)
    assert all(twice.group.contains(g) for g in once.generators)
    assert twice.group.contains((2, 3, 0, 1))
    # a row repeated in another color is another row
    res = matrix_automorphisms(np.array([a, a, b], np.uint8), [0, 1, 0])
    assert res.group.order() == 4 and not res.group.contains((2, 3, 0, 1))


def test_row_colors_restrict_matches():
    mat = np.eye(2, dtype=np.uint8)
    res = matrix_automorphisms(mat, [0, 1])
    assert res.group.order() == 1
    res = matrix_automorphisms(mat, [0, 0])
    assert res.group.order() == 2
    assert res.group.contains((1, 0))


def test_no_rows_gives_symmetric_group():
    mat = np.zeros((0, 4), dtype=np.uint8)
    res = matrix_automorphisms(mat)
    assert res.complete
    assert res.group.order() == factorial(4)


def test_node_budget_reports_incomplete():
    mat, colors = row_augmented_matrix(FIVE_QUBIT, RepKind.THREEBLOCK, RowSource.ALL_CODEWORDS)
    res = matrix_automorphisms(mat, colors, max_nodes=2)
    assert not res.complete
    assert res.group.order() >= 1
    assert res.nodes <= 3


def test_unique_rows_matches_numpy_axis0():
    rng = np.random.default_rng(17)
    lo, hi = np.iinfo(np.int64).min, np.iinfo(np.int64).max
    cases = [np.zeros((0, 3), dtype=np.int64), np.array([[lo], [hi], [0], [-1], [lo]])]
    for rows, cols, span in [(1, 1, 3), (40, 1, 5), (60, 3, 3), (200, 7, 2), (50, 4, 1000)]:
        cases.append(rng.integers(-span, span + 1, (rows, cols)))
    edges = rng.choice([lo, lo + 1, -1, 0, 1, hi - 1, hi], (80, 3))
    cases += [edges, np.vstack([edges, edges[::-1]])]
    for a in cases:
        want = np.unique(a, axis=0, return_inverse=True, return_counts=True)
        got = unique_rows(a, return_inverse=True, return_counts=True)
        assert len(got) == 3
        for w, g in zip(want, got):
            assert g.shape == w.shape and np.array_equal(g, w)
        keys, counts = unique_rows(a, return_counts=True)
        assert np.array_equal(keys, want[0]) and np.array_equal(counts, want[2])


def refine_cases(rng, count):
    """(matrix, row colors, starting cell_id): edge cases, then random ones."""
    z = np.zeros
    cases = [
        (z((0, 5), np.uint8), z(0), np.array([0, 0, 1, 1, 1])),  # no rows
        (np.ones((4, 1), np.uint8), [0, 1, 0, 1], [0]),  # one column
        (z((6, 1), np.uint8), z(6), [0]),
        (z((3, 4), np.uint8), z(3), [0, 1, 0, 1]),  # all zero
        (np.array([[1, 1, 0], [1, 1, 0], [0, 0, 0], [0, 1, 1]], np.uint8), z(4), z(3, int)),
    ]
    while len(cases) < count:
        r, c = int(rng.integers(0, 41)), int(rng.integers(1, 41))
        m = (rng.random((r, c)) < 0.5 * rng.random()).astype(np.uint8)
        if r and rng.random() < 0.3:
            m = m[rng.integers(0, r, size=r)]  # repeated rows
        m[rng.random(r) < 0.2 * rng.random()] = 0  # all-zero rows
        m[:, rng.random(c) < 0.2 * rng.random()] = 0  # all-zero columns
        colors = rng.integers(0, rng.integers(1, 4), size=r)
        labels = rng.integers(0, rng.integers(1, c + 1), size=c)
        cases.append((m, colors, np.unique(labels, return_inverse=True)[1]))
    return cases


def relabeled(rng, case):
    """The case with rows and columns permuted, and maybe one bit flipped."""
    m, colors, cell_id = case
    rows, cols = rng.permutation(m.shape[0]), rng.permutation(m.shape[1])
    m = m[rows][:, cols].copy()
    if m.size and rng.random() < 0.5:
        m[rng.integers(0, m.shape[0]), rng.integers(0, m.shape[1])] ^= 1
    return m, np.asarray(colors)[rows], np.asarray(cell_id)[cols]


def test_refine_matches_dense_oracle():
    rng = np.random.default_rng(29)
    cases = refine_cases(rng, 200)
    cases += [relabeled(rng, case) for case in cases]
    sparse, dense = [], []
    for m, colors, cell_id in cases:
        want = dense_refine(m, colors, cell_id)
        got = _Search(m, colors, None, None)._refine(np.asarray(cell_id, dtype=np.int64))
        assert np.array_equal(got[0], want[0]) and got[1] == want[1]
        sparse.append(got[2])
        dense.append(want[2])
    equal_pairs = 0
    for i in range(len(cases)):
        for j in range(i):
            assert (sparse[i] == sparse[j]) == (dense[i] == dense[j])
            equal_pairs += dense[i] == dense[j]
    assert equal_pairs >= 50


def test_cycle_incidence_search_stays_small():
    """Vertices of a 300-cycle as columns, its edges as rows: the dihedral group."""
    n = 300
    m = np.zeros((n, n), dtype=np.uint8)
    m[np.arange(n), np.arange(n)] = 1
    m[np.arange(n), (np.arange(n) + 1) % n] = 1
    tracemalloc.start()
    try:
        res = matrix_automorphisms(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.complete and res.group.order() == 2 * n
    assert peak < 3 * 2**20


def assert_group_is_bsgs(res, rng, samples=20):
    """res.group against a plain Schreier-Sims of res.generators on its base.

    The search's group is built from its generators as a base and strong
    generating set, with no closure; the oracle's Schreier-Sims, sharing
    no code with the chain, gives the group they generate.  Orders and
    membership must agree, and each level's strong generators must fix
    the base points above it.  So must the order of the group each prefix
    of the generators generates.
    """
    degree = len(res.group.chain.identity.images)
    base = base_points(res.group.chain)
    node = res.group.chain
    for depth in range(len(base)):
        for g in node.strong_generators():
            assert all(g.act(b) == b for b in base[:depth])
        node = node.stab
    ref = SchreierSims(degree, res.generators, base)
    assert tuple(ref.base) == base  # the search's base is complete
    assert res.group.order() == ref.order()
    assert res.group.prefix_orders() == [
        SchreierSims(degree, res.generators[:j], base).order()
        for j in range(1, len(res.generators) + 1)
    ]
    gens = [PermElement(images) for images in res.generators]
    for _ in range(samples):
        elt = PermElement.identity(degree)
        for idx in rng.integers(0, len(gens), size=8) if gens else ():
            elt = elt.compose(gens[int(idx)])
        a, b = rng.choice(degree, size=2, replace=False) if degree > 1 else (0, 0)
        swap = list(range(degree))
        swap[a], swap[b] = b, a
        for images in (elt.images, elt.compose(PermElement(swap)).images,
                       tuple(int(i) for i in rng.permutation(degree))):
            assert res.group.contains(images) == ref.contains(images)


@pytest.mark.parametrize("code", ["n4k2d2", "n5k1d3", "steane"])
def test_search_group_is_bsgs_small_codes(code):
    rows = STEANE if code == "steane" else load(code).check_matrix
    rng = np.random.default_rng(5)
    for kind in RepKind:
        for source in RowSource:
            res = matrix_automorphisms(*row_augmented_matrix(rows, kind, source))
            assert res.complete
            assert_group_is_bsgs(res, rng)


@pytest.mark.parametrize("name", ["bb72", "gross"])
def test_search_group_is_bsgs_large_codes(name):
    if name == "bb72":
        code = load("bb72")
    else:
        code = bivariate_bicycle(12, 6, [(3, 0), (0, 1), (0, 2)], [(0, 3), (1, 0), (2, 0)])
    rng = np.random.default_rng(7)
    for kind in (RepKind.HSWAP, RepKind.THREEBLOCK):
        res = matrix_automorphisms(*row_augmented_matrix(code.check_matrix, kind))
        assert res.complete and res.group.order() > 1
        assert_group_is_bsgs(res, rng, samples=5)


def test_search_group_is_bsgs_random_matrices():
    rng = np.random.default_rng(23)
    for trial in range(30):
        n = int(rng.integers(1, 11))
        m = int(rng.integers(0, 8))
        mat = rng.integers(0, 2, size=(m, n)).astype(np.uint8)
        colors = rng.integers(0, 3, size=m)
        res = matrix_automorphisms(mat, colors)
        assert res.complete
        assert_group_is_bsgs(res, rng)


def test_budget_stop_keeps_a_bsgs():
    mat, colors = row_augmented_matrix(STEANE, RepKind.THREEBLOCK, RowSource.ALL_CODEWORDS)
    rng = np.random.default_rng(3)
    for max_nodes in (1, 3, 6, 10, 20):
        res = matrix_automorphisms(mat, colors, max_nodes=max_nodes)
        assert not res.complete
        assert_group_is_bsgs(res, rng)
