"""Tests for the bundled code corpus and the bivariate bicycle builder."""

import numpy as np
import pytest

from autgates.codes import _cyclic_shift, bivariate_bicycle, corpus_names, corpus_path, load
from autgates.errors import ParseError
from autgates.stabilizer import tableau

BB72_A = [(3, 0), (0, 1), (0, 2)]
BB72_B = [(0, 3), (1, 0), (2, 0)]


def test_corpus_names():
    assert corpus_names() == ["bb72", "n4k2d2", "n5k1d3"]


def test_corpus_path_unknown_name():
    with pytest.raises(ParseError, match="bb72"):
        corpus_path("nope")


def test_load_n5k1d3():
    code = load("n5k1d3")
    assert code.n == 5
    assert [p.to_string() for p in code.checks] == ["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"]
    assert tableau(code).k == 1


def test_load_n4k2d2():
    code = load("n4k2d2")
    assert code.n == 4
    assert [p.to_string() for p in code.checks] == ["XXXX", "ZZZZ"]
    assert tableau(code).k == 2


def test_bicycle_small_hand_worked():
    # l = m = 2 with A = x and B = y.  The monomial x is the 2-cycle on the
    # first index, y on the second, so each check touches exactly two qubits.
    code = bivariate_bicycle(2, 2, [(1, 0)], [(0, 1)])
    assert code.n == 8
    assert [p.to_string() for p in code.checks] == [
        "IIXIIXII",
        "IIIXXIII",
        "XIIIIIIX",
        "IXIIIIXI",
        "IZIIIIZI",
        "ZIIIIIIZ",
        "IIIZZIII",
        "IIZIIZII",
    ]


def test_cyclic_shift_matches_loop():
    # the reference loop: row i has its one in column (i + power) mod dim
    for dim in range(1, 8):
        for power in range(-dim - 1, 2 * dim + 1):
            want = np.zeros((dim, dim), dtype=np.uint8)
            for i in range(dim):
                want[i, (i + power) % dim] = 1
            assert np.array_equal(_cyclic_shift(dim, power), want)


def test_bb72_file_matches_builder():
    built = bivariate_bicycle(6, 6, BB72_A, BB72_B)
    shipped = load("bb72")
    assert shipped.n == built.n == 72
    assert [p.to_string() for p in shipped.checks] == [p.to_string() for p in built.checks]


def test_bb72_structure():
    code = load("bb72")
    assert len(code.checks) == 72
    for i, p in enumerate(code.checks):
        x, z = p.vector()[:72], p.vector()[72:]
        # CSS: first 36 rows pure X, last 36 pure Z, all weight 6.
        if i < 36:
            assert int(x.sum()) == 6 and not z.any()
        else:
            assert int(z.sum()) == 6 and not x.any()
    assert tableau(code).k == 12


def test_bb72_checks_span_rank_60():
    code = load("bb72")
    rows = np.vstack([p.vector() for p in code.checks]).astype(np.uint8)
    # Over-complete set: 72 rows but rank 60, leaving k = 12.
    r = 0
    work = rows.copy()
    for col in range(work.shape[1]):
        pivot = None
        for i in range(r, work.shape[0]):
            if work[i, col]:
                pivot = i
                break
        if pivot is None:
            continue
        work[[r, pivot]] = work[[pivot, r]]
        for i in range(work.shape[0]):
            if i != r and work[i, col]:
                work[i] ^= work[r]
        r += 1
    assert r == 60
