import itertools
import random
import re

import numpy as np
import pytest

from autgates.errors import LengthMismatchError, ParseError
from autgates.pauli import PhasedPauli, row_products

from oracles import decode_pauli, dense_pauli, pauli_identity, pauli_product, paulis_commute


def test_string_roundtrip():
    for s in ["XIZ", "-XYZ", "iY", "-iZZ", "IIII", "+X"]:
        p = PhasedPauli.from_string(s)
        q = PhasedPauli.from_string(p.to_string())
        assert p == q


def test_y_contributes_i_and_binary_ones():
    p = PhasedPauli.from_string("Y")
    assert p.phase == 1 and p.x[0] == 1 and p.z[0] == 1
    assert p.to_string() == "Y"


def test_parse_rejects_garbage():
    for s in ["", "A", "X Y", "--X", "j X"]:
        with pytest.raises(ParseError):
            PhasedPauli.from_string(s)


def per_letter_parse(s):
    """Reference: the letter-by-letter rule, one Y adding one i each."""
    m = re.match(r"^([-+]?i?)([IXYZ]+)$", s.strip())
    if not m:
        raise ParseError(f"bad Pauli string: {s!r}")
    prefix, letters = m.groups()
    phase = {"": 0, "+": 0, "+i": 1, "i": 1, "-": 2, "-i": 3}[prefix]
    x, z = [], []
    for ch in letters:
        x.append(ch in "XY")
        z.append(ch in "ZY")
        phase += ch == "Y"
    return PhasedPauli(phase, x, z)


def test_parse_agrees_with_per_letter_rule():
    for length in range(1, 5):
        for letters in itertools.product("IXYZ", repeat=length):
            for prefix in ("", "+", "+i", "-", "-i", "i"):
                s = prefix + "".join(letters)
                assert PhasedPauli.from_string(s) == per_letter_parse(s), s
    for s in ["", " ", "+", "-i", "i", "A", "x", "XQ", "X Y", "--X", "ii X", "+iiX", "j X",
              "-+X", "XYZ!", "Xi", "XΥ", "Ｘ", "X\nY"]:
        with pytest.raises(ParseError) as want:
            per_letter_parse(s)
        with pytest.raises(ParseError) as got:
            PhasedPauli.from_string(s)
        assert str(got.value) == str(want.value)


def test_product_oracle_matches_dense_oracle():
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randrange(1, 4)
        p = PhasedPauli(rng.randrange(4), [rng.randrange(2) for _ in range(n)],
                        [rng.randrange(2) for _ in range(n)])
        q = PhasedPauli(rng.randrange(4), [rng.randrange(2) for _ in range(n)],
                        [rng.randrange(2) for _ in range(n)])
        got = pauli_product([p, q], n)
        want = decode_pauli(dense_pauli(p) @ dense_pauli(q), n)
        assert got == want


def test_known_products():
    X = PhasedPauli.from_string("X")
    Y = PhasedPauli.from_string("Y")
    Z = PhasedPauli.from_string("Z")
    for p, q, want in [(X, Y, "iZ"), (Y, X, "-iZ"), (Z, X, "iY"), (X, X, "I")]:
        assert pauli_product([p, q], 1) == PhasedPauli.from_string(want)
        phases, rows = row_products([p.phase, q.phase], [p.vector(), q.vector()], [[1, 1]])
        assert PhasedPauli.from_vector(rows[0], int(phases[0])) == PhasedPauli.from_string(want)
    assert pauli_product([X, X], 1) == pauli_identity(1)


def test_commutation_oracle_and_length_mismatch():
    X = PhasedPauli.from_string("XX")
    Z = PhasedPauli.from_string("ZZ")
    ZI = PhasedPauli.from_string("ZI")
    assert paulis_commute(X, Z)
    assert not paulis_commute(X, ZI)
    with pytest.raises(LengthMismatchError):
        PhasedPauli(0, [1, 0], [1])


def test_vector_roundtrip():
    p = PhasedPauli.from_string("-XYZI")
    q = PhasedPauli.from_vector(p.vector(), phase=p.phase)
    assert p == q
    assert np.array_equal(p.vector()[:4], p.x)


def test_row_products_match_pairwise_product_oracle():
    rng = np.random.RandomState(17)
    anticommuting = 0
    for _ in range(40):
        n, m = rng.randint(1, 5), rng.randint(1, 7)
        phases = rng.randint(4, size=m)
        rows = rng.randint(0, 2, size=(m, 2 * n))
        coeffs = rng.randint(0, 2, size=(5, m))
        paulis = [PhasedPauli.from_vector(row, int(ph)) for ph, row in zip(phases, rows)]
        got_phases, got_rows = row_products(phases, rows, coeffs)
        for c, phase, row in zip(coeffs, got_phases, got_rows):
            chosen = [paulis[j] for j in np.nonzero(c)[0]]
            want = pauli_product(chosen, n)
            assert PhasedPauli.from_vector(row, int(phase)) == want
            anticommuting += sum(
                not paulis_commute(p, q) for i, p in enumerate(chosen) for q in chosen[i + 1 :]
            )
    assert anticommuting > 0
