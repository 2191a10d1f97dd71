import random

import numpy as np
import pytest

from autgates.circuits import ONE_QUBIT_GATES, TWO_QUBIT_GATES, CliffordCircuit, Gate
from autgates.errors import (
    InconsistentSignsError,
    NonCommutingChecksError,
    ParseError,
)
from autgates.gf2 import mat2, rank, rref, symplectic_form
from autgates.pauli import PhasedPauli
from autgates.stabilizer import (
    StabilizerCode,
    destabilizers,
    logical_paulis,
    parse_code_file,
    standard_form,
    tableau,
)

FIVE_QUBIT = ["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"]
FOUR_TWO_TWO = ["XXXX", "ZZZZ"]

# frozen expected standard form of the five-qubit code under leftmost pivots
FIVE_QUBIT_STD = np.array(
    [
        [1, 0, 0, 0, 1, 1, 1, 0, 1, 1],
        [0, 1, 0, 0, 1, 0, 0, 1, 1, 0],
        [0, 0, 1, 0, 1, 1, 1, 0, 0, 0],
        [0, 0, 0, 1, 1, 1, 0, 1, 1, 1],
    ],
    dtype=np.uint8,
)
FIVE_QUBIT_LX = np.array([[0, 0, 0, 0, 1, 1, 0, 0, 1, 0]], dtype=np.uint8)
FIVE_QUBIT_LZ = np.array([[0, 0, 0, 0, 0, 1, 1, 1, 1, 1]], dtype=np.uint8)


def test_five_qubit_check_matrix():
    code = StabilizerCode.from_strings(FIVE_QUBIT)
    want = np.array(
        [
            [1, 0, 0, 1, 0, 0, 1, 1, 0, 0],
            [0, 1, 0, 0, 1, 0, 0, 1, 1, 0],
            [1, 0, 1, 0, 0, 0, 0, 0, 1, 1],
            [0, 1, 0, 1, 0, 1, 0, 0, 0, 1],
        ],
        dtype=np.uint8,
    )
    assert np.array_equal(code.check_matrix, want)


def test_five_qubit_standard_form_entrywise():
    sf = standard_form(StabilizerCode.from_strings(FIVE_QUBIT))
    assert (sf.r, sf.s, sf.k) == (4, 0, 1)
    assert np.array_equal(sf.qubit_perm, np.arange(5))
    assert np.array_equal(sf.g_std, FIVE_QUBIT_STD)
    lx, lz = logical_paulis(sf)
    assert np.array_equal(lx, FIVE_QUBIT_LX)
    assert np.array_equal(lz, FIVE_QUBIT_LZ)
    # the logical X is Z I I Z X, the logical Z is Z Z Z Z Z
    assert PhasedPauli.from_vector(lx[0]).to_string() == "ZIIZX"
    assert PhasedPauli.from_vector(lz[0]).to_string() == "ZZZZZ"


def test_five_qubit_destabilizers():
    sf = standard_form(StabilizerCode.from_strings(FIVE_QUBIT))
    d = destabilizers(sf)
    want = np.zeros((4, 10), dtype=np.uint8)
    want[:, 5:9] = np.eye(4, dtype=np.uint8)
    assert np.array_equal(d, want)


def test_standard_form_rowspan_invariant_under_overcompletion():
    code = StabilizerCode.from_strings(FIVE_QUBIT)
    extra = code.checks[0].multiply(code.checks[2])
    over = StabilizerCode(code.checks + [extra, code.checks[1]])
    a = standard_form(code)
    b = standard_form(over)
    ra = rref(a.g_std)[0]
    rb = rref(b.g_std)[0]
    assert np.array_equal(ra, rb)
    assert np.array_equal(a.g_std, b.g_std)


def test_tableau_is_symplectic_with_anticommuting_pairs():
    for strings in [FIVE_QUBIT, FOUR_TWO_TWO, ["XX", "ZZ"], ["ZI"]]:
        code = StabilizerCode.from_strings(strings)
        t = tableau(code)
        n = t.n
        omega = symplectic_form(n)
        assert np.array_equal(mat2(mat2(t.tau, omega), t.tau.T), omega)
        # row j pairs with row (j + n) % 2n and commutes with everything else
        prod = mat2(mat2(t.tau, omega), t.tau.T)
        for i in range(2 * n):
            for j in range(2 * n):
                expected = 1 if j == (i + n) % (2 * n) else 0
                assert prod[i, j] == expected


def test_tableau_single_z_check():
    t = tableau(StabilizerCode.from_strings(["Z"]))
    assert t.k == 0
    assert np.array_equal(t.tau, [[0, 1], [1, 0]])


def test_tableau_no_checks():
    t = tableau(StabilizerCode([], n=3))
    assert t.k == 3
    assert np.array_equal(t.tau, np.eye(6, dtype=np.uint8))


def test_four_two_two_logicals():
    code = StabilizerCode.from_strings(FOUR_TWO_TWO)
    sf = standard_form(code)
    assert (sf.r, sf.s, sf.k) == (1, 1, 2)
    lx, lz = logical_paulis(sf)
    assert [PhasedPauli.from_vector(v).to_string() for v in lz] == ["ZIZI", "ZIIZ"]
    # logical X rows are stabilizer-equivalent to X I I X and X I X I
    xxxx = code.checks[0]
    got = [PhasedPauli.from_vector(v) for v in lx]
    assert got[0].multiply(xxxx).to_string() in ("XIIX", "IXXI")
    for a, b in zip(got, [PhasedPauli.from_vector(v) for v in lz]):
        assert not a.commutes_with(b)


def test_signed_checks_carry_into_tableau_phases():
    code = StabilizerCode.from_strings(["-ZI", "IZ"])
    t = tableau(code)
    assert list(t.phases[:2]) == [2, 0]
    assert t.row_pauli(0).to_string() == "-ZI"


def test_anticommuting_checks_rejected():
    with pytest.raises(NonCommutingChecksError) as err:
        StabilizerCode.from_strings(["XX", "ZI"])
    assert err.value.rows == (0, 1)
    # the first clashing pair in row-major order, not the first in j
    with pytest.raises(NonCommutingChecksError) as err:
        StabilizerCode.from_strings(["ZZ", "ZI", "XI", "IX"])
    assert err.value.rows == (0, 2)


def test_inconsistent_signs_rejected():
    with pytest.raises(InconsistentSignsError):
        standard_form(StabilizerCode.from_strings(["XX", "-XX"]))


def test_parse_code_file():
    text = "# five qubit code\nn=5\nXZZXI\nIXZZX\nXIXZZ\nZXIXZ\n"
    code = parse_code_file(text)
    assert code.n == 5 and len(code.checks) == 4
    assert parse_code_file("n=4\n# nothing else").n == 4
    with pytest.raises(ParseError):
        parse_code_file("# only a comment\n")
    with pytest.raises(ParseError):
        parse_code_file("")
    with pytest.raises(ParseError):
        parse_code_file("n=0\n")
    with pytest.raises(ParseError):
        parse_code_file("XZ\nn=2\nZZ")  # header must come first


def test_random_css_codes_roundtrip():
    rng = random.Random(41)
    for _ in range(20):
        n = rng.randrange(3, 8)
        # random commuting set: Z-type rows plus X-type rows orthogonal to them
        zrows = [[rng.randrange(2) for _ in range(n)] for _ in range(rng.randrange(1, 3))]
        checks = [PhasedPauli(0, [0] * n, z) for z in zrows]
        for _ in range(4):
            x = [rng.randrange(2) for _ in range(n)]
            if all(sum(a * b for a, b in zip(x, z)) % 2 == 0 for z in zrows):
                checks.append(PhasedPauli(0, x, [0] * n))
        code = StabilizerCode(checks)
        t = tableau(code)
        omega = symplectic_form(n)
        assert np.array_equal(mat2(mat2(t.tau, omega), t.tau.T), omega)
        # stabilizer rowspan preserved
        orig = rref(code.check_matrix)[0]
        got = rref(t.stabilizers)[0]
        nz = orig[orig.any(axis=1)]
        assert np.array_equal(nz, got[got.any(axis=1)] if got.size else got)


def random_signed_code(rng, n):
    """Signed Z_i checks pushed through a random Clifford circuit, plus
    dependent products, shuffled.

    Every image is kept, also those with an odd number of Y factors (odd
    phase exponent X before Z): they are Hermitian, and StabilizerCode
    accepts them.
    """
    gates = []
    for _ in range(rng.randrange(4 * n + 1)):
        if n > 1 and rng.random() < 0.4:
            gates.append(Gate(rng.choice(TWO_QUBIT_GATES), tuple(rng.sample(range(n), 2))))
        else:
            gates.append(Gate(rng.choice(ONE_QUBIT_GATES), (rng.randrange(n),)))
    circ = CliffordCircuit(n, tuple(gates))
    z = [PhasedPauli(2 * rng.randrange(2), [0] * n, np.eye(n)[i]) for i in range(n)]
    checks = [circ.conjugate(p) for p in z[: rng.randrange(n + 1)]]
    for _ in range(rng.randrange(4) if checks else 0):
        prod = PhasedPauli.identity(n)
        for p in rng.sample(checks, rng.randrange(1, len(checks) + 1)):
            prod = prod.multiply(p)
        checks.append(prod)
    rng.shuffle(checks)
    return checks


def test_standard_form_of_random_signed_codes():
    rng = random.Random(2024)
    seen_s = 0
    for _ in range(150):
        n = rng.randrange(1, 9)
        checks = random_signed_code(rng, n)
        code = StabilizerCode(checks, n=n)
        sf = standard_form(code)
        r, s, k = sf.r, sf.s, sf.k
        g = code.check_matrix
        assert (r, r + s, k) == (rank(g[:, :n]), rank(g), n - r - s)
        seen_s += s > 0
        gx, gz = sf.g_std[:, :n], sf.g_std[:, n:]
        assert np.array_equal(gx[:r, :r], np.eye(r))
        assert not gz[:r, r : r + s].any()
        assert not gx[r:].any()
        assert np.array_equal(gz[r:, r : r + s], np.eye(s))
        assert sorted(sf.qubit_perm) == list(range(n))
        # each check is, with its sign, the product of the rows its own
        # X bits (at the r pivots) and Z bits (at the s pivots) select
        rows = [PhasedPauli.from_vector(v, ph) for v, ph in zip(sf.unpermute(sf.g_std), sf.phases)]
        for c in checks:
            x, z = c.x[sf.qubit_perm], c.z[sf.qubit_perm]
            prod = PhasedPauli.identity(n)
            for row, bit in zip(rows, np.concatenate([x[:r], z[r : r + s]])):
                if bit:
                    prod = prod.multiply(row)
            assert prod == c
        if checks:
            flipped = checks + [PhasedPauli(checks[0].phase + 2, checks[0].x, checks[0].z)]
            with pytest.raises(InconsistentSignsError):
                standard_form(StabilizerCode(flipped, n=n))
    assert seen_s > 20
