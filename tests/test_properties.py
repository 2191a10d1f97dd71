"""Pipeline properties on seeded random codes, checked by independent oracles.

The codes come from signed Z checks pushed through random Clifford
circuits (random_signed_code), on at most 5 qubits so that the dense
oracle stays small.  For every representation:

- each automorphism that the search finds from the given rows is also an
  automorphism of the full codeword set, Aut(given) <= Aut(codewords);
- each discovered gate keeps every stabilizer, sign included
  (verify_preserves_stabilizers), and acts on the code space as its
  reported logical action says (the dense-unitary oracle);
- the action chain that discover_gates bounds by the carried kernel is
  the chain built without bounds, and its order is that of the brute-force
  closure of the actions.
"""

import random

import pytest

from autgates.autsearch import matrix_automorphisms
from autgates.binrep import RepKind, RowSource, row_augmented_matrix
from autgates.cliffordmap import corrected_circuit, verify_preserves_stabilizers
from autgates.gf2 import rank
from autgates.logsearch import LogicalActionGroup, discover_gates
from autgates.stabilizer import StabilizerCode, tableau

from oracles import chain_levels, dense_logical_action_holds, matrix_closure
from test_logsearch import plain_chain
from test_stabilizer import random_signed_code


def random_codes(seed, count):
    """count random codes on 2 to 5 qubits with at least one independent check."""
    rng = random.Random(seed)
    codes = []
    while len(codes) < count:
        n = rng.randrange(2, 6)
        code = StabilizerCode(random_signed_code(rng, n), n=n)
        if rank(code.check_matrix):
            codes.append(code)
    return codes


CODES = random_codes(606, 10)


@pytest.mark.parametrize("kind", list(RepKind), ids=lambda kind: kind.value)
def test_given_row_automorphisms_keep_every_codeword(kind):
    for code in CODES:
        given = matrix_automorphisms(*row_augmented_matrix(code.check_matrix, kind, RowSource.AS_GIVEN))
        codewords = matrix_automorphisms(*row_augmented_matrix(code.check_matrix, kind, RowSource.ALL_CODEWORDS))
        assert given.complete and codewords.complete
        for images in given.generators:
            assert codewords.group.contains(images)
        assert codewords.group.order() % given.group.order() == 0


@pytest.mark.parametrize("kind", list(RepKind), ids=lambda kind: kind.value)
def test_discovered_gates_pass_the_dense_oracle(kind):
    gates = 0
    for code in CODES:
        t = tableau(code)
        logicals = [t.row_pauli(i) for i in [*t.logical_x_rows, *t.logical_z_rows]]
        for rows in (RowSource.AS_GIVEN, RowSource.ALL_CODEWORDS):
            for gate in discover_gates(code, kind, rows).gates:
                circ = corrected_circuit(gate.report, gate.circuit)
                assert verify_preserves_stabilizers(t, circ)
                assert dense_logical_action_holds(circ, code.checks, logicals, gate.report.u_act)
                gates += 1
    assert gates > 0


@pytest.mark.parametrize("kind", list(RepKind), ids=lambda kind: kind.value)
def test_kernel_bounds_keep_the_action_chain(kind, monkeypatch):
    bounds = []
    add = LogicalActionGroup.add

    def recorded(self, u_act, circuit, bound=None):
        bounds.append(bound)
        return add(self, u_act, circuit, bound)

    monkeypatch.setattr(LogicalActionGroup, "add", recorded)
    lowered = 0
    for code in CODES:
        for rows in (RowSource.AS_GIVEN, RowSource.ALL_CODEWORDS):
            bounds.clear()
            found = discover_gates(code, kind, rows)
            group = found.group
            actions = [u for u, _ in group.generators]
            assert chain_levels(group._chain) == chain_levels(plain_chain(group))
            assert group.order() == (len(matrix_closure(actions)) if actions and group.k else 1)
            # a kernel carried from an earlier prefix lowers a later bound
            lowered += any(b < order for b, order in zip(bounds, found.search.group.prefix_orders()))
    assert lowered > 0
