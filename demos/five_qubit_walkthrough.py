"""
Logical gates of the five-qubit code from qubit permutations
============================================================

Walks the full pipeline on the [[5,1,3]] code: standard form, the
H+SWAP automorphism group of its codewords, and synthesis of logical
S and Gamma circuits with their exact Pauli corrections.
"""

import numpy as np

from autgates import (
    RepKind,
    RowSource,
    discover_gates,
    load,
    parse_target,
    synthesize,
    tableau,
    verify_preserves_stabilizers,
)
from autgates.pauli import PhasedPauli

code = load("n5k1d3")
print("checks:")
for p in code.checks:
    print(" ", p.to_string())

# the tableau keeps the standard form it was built from: identity block
# on the left, logicals read off the blocks
t = tableau(code)
sf = t.standard_form
print("\nstandard form (r=%d s=%d k=%d):" % (sf.r, sf.s, sf.k))
for row in sf.unpermute(sf.g_std):
    x, z = row[:5], row[5:]
    print("  %s|%s" % ("".join(map(str, x)), "".join(map(str, z))))

print("logical X:", PhasedPauli.from_vector(t.tau[t.logical_x_rows][0]).to_string())
print("logical Z:", PhasedPauli.from_vector(t.tau[t.logical_z_rows][0]).to_string())

# H+SWAP search over all codewords of the associated binary code: the
# automorphism group has order 20 and one generator acts as logical H
d = discover_gates(code, RepKind.HSWAP, RowSource.ALL_CODEWORDS)
print("\nH+SWAP automorphism group: order %d" % d.search.group.order())
for g in d.gates:
    print("  circuit: %s" % g.circuit)
    print("    correction: %s  action: %s" % (
        g.report.pauli_correction.to_string(),
        ";".join("".join(map(str, r)) for r in g.report.u_act),
    ))

# the three-block search sees S- and Gamma-type single-qubit gates too,
# enough to generate every single-qubit logical Clifford
d3 = discover_gates(code, RepKind.THREEBLOCK, RowSource.ALL_CODEWORDS)
print("\nthree-block action group: order %d" % d3.group.order())

for name in ("S(0)", "GAMMA(0)"):
    result = synthesize(d3.group, parse_target(name, 1), t)
    assert verify_preserves_stabilizers(t, result.corrected)
    print("\nlogical %s:" % name)
    print("  circuit: %s" % result.circuit)
    print("  correction: %s" % result.report.pauli_correction.to_string())
