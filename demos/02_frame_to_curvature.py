"""From an orthonormal frame to curvature, step by step.

The manifold is given only by three symbolic vector fields; declaring them
orthonormal defines the metric, and the whole curvature pipeline follows:
brackets -> structure functions -> connection -> Riemann/Ricci/scalar ->
the 3D Kulkarni-Nomizu reconstruction as a consistency check.
"""

import json

import numpy as np

from np3kit.cexpr import eval_forms, residual
from np3kit.expr import unparse
from np3kit.frame import (connection_table, curvature_values_many,
                          kulkarni_nomizu_forms, load_manifold,
                          structure_functions)

# a warped frame on x3 > 0 carrying a trans-Sasakian structure of
# non-constant type
document = {
    "name": "warped_demo",
    "coords": ["x1", "x2", "x3"],
    "frame": {
        "e1": ["exp(x3)", "0", "x2*exp(x3)"],
        "e2": ["0", "exp(x3)", "0"],
        "xi": ["0", "0", "1"],
    },
    "domain": [],
    "params": {},
}
spec = load_manifold(json.dumps(document))
print("loaded:", spec.name)

c = structure_functions(spec).c
print("\n[e1, e2] components in the frame:")
for k in range(3):
    print(f"  c^{k+1}_12 = {unparse(c[0][1][k])}")

gamma = connection_table(spec).gamma
p = (0.0, 0.0, 0.0)
print("\nconnection at the origin, nabla_{e1} xi:")
print("  coefficients:", eval_forms(gamma[0][2], [p])[0].tolist())
print("  (the paper-style warped example gives -e1 + (1/2) e^{2 x3} e2)")

# the array evaluators take (N,3) points; one point is a batch of one
(R,), (S,), (tau,) = curvature_values_many(spec, [p])
print("\nRicci at the origin:\n", np.round(S, 12))
print("scalar curvature (half-trace convention):", tau)
(kn,) = eval_forms(residual(kulkarni_nomizu_forms(spec)), [p], spec.params)
print("Kulkarni-Nomizu residual |R - g (*) (S - (tau/2) g)|:", float(kn))
