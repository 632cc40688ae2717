"""Rough Laplacian, divergence and harmonicity of the structure field.

Each quantity is computed from its real-frame definition and from the
spin-coefficient closed form; the two routes agree to roundoff.  The flags
(parallel, harmonic, collinear with the Laplacian) are sample-verified.
"""

import math

import numpy as np

from np3kit import catalog
from np3kit.cexpr import eval_forms, residual
from np3kit.frame import default_samples
from np3kit.xi import divergence_xi, parallel_and_collinearity, rough_laplacian_xi

spec = catalog.get_spec("kenmotsu")
lap = rough_laplacian_xi(spec)
p = (0.2, -0.5, 0.3)
print("kenmotsu: Delta xi at a point (frame components):",
      [round(c, 12) for c in eval_forms(lap.generic, [p], spec.params)[0].tolist()])
print("  (Sasakian and Kenmotsu both give Delta xi = 2 xi)")
pts = default_samples(spec, 50, seed=0)
routes = residual([a - b for a, b in zip(lap.generic, lap.np_closed)])
print("  two-route discrepancy over 50 samples:",
      f"{np.max(eval_forms(routes, pts, spec.params)):.2e}")

div = divergence_xi(spec)
print("  div xi =", eval_forms(div.direct, [p], spec.params)[0], "(Kenmotsu: 2 Theta = 2)")

print("\nharmonicity residual (reduces to D(rho) on trans-Sasakian specs):")
for name, point in [("kenmotsu", p), ("c6", (1.0, 0.3, 0.0)), ("example1", (0.3, 0.7, 0.1))]:
    entry = catalog.get_spec(name)
    # the transverse part of Delta xi - |nabla xi|^2 xi, as -conj of one complex scalar
    x, y = eval_forms(rough_laplacian_xi(entry).np_closed[:2], [point], entry.params)[0]
    print(f"  {name:10s} |residual| = {abs(complex(x, y) / math.sqrt(2.0)):.3e}")

print("\ncongruence flags across the catalog:")
header = f"{'entry':18s} geod shear-free twist-free expansion      parallel harmonic collinear"
print(header)
for name in catalog.names():
    rep = parallel_and_collinearity(catalog.get_spec(name))
    print(f"{name:18s} {str(rep.is_geodesic):5s}{str(rep.is_shear_free):11s}"
          f"{str(rep.is_twist_free):11s}{rep.expansion:15s}"
          f"{str(rep.is_parallel):9s}{str(rep.is_harmonic):9s}{rep.is_collinear}")
