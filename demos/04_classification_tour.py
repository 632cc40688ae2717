"""Classification tour of the built-in catalog.

A unit field xi is trans-Sasakian exactly when its congruence is geodesic
and shear-free; rho = beta + i alpha then carries the type, and the
subclasses are read off from which of alpha, beta vanish or are constant.
"""

import numpy as np

from np3kit import catalog
from np3kit.classify import (classify, conformal_foliation_residual_many,
                             einstein_check, ts_identity_residuals_many)
from np3kit.frame import default_samples

print(f"{'entry':18s} {'verdict':16s} {'alpha (mean+-dev)':24s} beta (mean+-dev)")
for name in catalog.names():
    spec = catalog.get_spec(name)
    cls = classify(spec)
    am, ad = cls.alpha_summary
    bm, bd = cls.beta_summary
    print(f"{name:18s} {cls.verdict:16s} {am:+.4f} +- {ad:.1e}     {bm:+.4f} +- {bd:.1e}")

print("\ntrans-Sasakian curvature identities on example2 (worst over 100 pts):")
spec = catalog.get_spec("example2")
pts = default_samples(spec, 100, seed=0)
res = ts_identity_residuals_many(spec, pts)
for rname, vals in res.items():
    print(f"  {rname:18s} {float(np.max(vals)):.2e}")

print("\nconformal-foliation defect (zero iff shear-free):")
for name in ("example1", "sol"):
    (value,) = conformal_foliation_residual_many(catalog.get_spec(name), [(0.1, 0.2, 0.0)])
    print(f"  {name:10s} {value:.3f}")
print("  (Sol's vertical field has shear -1, so the defect is 2|sigma| = 2)")

print("\nEinstein checks:")
for name in ("kenmotsu", "sasakian", "flat_cosymplectic"):
    ev = einstein_check(catalog.get_spec(name))
    print(f"  {name:18s} is_einstein={ev.is_einstein}  a={ev.a:+.3f}")
