"""Rigidity on the homogeneous fibered geometries, and the Sol obstruction.

Fix the homogeneous metric of E(kappa, tau) and ask which unit fields can
carry a compatible trans-Sasakian structure.  ``ektau.spec`` builds Daniel's
chart frame, tilted or not, for the pipeline.  On the vertical field
rho_np = i tau.  A candidate tilted away from the fiber direction by an
angle u has S(D, D) = (4 tau^2 - kappa)/2 (p - i q)^2, and kappa_np =
sigma_np = 0 would make it 0 through the first Sachs equation (a step by
hand).  That leaves a single scalar obstruction; off the space-form locus
it forces u = 0, so the only structure is the canonical vertical one.
"""

import math

import numpy as np

from np3kit import ektau
from np3kit.cexpr import eval_forms
from np3kit.ektau import ektau_params, rigidity_obstruction, rigidity_sweep, sol_obstruction
from np3kit.frame import default_samples
from np3kit.npcore import ricci_complex, spin_coefficients

print("vertical candidate on Daniel's chart frame of E(1, 1), 200 samples:")
spec = ektau.spec(1.0, 1.0)
pts = default_samples(spec, 200)
co = spin_coefficients(spec)
k, s, r = eval_forms([co.kappa, co.sigma, co.rho], pts, spec.params)
print(f"  max |kappa_np| = {np.max(np.abs(k)):.1e}, max |sigma_np| = {np.max(np.abs(s)):.1e}")
print(f"  rho_np = {r[0]}, max |rho_np - i tau| = {np.max(np.abs(r - 1j)):.1e}"
      "  (alpha-Sasakian of type (tau, 0))")

print("\ntilted candidate u = 1.2 + x1*x2, v = 0.5*x3, gauge phi = x1 on E(1, 1):")
spec = ektau.spec(1.0, 1.0, ("1.2 + x1*x2", "0.5*x3", "x1"))
S_dd = eval_forms(ricci_complex(spec)["dd"], pts, spec.params)
x1, x2 = pts[:, 0], pts[:, 1]
p_iq = np.sin(1.2 + x1 * x2) * (np.sin(x1) - 1j * np.cos(x1))
closed = 0.5 * (4.0 - 1.0) * p_iq ** 2
print(f"  S(D, D) at the first sample: {S_dd[0]:.6f}")
print(f"  max |S(D, D) - 3/2 (p - i q)^2| = {np.max(np.abs(S_dd - closed)):.1e}")
print(f"  min |S(D, D)| = {np.min(np.abs(S_dd)):.3f}  (nonzero: no such structure)")

print("\nobstruction values:")
for kappa, tau in [(1.0, 1.0), (4.0, 1.0), (-1.0, 0.0), (0.0, 0.0)]:
    rep = rigidity_obstruction(ektau_params(kappa, tau), math.pi / 2)
    print(f"  kappa={kappa:+.0f} tau={tau:+.0f}: obstruction={rep.obstruction_value:+.2f}"
          f"  -> {rep.verdict}, vertical type {rep.implied_alpha_beta}")

print("\n50^3 sweep: the obstruction vanishes exactly on the exceptional loci only")
kappas = np.linspace(-4, 4, 50)
taus = np.linspace(-2, 2, 50)
us = np.linspace(0, math.pi, 52)[1:-1]
obstruction, expected_zero = rigidity_sweep(kappas, taus, us)
print("  zero exactly where expected:",
      bool(np.array_equal(obstruction == 0.0, expected_zero)))
print("  fraction of grid obstructed:", float(np.mean(obstruction != 0.0)))

print("\nSol geometry (not in the E(kappa,tau) family): no compatible structure")
rep = sol_obstruction()
print("  Ricci residual vs -2 theta3 (x) theta3:", f"{rep['ricci_residual']:.2e}")
print("  vertical candidate shear:", rep["sigma_vertical"])
print("  all tilted candidates obstructed:", rep["tilted_all_obstructed"])
