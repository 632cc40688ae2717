"""Rigidity on the homogeneous fibered geometries, and the Sol obstruction.

Fix the homogeneous metric of E(kappa, tau) and ask which unit fields can
carry a compatible trans-Sasakian structure.  Tilting the candidate away
from the fiber direction by an angle u leaves a single scalar obstruction;
off the space-form locus it forces u = 0, so the only structure is the
canonical vertical one.
"""

import math

import numpy as np

from np3kit.ektau import (AdaptedState, adapted_covariant_table, ektau_model,
                          ektau_params, rigidity_obstruction, rigidity_sweep,
                          sol_obstruction, spin_from_f)

print("canonical model for the Heisenberg frame (kappa=0, tau=1/2):")
model = ektau_model(0.0, 0.5)
print("  [E1,E2] coefficient on E3:", model.c[0][1][2])
print("  nabla_{E1}E2 coefficient on E3:", model.gamma[0][1][2])

print("\nvertical candidate (u=0): the structure is alpha-Sasakian of type (tau, 0)")
p = ektau_params(1.0, 1.0)
k, s, r = spin_from_f(adapted_covariant_table(p, AdaptedState.vertical()))
print(f"  kappa_np={k}, sigma_np={s}, rho_np={r}")

print("\ntilted candidate at u=pi/2 with no extra freedom:")
state = AdaptedState(math.pi / 2, (0, 0, 0), (0, 0, 0))
k, s, r = spin_from_f(adapted_covariant_table(p, state))
print(f"  |kappa_np| = {abs(k):.1e}  (geodesic up to the roundoff of cos(pi/2))")
print(f"  sigma_np = {s}  (nonzero: the candidate is sheared)")
print(f"  rho_np = {r}  (alpha = Im rho, beta = Re rho)")
print("  (this closed form matches the pipeline on tilted Heisenberg and H^2 x R frames)")

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
