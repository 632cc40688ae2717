"""Spin coefficients, kinematics, and gauge freedom.

Five complex scalars replace the connection: acceleration kappa, shear
sigma, expansion+twist rho, and the frame-rotation scalars beta and eps.
A gauge rotation of the transverse plane rephases them with definite spin
weights; rho (hence expansion and twist) is gauge-invariant.
"""

import math

from np3kit import catalog
from np3kit.cexpr import eval_forms
from np3kit.expr import const
from np3kit.npcore import (gauge_transform, kinematics, sachs_forms, spin_coefficients,
                           weighted_derivative)

spec = catalog.get_spec("example1")
co = spin_coefficients(spec)
origin = (0.0, 0.0, 0.0)
print("example1 at the origin:")
for name, value in co.evaluate(origin).items():
    print(f"  {name:11s} {value:.6g}")

kin = kinematics(co)
(theta, omega, shear_mag), = eval_forms((kin.theta, kin.omega, kin.shear_mag), [origin])
print("expansion  :", theta)
print("twist      :", omega)
print("shear mag  :", shear_mag)

print("\nquarter-turn gauge (theta = pi/2): sigma flips sign, kappa picks up i,")
print("rho is untouched:")
gauged = gauge_transform(co, const(math.pi / 2), spec)
gauged_values = gauged.evaluate(origin)
for name, value in gauged_values.items():
    print(f"  {name:11s} {value:.6g}")

print("\nnon-constant gauge theta = x1: eps' = eps + i xi(theta) = eps, since")
print("xi = d/dx3 here:", gauged_values["epsilon_np"])

# spin-weighted derivative: for weight 0 it is just the directional derivative
eth_rho = weighted_derivative(co.rho, 0, "eth", spec)
print("\neth(rho) at origin (weight 0):", eval_forms(eth_rho, [origin])[0])

print("\ngeneralized Sachs residuals at a generic point (identities of the")
print("Levi-Civita connection, so pure roundoff):")
(sachs,) = eval_forms(sachs_forms(spec), [(0.4, 0.7, -0.2)], spec.params)
for i, r in enumerate(sachs, 1):
    print(f"  eq {i}: |residual| = {abs(r):.2e}")
