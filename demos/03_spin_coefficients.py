"""Spin coefficients, kinematics, and gauge freedom.

Five complex scalars replace the connection: acceleration kappa, shear
sigma, expansion+twist rho, and the frame-rotation scalars beta and eps.
A gauge rotation of the transverse plane rephases them with definite spin
weights; rho (hence expansion and twist) is gauge-invariant.
"""

import math

from np3kit import catalog
from np3kit.expr import const, evaluate, parse
from np3kit.npcore import (GaugeAngle, gauge_transform, kinematics,
                           sachs_residuals_many, spin_coefficients,
                           weighted_derivative)

spec = catalog.get_spec("example1")
co = spin_coefficients(spec)
origin = (0.0, 0.0, 0.0)
print("example1 at the origin:")
for name, value in co.evaluate(origin).items():
    print(f"  {name:11s} {value:.6g}")

kin = kinematics(co)
print("expansion  :", evaluate(kin.theta, origin))
print("twist      :", evaluate(kin.omega, origin))
print("shear mag  :", evaluate(kin.shear_mag, origin))

print("\nquarter-turn gauge (theta = pi/2): sigma flips sign, kappa picks up i,")
print("rho is untouched:")
gauged = gauge_transform(co, GaugeAngle(const(math.pi / 2)), spec)
for name, value in gauged.evaluate(origin).items():
    print(f"  {name:11s} {value:.6g}")

print("\nnon-constant gauge theta = x1: eps' = eps + i xi(theta) = eps, since")
print("xi = d/dx3 here:", gauged.epsilon_np.evaluate(origin))

# spin-weighted derivative: for weight 0 it is just the directional derivative
eth_rho = weighted_derivative(co.rho, 0, "eth", spec)
print("\neth(rho) at origin (weight 0):", eth_rho.evaluate(origin))

print("\ngeneralized Sachs residuals at a generic point (identities of the")
print("Levi-Civita connection, so pure roundoff):")
for i, r in enumerate(sachs_residuals_many(spec, [(0.4, 0.7, -0.2)])[0], 1):
    print(f"  eq {i}: |residual| = {abs(r):.2e}")
