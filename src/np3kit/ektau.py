r"""Homogeneous fibered 3-geometries: Daniel's chart frame, tilted structure
candidates, and the rigidity obstruction.

The two-parameter family E(kappa, tau) fibers over the constant-curvature
surface M^2(kappa) with bundle curvature tau and unit vertical Killing
field E3.  :func:`spec` builds it for the pipeline in Daniel's chart
(Comment. Math. Helv. 82, 2007):

    E1 = (1/lam, 0, -tau x2),  E2 = (0, 1/lam, tau x1),  E3 = d3,
    1/lam = 1 + kappa/4 (x1^2 + x2^2),

with kappa and tau as spec parameters, on the domain 1/lam > 0.  It holds
Berger spheres and S^2 x R locally too.  Its Ricci tensor is

    S = (kappa - 2 tau^2) g + (4 tau^2 - kappa) eta3 (x) eta3,   eta3 = g(E3, .).

A candidate structure field tilted by angle u away from E3 (with horizontal
direction angle v and frame gauge phi) has p = g(e1, E3) = sin phi sin u and
q = g(e2, E3) = cos phi sin u, so with D = (e1 - i e2)/sqrt 2

    S(D, D) = (4 tau^2 - kappa)/2 (p - i q)^2,   |p - i q| = |sin u|.

If the candidate has kappa_np = sigma_np = 0, the first Sachs equation leaves
S(D, D) = 0.  S(D, D) vanishes exactly where the scalar obstruction does,

    2 tau delta sin^2 u  =  (kappa - 4 tau^2) sin^2 u        (tau != 0)
    kappa sin u                                              (tau = 0)

so off the space-form locus kappa = 4 tau^2 and the flat product
kappa = tau = 0 the candidate has sin u = 0: a vertical structure field, on
which rho_np = i tau, alpha-Sasakian with alpha = tau, cosymplectic at
tau = 0.  Here delta = s - 2 tau with s = kappa/(2 tau), the horizontal
bracket coefficient of the canonical frame.  The obstruction is computed in
the (kappa - 4 tau^2) form so it vanishes *exactly* on the space-form locus.

The step from kappa_np = sigma_np = 0 to S(D, D) = 0 is by hand; the tests
check the Ricci table, rho_np = i tau and the S(D, D) formula through the
pipeline on :func:`spec` frames, at samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expr as E
from .frame import ManifoldSpec, load_manifold

__all__ = [
    "EkTauParams", "RigidityReport", "TauZeroForSigma", "ektau_params",
    "rigidity_obstruction", "rigidity_sweep", "sol_obstruction", "spec",
]

_SQ2 = math.sqrt(2.0)


class TauZeroForSigma(ZeroDivisionError):
    """sigma = kappa/(2 tau) is undefined for a product geometry (tau = 0)."""


@dataclass(frozen=True)
class EkTauParams:
    kappa: float
    tau: float

    @property
    def sigma_bracket(self) -> float:
        if self.tau == 0.0:
            raise TauZeroForSigma("sigma = kappa/(2 tau) undefined at tau = 0")
        return self.kappa / (2.0 * self.tau)

    @property
    def delta(self) -> float:
        # defined as sigma - 2 tau so the relation holds exactly in floats
        return self.sigma_bracket - 2.0 * self.tau


def ektau_params(kappa: float, tau: float) -> EkTauParams:
    return EkTauParams(float(kappa), float(tau))


def _tilt_rows(u, v, phi, sin, cos) -> tuple:
    """(e1, e2, xi) of the tilt (u, v, phi), each as its (E1, E2, E3) row.

    xi = sin u (cos v E1 + sin v E2) + cos u E3, and (e1, e2) is the pair
    (-sin v E1 + cos v E2, -cos u (cos v E1 + sin v E2) + sin u E3) turned by
    the gauge angle phi, so g(e1, E3) = sin phi sin u and g(e2, E3) =
    cos phi sin u.  ``sin`` and ``cos`` are ``math``'s on numbers or ``expr``'s
    on expressions.
    """
    su, cu, sv, cv, sp, cp = sin(u), cos(u), sin(v), cos(v), sin(phi), cos(phi)
    base1, base2 = (-sv, cv, 0.0), (-cu * cv, -cu * sv, su)
    return (tuple(cp * a + sp * b for a, b in zip(base1, base2)),
            tuple(-sp * a + cp * b for a, b in zip(base1, base2)),
            (su * cv, su * sv, cu))


def spec(kappa: float, tau: float, tilt=None) -> ManifoldSpec:
    """Daniel's chart frame of E(kappa, tau) on [-1/2, 1/2]^3, with kappa and
    tau as spec parameters: e1 = E1, e2 = E2, xi = E3 (see the module
    docstring).  ``tilt = (u, v, phi)``, each a number or an expression
    string in x1, x2, x3, tilts the frame as :func:`_tilt_rows` says.
    """
    inv_lam = "1 + kappa/4*(x1^2 + x2^2)"
    chart = [[E.parse(c) for c in row] for row in
             ((inv_lam, "0", "-tau*x2"), ("0", inv_lam, "tau*x1"), ("0", "0", "1"))]
    rows = ((1, 0, 0), (0, 1, 0), (0, 0, 1)) if tilt is None else _tilt_rows(
        *(E.parse(a) if isinstance(a, str) else a for a in tilt), E.sin, E.cos)
    frame = {key: [E.unparse(sum(w * field[i] for w, field in zip(row, chart))) for i in range(3)]
             for key, row in zip(("e1", "e2", "xi"), rows)}
    return load_manifold({
        "name": "ektau", "coords": ["x1", "x2", "x3"], "frame": frame, "domain": [inv_lam],
        "params": {"kappa": float(kappa), "tau": float(tau)}, "box": [[-0.5, 0.5]] * 3,
    })


@dataclass(frozen=True)
class RigidityReport:
    obstruction_value: float
    verdict: str   # forced_vertical | space_form_exception | product_flat_exception
    implied_alpha_beta: tuple


def _obstruction(kappa, tau, u) -> tuple:
    """(obstruction, on_locus) over broadcast (kappa, tau, u).

    tau != 0: 2 tau delta sin^2 u, evaluated as (kappa - 4 tau^2) sin^2 u so
    it is exactly zero on the space-form locus kappa = 4 tau^2.  tau = 0:
    kappa sin u, whose locus is the flat product kappa = 0.
    """
    su = np.sin(u)
    obstruction = np.where(tau != 0.0, (kappa - 4.0 * tau * tau) * su * su, kappa * su)
    on_locus = np.where(tau != 0.0, kappa == 4.0 * tau * tau, kappa == 0.0)
    return obstruction, on_locus


def rigidity_obstruction(params: EkTauParams, u: float) -> RigidityReport:
    """The scalar whose non-vanishing forces the candidate to be vertical."""
    value, on_locus = _obstruction(params.kappa, params.tau, u)
    exception = "space_form_exception" if params.tau != 0.0 else "product_flat_exception"
    return RigidityReport(
        obstruction_value=float(value),
        verdict=exception if on_locus else "forced_vertical",
        implied_alpha_beta=(params.tau, 0.0),  # the vertical field's (alpha, beta)
    )


def rigidity_sweep(kappas, taus, us):
    """Vectorized obstruction over a (kappa, tau, u) grid.

    Returns (obstruction, expected_zero) arrays of shape (nk, nt, nu); a
    grid point is expected to vanish exactly when it lies on
    {kappa = 4 tau^2, tau != 0} or {kappa = tau = 0} or {sin u = 0}.
    """
    u = np.asarray(us, dtype=float)[None, None, :]
    obstruction, on_locus = _obstruction(np.asarray(kappas, dtype=float)[:, None, None],
                                         np.asarray(taus, dtype=float)[None, :, None], u)
    return obstruction, on_locus | (np.sin(u) == 0.0)


def sol_obstruction() -> dict:
    """Why the Sol geometry admits no compatible structure of this kind.

    Builds the Sol frame, verifies its Ricci tensor is -2 theta^3 (x)
    theta^3, computes the shear of the vertical candidate (identically -1,
    so never shear-free), and sweeps tilted candidates: the shear-free
    requirement S(D, D) = 0 reads -(p - i q)^2 = 0 with p = g(E3, e1),
    q = g(E3, e2), forcing the candidate to be vertical, where it already
    fails.  Checked at 50 seed-0 samples, to 1e-9.
    """
    from . import catalog
    from .cexpr import eval_forms
    from .frame import curvature_values_many, default_samples
    from .npcore import spin_coefficients

    sol, tol = catalog.get_spec("sol"), 1e-9
    pts = default_samples(sol, 50)
    _, S, _ = curvature_values_many(sol, pts)
    ricci_residual = float(np.max(np.abs(S - np.diag([0.0, 0.0, -2.0]))))

    sigma = eval_forms(spin_coefficients(sol).sigma, pts, sol.params)
    sigma_vertical = complex(sigma[np.argmax(np.abs(sigma + 1.0))])
    sigma_residual = float(np.max(np.abs(sigma + 1.0)))

    S_num = S[0]  # engine-computed Ricci at the first sample point
    tilted = []
    for u0 in (0.3, 0.7, 1.2, math.pi / 2):
        for v0 in (0.0, 0.9):
            for phi in (0.0, 0.6435011087932844, 2.0):  # frame gauge angle
                e1, e2, _ = map(np.array, _tilt_rows(u0, v0, phi, math.sin, math.cos))
                p, q = e1[2], e2[2]  # g(E3, e1), g(E3, e2) in the Sol frame
                S_closed = complex(-((p - 1j * q) ** 2))
                w = (e1 - 1j * e2) / _SQ2
                S_direct = complex(np.einsum("i,ij,j->", w, S_num.astype(complex), w))
                tilted.append({
                    "u": u0, "v": v0, "gauge": phi,
                    "p": float(p), "q": float(q),
                    "S_del_del": [S_direct.real, S_direct.imag],
                    "formula_residual": abs(S_direct - S_closed),
                    "vanishes": bool(abs(S_direct) <= tol),
                })
    all_tilted_obstructed = all(not t["vanishes"] for t in tilted)
    worst_formula = max(t["formula_residual"] for t in tilted)
    return {
        "ricci_residual": ricci_residual,
        "sigma_vertical": [sigma_vertical.real, sigma_vertical.imag],
        "sigma_vertical_residual": sigma_residual,
        "tilted_candidates": tilted,
        "tilted_all_obstructed": bool(all_tilted_obstructed),
        "tilted_formula_residual": float(worst_formula),
        "admits_trans_sasakian": False,
        "pass": bool(ricci_residual <= tol and sigma_residual <= 1e-12
                     and all_tilted_obstructed and worst_formula <= tol),
    }
