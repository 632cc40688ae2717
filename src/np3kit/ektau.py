r"""Homogeneous fibered 3-geometries: canonical frames, tilted structure
candidates, and the rigidity obstruction.

The two-parameter family E(kappa, tau) fibers over the constant-curvature
surface M^2(kappa) with bundle curvature tau and unit vertical Killing
field E3.  For tau != 0 the canonical frame has constant brackets

    [E1,E2] = 2 tau E3,  [E2,E3] = s E1,  [E3,E1] = s E2,   s = kappa/(2 tau),

and we write delta = s - 2 tau.  A candidate structure field tilted by
angle u away from E3 (with horizontal direction angle v) has spin
coefficients that are pointwise algebraic in (u, du, dv); imposing
kappa_np = sigma_np = 0 and comparing two evaluations of a bracket yields
the single scalar obstruction

    2 tau delta sin^2 u  =  (kappa - 4 tau^2) sin^2 u        (tau != 0)
    kappa sin u                                              (tau = 0)

whose non-vanishing forces sin u = 0, i.e. a vertical structure field.
The obstruction is computed in the (kappa - 4 tau^2) form so it vanishes
*exactly* on the space-form locus.

For tau = 0 the fiber data is the surface connection form folded into a
single free slot value B(X) = dv(X) + omega(X); its curvature enters only
through the obstruction.

Everything in this module is plain numeric.  The tilted candidate has one
closed form, ``adapted_covariant_table``, and its spin coefficients are read
off it by ``spin_from_f``.  The tests check that closed form against the
symbolic pipeline on tilted frames of the Heisenberg group (kappa = 0, any
tau) and of H^2 x R, the canonical model's connection against the catalog
frame nil3, and its curvature against Daniel's chart frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EkTauParams", "AdaptedState", "RigidityReport", "EkTauModel",
    "TauZeroForSigma", "ektau_params", "ektau_model",
    "adapted_covariant_table", "spin_from_f", "rigidity_obstruction",
    "rigidity_sweep", "bracket_consistency", "sol_obstruction",
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


@dataclass(frozen=True)
class AdaptedState:
    """Free local data of a tilted candidate: tilt angle u and the slot
    values of du and dv on the adapted frame (e1, e2, xi).

    For a product geometry (tau = 0) the dv slots carry the folded
    connection value B(X) = dv(X) + omega(X) instead.
    """
    u: float
    du: tuple  # (du(e1), du(e2), du(xi))
    dv: tuple  # (dv(e1), dv(e2), dv(xi)), or B slots when tau = 0

    @staticmethod
    def vertical() -> "AdaptedState":
        return AdaptedState(0.0, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))


@dataclass(frozen=True)
class RigidityReport:
    obstruction_value: float
    verdict: str   # forced_vertical | space_form_exception | product_flat_exception
    implied_alpha_beta: tuple


@dataclass(frozen=True)
class EkTauModel:
    """Constant structure functions and connection of the canonical frame."""
    params: EkTauParams
    c: tuple       # c[i][j][k]
    gamma: tuple   # gamma[i][j][k]

    def curvature(self):
        """(R, S) from the constant tables (frame derivatives vanish)."""
        c, gm = np.asarray(self.c), np.asarray(self.gamma)
        R = (np.einsum("jkm,iml->ijkl", gm, gm) - np.einsum("ikm,jml->ijkl", gm, gm)
             - np.einsum("ijm,mkl->ijkl", c, gm))
        S = np.einsum("ijki->jk", R)
        return R, S


def ektau_model(kappa: float, tau: float) -> EkTauModel:
    """Canonical-frame bracket and connection tables.

    tau != 0: the fibered geometries (Heisenberg, Berger spheres, the
    universal cover of SL(2,R)).  tau = 0: the product M^2(kappa) x R,
    which has a constant-bracket orthonormal frame only for kappa <= 0.
    """
    p = ektau_params(kappa, tau)
    c = np.zeros((3, 3, 3))
    gm = np.zeros((3, 3, 3))
    if tau != 0.0:
        s = p.sigma_bracket
        c[0, 1, 2], c[1, 0, 2] = 2 * tau, -2 * tau
        c[1, 2, 0], c[2, 1, 0] = s, -s
        c[2, 0, 1], c[0, 2, 1] = s, -s
        gm[0, 1, 2], gm[0, 2, 1] = tau, -tau
        gm[1, 0, 2], gm[1, 2, 0] = -tau, tau
        gm[2, 0, 1], gm[2, 1, 0] = s - tau, -(s - tau)
    elif kappa < 0.0:
        a = math.sqrt(-kappa)
        c[0, 1, 0], c[1, 0, 0] = -a, a
        gm[0, 0, 1], gm[0, 1, 0] = a, -a
    elif kappa > 0.0:
        raise ValueError(
            "S^2 x R admits no global constant-bracket orthonormal frame; "
            "use the rigidity obstruction directly for kappa > 0, tau = 0")
    return EkTauModel(params=p,
                      c=tuple(map(tuple, (map(tuple, plane) for plane in c))),
                      gamma=tuple(map(tuple, (map(tuple, plane) for plane in gm))))


def spin_from_f(f) -> tuple:
    """(kappa_np, sigma_np, rho_np) from shape-operator entries
    f = ((f11, f12), (f21, f22), (f31, f32))."""
    (f11, f12), (f21, f22), (f31, f32) = f
    kappa = -(f31 - 1j * f32) / _SQ2
    sigma = -((f11 - f22) - 1j * (f21 + f12)) / 2.0
    rho = ((f11 + f22) + 1j * (f21 - f12)) / 2.0
    return kappa, sigma, rho


def adapted_covariant_table(params: EkTauParams, state: AdaptedState):
    """Shape-operator entries of the tilted candidate in its adapted frame.

    nabla_{e1} xi = sin(u) dv(e1) e1 - (du(e1) + tau) e2
    nabla_{e2} xi = (sin(u) dv(e2) + tau + delta sin^2 u) e1 - du(e2) e2
    nabla_{xi} xi = sin(u)(dv(xi) + delta cos u) e1 - du(xi) e2

    and the tau = 0 analogue with B in place of dv: the same formulas with
    tau = delta = 0.  Its spin coefficients are ``spin_from_f`` of this table.
    """
    tau, d = (params.tau, params.delta) if params.tau != 0.0 else (0.0, 0.0)
    su, cu = math.sin(state.u), math.cos(state.u)
    (du1, du2, du3), (v1, v2, v3) = state.du, state.dv
    return ((su * v1, -(du1 + tau)),
            (su * v2 + tau + d * su * su, -du2),
            (su * (v3 + d * cu), -du3))


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


def bracket_consistency(params: EkTauParams, u: float, alpha: float, beta: float) -> dict:
    """Check the closed forms behind xi(alpha) = -2 alpha beta and
    xi(beta) = alpha^2 - beta^2 - tau^2 on a state solving the constraints.

    With du(e1) = alpha - tau, du(e2) = -beta, du(xi) = 0 and dv eliminated
    through dv(xi) = -delta cos u, dv(e1) = beta/sin u,
    dv(e2) = (alpha - tau - delta sin^2 u)/sin u, the two bracket
    evaluations become algebraic identities; the residuals are pure
    roundoff.  ``system`` is max(|kappa_np|, |sigma_np|) of the state's
    covariant table, and the implied alpha and beta are Im and Re of its
    rho_np.  Requires sin u != 0 and tau != 0.
    """
    tau, d = params.tau, params.delta
    su, cu = math.sin(u), math.cos(u)
    if su == 0.0:
        raise ValueError("bracket consistency needs a tilted state (sin u != 0)")
    du = (alpha - tau, -beta, 0.0)
    dv = (beta / su, (alpha - tau - d * su * su) / su, -d * cu)
    kappa, sigma, rho = spin_from_f(adapted_covariant_table(params, AdaptedState(u, du, dv)))
    return {
        "system": max(abs(kappa), abs(sigma)),
        # [e1, xi](u) evaluated through the bracket vs through xi(alpha)
        "xi_alpha": beta * du[0] - (alpha + tau) * du[1] - 2.0 * alpha * beta,
        # [e2, xi](u): bracket vs xi(beta)
        "xi_beta": ((alpha + tau) * du[0] + beta * du[1]
                    - (alpha * alpha - beta * beta - tau * tau)),
        "implied_alpha": rho.imag - alpha,
        "implied_beta": rho.real - beta,
    }


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

    spec, tol = catalog.get_spec("sol"), 1e-9
    pts = default_samples(spec, 50)
    _, S, _ = curvature_values_many(spec, pts)
    ricci_residual = float(np.max(np.abs(S - np.diag([0.0, 0.0, -2.0]))))

    sigma = eval_forms(spin_coefficients(spec).sigma, pts, spec.params)
    sigma_vertical = complex(sigma[np.argmax(np.abs(sigma + 1.0))])
    sigma_residual = float(np.max(np.abs(sigma + 1.0)))

    S_num = S[0]  # engine-computed Ricci at the first sample point
    tilted = []
    for u0 in (0.3, 0.7, 1.2, math.pi / 2):
        for v0 in (0.0, 0.9):
            for phi in (0.0, 0.6435011087932844, 2.0):  # frame gauge angle
                su, cu = math.sin(u0), math.cos(u0)
                sv, cv = math.sin(v0), math.cos(v0)
                base1 = np.array([-sv, cv, 0.0])
                base2 = np.array([-cu * cv, -cu * sv, su])
                e1 = math.cos(phi) * base1 + math.sin(phi) * base2
                e2 = -math.sin(phi) * base1 + math.cos(phi) * base2
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
