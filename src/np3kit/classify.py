r"""Classify the almost contact metric structure induced by the frame.

Once a metric and orientation are fixed, a unit vector field xi determines
the whole structure: phi rotates the plane orthogonal to xi a quarter turn
(phi e1 = e2, phi e2 = -e1, phi xi = 0) and eta = g(xi, .).  The structure
is trans-Sasakian exactly when the congruence of xi is geodesic and
shear-free (kappa = sigma = 0), and then rho = beta + i alpha carries the
type functions.

The verdict lattice is most-specific-first, with an absolute tolerance for
"vanishes" and a sampled-constancy tolerance for "is constant":

    rho == 0                     -> Cosymplectic
    beta == 0, alpha const == 1  -> Sasakian
    beta == 0, alpha const       -> AlphaSasakian
    beta == 0                    -> C6
    alpha == 0, beta const == 1  -> Kenmotsu
    alpha == 0, beta const       -> BetaKenmotsu
    alpha == 0                   -> C5
    otherwise                    -> TransSasakian
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import expr as E
from .cexpr import eval_parts, parts
from .expr import Expr
from .frame import (ManifoldSpec, _flatten, connection_table, curvature_roots,
                    curvature_values_many, default_samples, eval_table_many)
from .npcore import d_del, d_delbar, d_xi, ricci_complex, spin_coefficients
from .sampling import InsufficientSamples

__all__ = [
    "InducedStructure", "StructureClass", "EinsteinVerdict", "NotTransSasakian",
    "VERDICTS", "classify", "verdict_from_samples", "induced_structure",
    "ts_identity_residuals", "ts_identity_residuals_many",
    "conformal_foliation_residual", "einstein_check", "spin_samples",
]

VERDICTS = ("NotTransSasakian", "TransSasakian", "C6", "AlphaSasakian",
            "Sasakian", "C5", "BetaKenmotsu", "Kenmotsu", "Cosymplectic")

DEFAULT_TOL = 1e-8
DEFAULT_TOL_CONST = 1e-6
MIN_SAMPLES = 20

# phi on frame components: rows are the images of (e1, e2, xi)
PHI_MATRIX = ((0.0, 1.0, 0.0), (-1.0, 0.0, 0.0), (0.0, 0.0, 0.0))


class NotTransSasakian(RuntimeError):
    """Operation requires kappa = sigma = 0 and the spec is not of that kind.

    ``worst`` is max(|kappa|, |sigma|) over the points that were checked.
    """

    def __init__(self, spec_name: str, worst: float):
        super().__init__(f"{spec_name!r} has max(|kappa|,|sigma|) = {worst:.3e} over the samples")
        self.worst = worst


@dataclass(frozen=True)
class InducedStructure:
    phi: tuple = PHI_MATRIX          # action on frame vectors
    eta: tuple = (0.0, 0.0, 1.0)     # frame components of g(xi, .)
    alpha: Expr = None               # Im rho
    beta: Expr = None                # Re rho


@dataclass(frozen=True)
class StructureClass:
    verdict: str
    alpha_summary: tuple   # (mean, max deviation from mean)
    beta_summary: tuple
    residuals: dict        # max |kappa|, max |sigma|, max |rho|
    tol: float
    tol_const: float
    sample_count: int


@dataclass(frozen=True)
class EinsteinVerdict:
    is_einstein: bool
    a: float
    residuals: dict = field(default_factory=dict)


def induced_structure(spec: ManifoldSpec) -> InducedStructure:
    rho = spin_coefficients(spec).rho
    return InducedStructure(alpha=rho.im, beta=rho.re)


def spin_samples(spec: ManifoldSpec, points):
    """(kappa, sigma, rho) complex arrays over sample points."""
    co = spin_coefficients(spec)
    return tuple(re + 1j * im
                 for re, im in eval_parts((co.kappa, co.sigma, co.rho), points, spec.params))


def verdict_from_samples(kappa, sigma, rho, tol=DEFAULT_TOL,
                         tol_const=DEFAULT_TOL_CONST) -> str:
    """Verdict from sampled coefficient values (used directly by gauge tests)."""
    if max(np.max(np.abs(kappa)), np.max(np.abs(sigma))) > tol:
        return "NotTransSasakian"
    alpha, beta = np.imag(rho), np.real(rho)
    if np.max(np.abs(rho)) <= tol:
        return "Cosymplectic"
    if np.max(np.abs(beta)) <= tol:
        mean = float(np.mean(alpha))
        if np.max(np.abs(alpha - mean)) <= tol_const:
            return "Sasakian" if abs(mean - 1.0) <= tol_const else "AlphaSasakian"
        return "C6"
    if np.max(np.abs(alpha)) <= tol:
        mean = float(np.mean(beta))
        if np.max(np.abs(beta - mean)) <= tol_const:
            return "Kenmotsu" if abs(mean - 1.0) <= tol_const else "BetaKenmotsu"
        return "C5"
    return "TransSasakian"


def classify(spec: ManifoldSpec, samples=None, tol=DEFAULT_TOL,
             tol_const=DEFAULT_TOL_CONST, count=100, seed=0) -> StructureClass:
    pts = np.asarray(samples) if samples is not None else default_samples(spec, count, seed)
    if len(pts) < MIN_SAMPLES:
        raise InsufficientSamples(f"classification needs >= {MIN_SAMPLES} points, got {len(pts)}")
    kappa, sigma, rho = spin_samples(spec, pts)
    verdict = verdict_from_samples(kappa, sigma, rho, tol, tol_const)
    alpha, beta = np.imag(rho), np.real(rho)
    am, bm = float(np.mean(alpha)), float(np.mean(beta))
    return StructureClass(
        verdict=verdict,
        alpha_summary=(am, float(np.max(np.abs(alpha - am)))),
        beta_summary=(bm, float(np.max(np.abs(beta - bm)))),
        residuals={
            "max_abs_kappa": float(np.max(np.abs(kappa))),
            "max_abs_sigma": float(np.max(np.abs(sigma))),
            "max_abs_rho": float(np.max(np.abs(rho))),
        },
        tol=tol,
        tol_const=tol_const,
        sample_count=len(pts),
    )


# --------------------------------------------------------------------------
# trans-Sasakian identity residuals

def _ts_closed_forms(spec: ManifoldSpec) -> dict:
    """Closed-form expressions for curvature data of a trans-Sasakian spec."""
    cache = spec._cache
    if "ts_forms" in cache:
        return cache["ts_forms"]
    co = spin_coefficients(spec)
    r, b, e = co.rho, co.beta_np, co.epsilon_np
    rb, bb = r.conj(), b.conj()
    from .cexpr import as_cexpr, c_const
    xr = d_xi(spec, r)
    S_xx = c_const(-2) * (xr + r * r)
    S_ddb = (-as_cexpr(r.abs2()) - c_const(2) * as_cexpr(b.abs2()) - (r - rb) * e
             - xr - r * r - d_del(spec, bb) - d_delbar(spec, b))
    forms = {
        "rho": r, "beta_np": b, "eps": e,
        "d_rho": d_del(spec, r),
        "db_rhobar": d_delbar(spec, rb),
        "xi_rho": xr,
        "S_dx": -d_del(spec, r),
        "S_xx": S_xx,
        "S_ddb": S_ddb,
        "scalar": S_ddb + c_const(0.5) * S_xx,
    }
    cache["ts_forms"] = forms
    return forms


def ts_identity_residuals_many(spec: ManifoldSpec, points, tol=DEFAULT_TOL) -> dict:
    """Per-point residual arrays of the trans-Sasakian curvature identities.

    Raises NotTransSasakian when kappa or sigma fails to vanish at any of
    the points.
    """
    pts = np.asarray(points, dtype=float)
    _require_trans_sasakian(spec, pts, tol)
    with E.shared(pts, spec.params, _ts_identity_roots(spec)):
        return _ts_identity_residuals(spec, pts)


def _require_trans_sasakian(spec: ManifoldSpec, pts, tol):
    kappa, sigma, _ = spin_samples(spec, pts)
    worst = max(np.max(np.abs(kappa)), np.max(np.abs(sigma)))
    if worst > tol:
        raise NotTransSasakian(spec.name, worst)


def _ts_identity_roots(spec: ManifoldSpec) -> list:
    """The expressions :func:`ts_identity_residuals_many` evaluates once
    kappa and sigma are known to vanish."""
    co, forms, S = spin_coefficients(spec), _ts_closed_forms(spec), ricci_complex(spec)
    return (parts((co.kappa, co.sigma, co.rho)) + curvature_roots(spec)
            + _flatten(connection_table(spec).gamma, 3)
            + parts((forms[k] for k in ("xi_rho", "d_rho", "db_rhobar", "S_dx", "S_xx",
                                        "S_ddb", "scalar")))
            + parts((S[k] for k in ("dd", "dx", "xx", "ddb"))))


def _ts_identity_residuals(spec: ManifoldSpec, pts) -> dict:
    p = spec.params
    forms = _ts_closed_forms(spec)
    S = ricci_complex(spec)
    R, _, tau = curvature_values_many(spec, pts)
    R = R.astype(complex)
    gamma_vals = eval_table_many(connection_table(spec).gamma, pts, p, 3)

    rho = forms["rho"].evaluate_many(pts, p)
    alpha, beta = rho.imag, rho.real
    xi_rho = forms["xi_rho"].evaluate_many(pts, p)
    d_rho = forms["d_rho"].evaluate_many(pts, p)
    db_rhobar = forms["db_rhobar"].evaluate_many(pts, p)

    out = {}
    # 2 alpha beta + d alpha(xi) = 0, in its complex form
    out["alpha_beta_xi"] = np.abs(rho**2 - np.conj(rho) ** 2 + xi_rho - np.conj(xi_rho))

    # curvature displays: generic R contracted into the complex frame
    wd = np.array([1, -1j, 0]) / np.sqrt(2)
    wdb = np.array([1, 1j, 0]) / np.sqrt(2)
    wxi = np.array([0, 0, 1], dtype=complex)

    def R_of(V, W, Z):
        return np.einsum("i,j,k,nijkl->nl", V, W, Z, R)

    def want_vec(a, b, c):
        """a*D + b*Dbar + c*xi as (N,3) frame components."""
        return (np.multiply.outer(a, wd) + np.multiply.outer(b, wdb)
                + np.multiply.outer(c, wxi))

    zero = np.zeros_like(rho)
    got = R_of(wd, wdb, wxi)
    want = want_vec(-db_rhobar, d_rho, zero)
    out["R_del_delbar_xi"] = np.max(np.abs(got - want), axis=1)

    got = R_of(wd, wxi, wxi)
    want = want_vec(-(np.conj(rho) ** 2 + np.conj(xi_rho)), zero, zero)
    out["R_del_xi_xi"] = np.max(np.abs(got - want), axis=1)

    got = R_of(wdb, wxi, wxi)
    want = want_vec(zero, -(rho**2 + xi_rho), zero)
    out["R_delbar_xi_xi"] = np.max(np.abs(got - want), axis=1)

    # Ricci displays
    out["ricci_del_del"] = np.abs(S["dd"].evaluate_many(pts, p))
    out["ricci_del_xi"] = np.abs(S["dx"].evaluate_many(pts, p)
                                 - forms["S_dx"].evaluate_many(pts, p))
    out["ricci_xi_xi"] = np.abs(S["xx"].evaluate_many(pts, p)
                                - forms["S_xx"].evaluate_many(pts, p))
    out["ricci_del_delbar"] = np.abs(S["ddb"].evaluate_many(pts, p)
                                     - forms["S_ddb"].evaluate_many(pts, p))
    out["scalar_curvature"] = np.abs(tau - forms["scalar"].evaluate_many(pts, p))

    # nabla_X xi = -alpha phi X + beta (X - eta(X) xi)
    f = gamma_vals[:, :, 2, :]  # f[n][i][j] = Gamma_{i,xi,j}
    stacked = np.stack([
        np.abs(f[:, 0, 0] - beta), np.abs(f[:, 0, 1] + alpha),
        np.abs(f[:, 1, 0] - alpha), np.abs(f[:, 1, 1] - beta),
        np.abs(f[:, 2, 0]), np.abs(f[:, 2, 1]),
        np.abs(f[:, 0, 2]), np.abs(f[:, 1, 2]), np.abs(f[:, 2, 2]),
    ])
    out["nabla_xi"] = np.max(stacked, axis=0)
    return out


def ts_identity_residuals(spec: ManifoldSpec, point, tol=DEFAULT_TOL) -> dict:
    """Residuals of the trans-Sasakian curvature identities at one point."""
    many = ts_identity_residuals_many(spec, [point], tol)
    return {k: float(v[0]) for k, v in many.items()}


def conformal_foliation_residual(spec: ManifoldSpec, point) -> float:
    """Max over the transverse plane of |(Lie_xi g)(e_a, e_b) - 2 Theta delta_ab|.

    Zero exactly when the congruence is shear-free at the point.
    """
    gamma = connection_table(spec).gamma
    p = spec.params
    theta = E.evaluate(spin_coefficients(spec).rho.re, point, p)
    worst = 0.0
    for a in range(2):
        for b in range(2):
            lie = (E.evaluate(gamma[a][2][b], point, p)
                   + E.evaluate(gamma[b][2][a], point, p))
            worst = max(worst, abs(lie - 2.0 * theta * (1.0 if a == b else 0.0)))
    return worst


def einstein_check(spec: ManifoldSpec, samples=None, tol=DEFAULT_TOL,
                   count=100, seed=0) -> EinsteinVerdict:
    """Is S = a g?  a is estimated as the mean of S(xi, xi) over samples."""
    pts = np.asarray(samples) if samples is not None else default_samples(spec, count, seed)
    co, forms = spin_coefficients(spec), _ts_closed_forms(spec)
    closed = (forms["d_rho"], forms["S_ddb"], forms["S_xx"])
    roots = curvature_roots(spec) + parts((co.kappa, co.sigma, co.rho)) + parts(closed)
    with E.shared(pts, spec.params, roots):
        _, S, _ = curvature_values_many(spec, pts)
        a = float(np.mean(S[:, 2, 2]))
        dev = float(np.max(np.abs(S - a * np.eye(3))))
        residuals = {"max_abs_S_minus_a_g": dev}
        kappa, sigma, rho = spin_samples(spec, pts)
        if max(np.max(np.abs(kappa)), np.max(np.abs(sigma))) <= tol:
            d_rho_vals, lhs, rhs = (re + 1j * im for re, im in
                                    eval_parts(closed, pts, spec.params))
            residuals["max_abs_d_rho"] = float(np.max(np.abs(d_rho_vals)))
            residuals["einstein_closed_form"] = float(np.max(np.abs(lhs - rhs)))
    return EinsteinVerdict(is_einstein=dev <= max(tol, tol * (1 + abs(a))), a=a,
                           residuals=residuals)
