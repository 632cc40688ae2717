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
from .cexpr import as_cexpr, c_const, eval_forms, fold, residual
from .expr import Expr
from .frame import (ManifoldSpec, connection_table, default_samples, riemann,
                    spec_cached)
from .npcore import (W_DEL, W_DELBAR, W_XI, _nonzero, d_del, d_delbar, d_xi, ricci_complex,
                     spin_coefficients)
from .sampling import InsufficientSamples

__all__ = [
    "InducedStructure", "StructureClass", "EinsteinVerdict", "NotTransSasakian",
    "VERDICTS", "classify", "verdict_from_samples", "induced_structure",
    "ts_identity_residuals_many", "conformal_foliation_residual_many",
    "einstein_check", "spin_samples",
]

VERDICTS = ("NotTransSasakian", "TransSasakian", "C6", "AlphaSasakian",
            "Sasakian", "C5", "BetaKenmotsu", "Kenmotsu", "Cosymplectic")

DEFAULT_TOL = 1e-8
DEFAULT_TOL_CONST = 1e-6
MIN_SAMPLES = 20
DEFAULT_COUNT = 100  # points drawn (seed 0) when a sweep is given no samples

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
    return tuple(eval_forms([co.kappa, co.sigma, co.rho], points, spec.params))


def _samples(spec: ManifoldSpec, samples) -> np.ndarray:
    """``samples`` as an array, or DEFAULT_COUNT seed-0 points of the spec's box."""
    return default_samples(spec, DEFAULT_COUNT) if samples is None else np.asarray(samples)


def _spin_scalars(kappa, sigma, rho, alpha, beta, modulus) -> tuple:
    """(maxima, sums) that :func:`classify` decides from, by name, of forms
    (``modulus`` is ``residual``) or of sampled arrays (``np.abs``)."""
    maxima = {"max_abs_kappa": modulus(kappa), "max_abs_sigma": modulus(sigma),
              "max_abs_rho": modulus(rho), "max_abs_alpha": modulus(alpha),
              "max_abs_beta": modulus(beta), "max_alpha": alpha, "max_neg_alpha": -alpha,
              "max_beta": beta, "max_neg_beta": -beta}
    return maxima, {"sum_alpha": alpha, "sum_beta": beta}


def _spin_roots(spec: ManifoldSpec) -> tuple:
    """:func:`_spin_scalars` as roots of ``cexpr.fold``."""
    co = spin_coefficients(spec)
    return _spin_scalars(co.kappa, co.sigma, co.rho, co.rho.im, co.rho.re, residual)


def _spread(hi, lo, center) -> float:
    """max |x - center| for x from ``lo`` to ``hi``: rounding is monotone, so
    this is bit for bit ``np.max(np.abs(x - center))``, NaN included."""
    return float(np.maximum(abs(hi - center), abs(center - lo)))


def _summary(values: dict, name: str, n: int) -> tuple:
    """(mean, max deviation from the mean) of alpha or beta."""
    mean = values[f"sum_{name}"] / n
    return mean, _spread(values[f"max_{name}"], -values[f"max_neg_{name}"], mean)


def _verdict(values: dict, n: int, tol, tol_const) -> str:
    """The verdict lattice over :func:`_spin_scalars` of ``n`` samples."""
    # each max is tested on its own: max(x, nan) drops the NaN, and NaN fails
    # <=; a NaN in rho, which its modulus carries into its max, decides no class
    rho = values["max_abs_rho"]
    if not (values["max_abs_kappa"] <= tol and values["max_abs_sigma"] <= tol) or rho != rho:
        return "NotTransSasakian"
    if rho <= tol:
        return "Cosymplectic"
    if values["max_abs_beta"] <= tol:
        mean, spread = _summary(values, "alpha", n)
        if spread <= tol_const:
            return "Sasakian" if abs(mean - 1.0) <= tol_const else "AlphaSasakian"
        return "C6"
    if values["max_abs_alpha"] <= tol:
        mean, spread = _summary(values, "beta", n)
        if spread <= tol_const:
            return "Kenmotsu" if abs(mean - 1.0) <= tol_const else "BetaKenmotsu"
        return "C5"
    return "TransSasakian"


def verdict_from_samples(kappa, sigma, rho, tol=DEFAULT_TOL,
                         tol_const=DEFAULT_TOL_CONST) -> str:
    """Verdict from sampled coefficient arrays, decided as :func:`classify` decides."""
    maxima, sums = _spin_scalars(kappa, sigma, rho, np.imag(rho), np.real(rho), np.abs)
    values = {**{k: float(np.max(x)) for k, x in maxima.items()},
              **{k: float(np.sum(x)) for k, x in sums.items()}}
    return _verdict(values, len(rho), tol, tol_const)


def classify(spec: ManifoldSpec, samples=None, tol=DEFAULT_TOL,
             tol_const=DEFAULT_TOL_CONST) -> StructureClass:
    pts = _samples(spec, samples)
    return _structure_class(fold(*_spin_roots(spec), pts, spec.params), len(pts), tol, tol_const)


def _structure_class(values: dict, n: int, tol=DEFAULT_TOL,
                     tol_const=DEFAULT_TOL_CONST) -> StructureClass:
    """:func:`classify` from the folded :func:`_spin_roots` of ``n`` samples."""
    if n < MIN_SAMPLES:
        raise InsufficientSamples(f"classification needs >= {MIN_SAMPLES} points, got {n}")
    return StructureClass(
        verdict=_verdict(values, n, tol, tol_const),
        alpha_summary=_summary(values, "alpha", n),
        beta_summary=_summary(values, "beta", n),
        residuals={k: values[k] for k in ("max_abs_kappa", "max_abs_sigma", "max_abs_rho")},
        tol=tol,
        tol_const=tol_const,
        sample_count=n,
    )


# --------------------------------------------------------------------------
# trans-Sasakian identity residuals

@spec_cached
def _ts_closed_forms(spec: ManifoldSpec) -> dict:
    """Closed-form expressions for curvature data of a trans-Sasakian spec."""
    co = spin_coefficients(spec)
    r, b, e = co.rho, co.beta_np, co.epsilon_np
    rb, bb = r.conj(), b.conj()
    xr = d_xi(spec, r)
    S_xx = c_const(-2) * (xr + r * r)
    S_ddb = (-as_cexpr(r.abs2()) - c_const(2) * as_cexpr(b.abs2()) - (r - rb) * e
             - xr - r * r - d_del(spec, bb) - d_delbar(spec, b))
    return {
        "rho": r, "beta_np": b, "eps": e,
        "d_rho": d_del(spec, r),
        "db_rhobar": d_delbar(spec, rb),
        "xi_rho": xr,
        "S_dx": -d_del(spec, r),
        "S_xx": S_xx,
        "S_ddb": S_ddb,
        "scalar": S_ddb + c_const(0.5) * S_xx,
    }


def _ts_identity_forms(spec: ManifoldSpec) -> dict:
    """{identity: the forms that vanish when it holds} for the trans-Sasakian
    curvature identities: the trees of :func:`ts_identity_residuals_many`."""
    closed, S, gm = _ts_closed_forms(spec), ricci_complex(spec), connection_table(spec).gamma
    data = riemann(spec)
    R, tau = data.riemann, data.scalar
    r, xr = closed["rho"], closed["xi_rho"]
    rb, xrb = r.conj(), xr.conj()
    alpha, beta, zero = r.im, r.re, c_const(0)

    def display(V, W, Z, a, b):
        """R(V, W)Z - (a D + b Dbar) in frame components; R is contracted over
        the nonzero constant complex-frame weights only."""
        weights = [(i, j, k, v * w * z) for i, v in _nonzero(V) for j, w in _nonzero(W)
                   for k, z in _nonzero(Z)]
        return [sum((c * as_cexpr(R[i][j][k][l]) for i, j, k, c in weights), zero)
                - (a * W_DEL[l] + b * W_DELBAR[l]) for l in range(3)]

    f = [[gm[i][2][j] for j in range(3)] for i in range(3)]  # f[i][j] = Gamma_{i,xi,j}
    return {
        # 2 alpha beta + d alpha(xi) = 0, in its complex form
        "alpha_beta_xi": r * r - rb * rb + xr - xrb,
        "R_del_delbar_xi": display(W_DEL, W_DELBAR, W_XI, -closed["db_rhobar"], closed["d_rho"]),
        "R_del_xi_xi": display(W_DEL, W_XI, W_XI, -(rb * rb + xrb), zero),
        "R_delbar_xi_xi": display(W_DELBAR, W_XI, W_XI, zero, -(r * r + xr)),
        "ricci_del_del": S["dd"],
        "ricci_del_xi": S["dx"] - closed["S_dx"],
        "ricci_xi_xi": S["xx"] - closed["S_xx"],
        "ricci_del_delbar": S["ddb"] - closed["S_ddb"],
        "scalar_curvature": as_cexpr(tau) - closed["scalar"],
        # nabla_X xi = -alpha phi X + beta (X - eta(X) xi)
        "nabla_xi": [E.sub(f[0][0], beta), E.add(f[0][1], alpha), E.sub(f[1][0], alpha),
                     E.sub(f[1][1], beta), f[2][0], f[2][1], f[0][2], f[1][2], f[2][2]],
    }


def _ts_gate(spec: ManifoldSpec) -> Expr:
    """max(|kappa|, |sigma|): trans-Sasakian identities apply where it vanishes."""
    co = spin_coefficients(spec)
    return residual([co.kappa, co.sigma])


def ts_identity_residuals_many(spec: ManifoldSpec, points, tol=DEFAULT_TOL) -> dict:
    """Per-point residual arrays of the trans-Sasakian curvature identities.

    Raises NotTransSasakian when kappa or sigma fails to vanish at any of
    the points.
    """
    forms = {"gate": _ts_gate(spec),
             "res": {name: residual(tree) for name, tree in _ts_identity_forms(spec).items()}}
    values = eval_forms(forms, points, spec.params)
    worst = np.max(values["gate"])
    if worst > tol:
        raise NotTransSasakian(spec.name, worst)
    return values["res"]


def conformal_foliation_residual_many(spec: ManifoldSpec, points) -> np.ndarray:
    """Per-point max over the transverse plane of
    |(Lie_xi g)(e_a, e_b) - 2 Theta delta_ab|.

    Zero exactly where the congruence is shear-free.
    """
    g = connection_table(spec).gamma
    # (Lie_xi g)(e_a, e_b) = f_ab + f_ba with f_ab = Gamma_{a,xi,b}
    two_theta = E.mul(2.0, spin_coefficients(spec).rho.re)
    forms = [E.sub(E.mul(2.0, g[0][2][0]), two_theta), E.add(g[0][2][1], g[1][2][0]),
             E.sub(E.mul(2.0, g[1][2][1]), two_theta)]
    return eval_forms(residual(forms), points, spec.params)


def _einstein_roots(spec: ManifoldSpec) -> tuple:
    """(maxima, sums): the roots :func:`einstein_check` decides from, by name."""
    co, S, closed = spin_coefficients(spec), riemann(spec).ricci, _ts_closed_forms(spec)
    n = range(3)
    maxima = {"max_abs_kappa": residual(co.kappa), "max_abs_sigma": residual(co.sigma),
              "max_abs_S_offdiag": residual([S[i][j] for i in n for j in n if i != j]),
              **{f"max_S{i}{i}": S[i][i] for i in n}, **{f"max_neg_S{i}{i}": -S[i][i] for i in n},
              "max_abs_d_rho": residual(closed["d_rho"]),
              "einstein_closed_form": residual(closed["S_ddb"] - closed["S_xx"])}
    return maxima, {"sum_S22": S[2][2]}


def einstein_check(spec: ManifoldSpec, samples=None, tol=DEFAULT_TOL) -> EinsteinVerdict:
    """Is S = a g?  a is estimated as the mean of S(xi, xi) over samples."""
    pts = _samples(spec, samples)
    return _einstein_verdict(fold(*_einstein_roots(spec), pts, spec.params), len(pts), tol)


def _einstein_verdict(values: dict, n: int, tol=DEFAULT_TOL) -> EinsteinVerdict:
    """:func:`einstein_check` from the folded :func:`_einstein_roots` of ``n`` samples."""
    a = values["sum_S22"] / n
    dev = float(np.max([values["max_abs_S_offdiag"], *(
        _spread(values[f"max_S{i}{i}"], -values[f"max_neg_S{i}{i}"], a) for i in range(3))]))
    residuals = {"max_abs_S_minus_a_g": dev}
    if values["max_abs_kappa"] <= tol and values["max_abs_sigma"] <= tol:
        residuals.update({k: values[k] for k in ("max_abs_d_rho", "einstein_closed_form")})
    return EinsteinVerdict(is_einstein=dev <= max(tol, tol * (1 + abs(a))), a=a,
                           residuals=residuals)
