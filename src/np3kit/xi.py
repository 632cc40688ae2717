r"""Rough Laplacian, divergence, harmonicity and collinearity of xi.

Every quantity is computed twice where the formalism offers two routes:

  * the rough Laplacian from its real-frame definition
        Delta xi = -sum_i (nabla_{E_i} nabla_{E_i} xi - nabla_{nabla_{E_i} E_i} xi)
    and from the spin-coefficient closed form,
  * the divergence as sum_i g(nabla_{E_i} xi, E_i) and as rho + conj(rho),
  * g(Delta xi, xi) against the Frobenius norm of nabla xi (the Bochner
    reduction for a unit field).

xi is parallel iff kappa = sigma = rho = 0; harmonic iff
Delta xi = |nabla xi|^2 xi; pointwise collinear with its Laplacian iff the
transverse components of Delta xi vanish, and then the factor is
2(|kappa|^2 + |rho|^2 + |sigma|^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expr as E
from .cexpr import CExpr, as_cexpr, c_const, parts
from .expr import Expr
from .frame import (ManifoldSpec, connection_table, covariant_derivative,
                    default_samples, eval_table_many)
from .npcore import (d_del, d_delbar, d_xi, grad_xi_norm_sq, spin_coefficients)
from .sampling import InsufficientSamples

__all__ = [
    "RoughLaplacian", "DivergenceResult", "CongruenceReport",
    "rough_laplacian_xi", "divergence_xi", "harmonicity_residual",
    "parallel_and_collinearity",
]

_SQ2 = np.sqrt(2.0)

_E1_W = (E.const(1.0), E.const(0.0), E.const(0.0))
_E2_W = (E.const(0.0), E.const(1.0), E.const(0.0))
_XI_W = (E.const(0.0), E.const(0.0), E.const(1.0))
_FRAME_W = (_E1_W, _E2_W, _XI_W)


@dataclass(frozen=True)
class RoughLaplacian:
    generic: tuple     # frame components from the real-frame definition
    np_closed: tuple   # frame components from the spin-coefficient form

    def max_discrepancy(self, points, params=None) -> float:
        a = eval_table_many(self.generic, points, params, 1)
        b = eval_table_many(self.np_closed, points, params, 1)
        return float(np.max(np.abs(a - b)))


@dataclass(frozen=True)
class DivergenceResult:
    direct: Expr    # sum_i g(nabla_{E_i} xi, E_i)
    np_form: Expr   # rho + conj rho = 2 Theta

    def max_discrepancy(self, points, params=None) -> float:
        a = E.evaluate_many(self.direct, points, params)
        b = E.evaluate_many(self.np_form, points, params)
        return float(np.max(np.abs(a - b)))


@dataclass(frozen=True)
class CongruenceReport:
    laplacian_xi: tuple            # frame components (generic route)
    grad_xi_norm_sq: Expr
    divergence: Expr
    lam: Expr                      # collinearity factor 2(|k|^2+|r|^2+|s|^2)
    is_geodesic: bool
    is_shear_free: bool
    is_twist_free: bool
    expansion: str                 # expanding | contracting | non_expanding | mixed
    is_parallel: bool
    is_harmonic: bool
    is_collinear: bool
    residuals: dict
    tol: float
    sample_count: int

    @property
    def flags(self) -> dict:
        return {
            "is_geodesic": self.is_geodesic,
            "is_shear_free": self.is_shear_free,
            "is_twist_free": self.is_twist_free,
            "expansion": self.expansion,
            "is_parallel": self.is_parallel,
            "is_harmonic": self.is_harmonic,
            "is_collinear": self.is_collinear,
        }


def rough_laplacian_xi(spec: ManifoldSpec) -> RoughLaplacian:
    cache = spec._cache
    if "laplacian" in cache:
        return cache["laplacian"]
    gamma = connection_table(spec).gamma
    total = [E.const(0.0)] * 3
    for i in range(3):
        first = covariant_derivative(spec, _FRAME_W[i], _XI_W)
        second = covariant_derivative(spec, _FRAME_W[i], first)
        corr_dir = tuple(gamma[i][i][m] for m in range(3))
        correction = covariant_derivative(spec, corr_dir, _XI_W)
        total = [E.sub(t, E.sub(s, c)) for t, s, c in zip(total, second, correction)]
    generic = tuple(total)

    co = spin_coefficients(spec)
    k, s, r, b, e = co.kappa, co.sigma, co.rho, co.beta_np, co.epsilon_np
    kb, sb, rb = k.conj(), s.conj(), r.conj()
    # coefficient of D in the closed form
    a = (-d_delbar(spec, rb) + d_del(spec, sb) + c_const(2) * sb * b
         + r * kb + d_xi(spec, kb) + kb * e + k * sb)
    xi_coeff = E.mul(2.0, E.add(E.add(k.abs2(), r.abs2()), s.abs2()))
    np_closed = (E.mul(_SQ2, a.re), E.mul(_SQ2, a.im), xi_coeff)
    out = RoughLaplacian(generic=generic, np_closed=np_closed)
    cache["laplacian"] = out
    return out


def divergence_xi(spec: ManifoldSpec) -> DivergenceResult:
    gamma = connection_table(spec).gamma
    direct = E.add(E.add(gamma[0][2][0], gamma[1][2][1]), gamma[2][2][2])
    np_form = E.mul(2.0, spin_coefficients(spec).rho.re)
    return DivergenceResult(direct=direct, np_form=np_form)


def _harmonicity_expr(spec: ManifoldSpec) -> CExpr:
    cache = spec._cache
    if "harmonic" not in cache:
        co = spin_coefficients(spec)
        k, s, r, b, e = co.kappa, co.sigma, co.rho, co.beta_np, co.epsilon_np
        cache["harmonic"] = (d_del(spec, r) - d_delbar(spec, s)
                             - c_const(2) * s * b.conj() - r.conj() * k
                             - d_xi(spec, k) - k * e.conj() - k.conj() * s)
    return cache["harmonic"]


def harmonicity_residual(spec: ManifoldSpec, point) -> complex:
    """Transverse component of Delta xi - |nabla xi|^2 xi, as one complex scalar.

    Vanishes exactly when xi is a harmonic vector field; for trans-Sasakian
    specs it reduces to D(rho).
    """
    return _harmonicity_expr(spec).evaluate(point, spec.params)


def parallel_and_collinearity(spec: ManifoldSpec, samples=None, tol=1e-8,
                              count=100, seed=0) -> CongruenceReport:
    pts = np.asarray(samples) if samples is not None else default_samples(spec, count, seed)
    if len(pts) < 20:
        raise InsufficientSamples(f"congruence analysis needs >= 20 points, got {len(pts)}")
    p = spec.params
    co, lap, div = spin_coefficients(spec), rough_laplacian_xi(spec), divergence_xi(spec)
    grad_sq = grad_xi_norm_sq(spec)
    roots = (parts((co.kappa, co.sigma, co.rho)) + list(lap.generic) + [grad_sq]
             + list(lap.np_closed) + [div.direct, div.np_form])
    with E.shared(pts, p, roots):
        kv = co.kappa.evaluate_many(pts, p)
        sv = co.sigma.evaluate_many(pts, p)
        rv = co.rho.evaluate_many(pts, p)
        lap_vals = eval_table_many(lap.generic, pts, p, 1)
        grad_vals = E.evaluate_many(grad_sq, pts, p)
        lap_discrepancy = lap.max_discrepancy(pts, p)
        div_discrepancy = div.max_discrepancy(pts, p)
    theta, omega = rv.real, rv.imag

    max_k = float(np.max(np.abs(kv)))
    max_s = float(np.max(np.abs(sv)))
    max_theta = float(np.max(np.abs(theta)))
    max_omega = float(np.max(np.abs(omega)))
    transverse = float(np.max(np.abs(lap_vals[:, :2])))
    bochner = float(np.max(np.abs(lap_vals[:, 2] - grad_vals)))

    if max_theta <= tol:
        expansion = "non_expanding"
    elif np.min(theta) > tol:
        expansion = "expanding"
    elif np.max(theta) < -tol:
        expansion = "contracting"
    else:
        expansion = "mixed"

    lam = E.mul(2.0, E.add(E.add(co.kappa.abs2(), co.rho.abs2()), co.sigma.abs2()))
    return CongruenceReport(
        laplacian_xi=lap.generic,
        grad_xi_norm_sq=grad_sq,
        divergence=div.direct,
        lam=lam,
        is_geodesic=max_k <= tol,
        is_shear_free=max_s <= tol,
        is_twist_free=max_omega <= tol,
        expansion=expansion,
        is_parallel=max(max_k, max_s, max_theta, max_omega) <= tol,
        is_harmonic=max(transverse, bochner) <= tol,
        is_collinear=transverse <= tol,
        residuals={
            "max_abs_kappa": max_k,
            "max_abs_sigma": max_s,
            "max_abs_theta": max_theta,
            "max_abs_omega": max_omega,
            "max_transverse_laplacian": transverse,
            "bochner": bochner,
            "laplacian_route_discrepancy": lap_discrepancy,
            "divergence_route_discrepancy": div_discrepancy,
        },
        tol=tol,
        sample_count=len(pts),
    )
