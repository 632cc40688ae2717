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
2(|kappa|^2 + |rho|^2 + |sigma|^2).  :func:`parallel_and_collinearity`
reports these decisions over samples and the maxima behind them; it holds
no forms, which the functions above return.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expr as E
from .cexpr import c_const, fold, residual
from .classify import DEFAULT_TOL, MIN_SAMPLES, _samples, _spin_roots
from .expr import Expr
from .frame import ManifoldSpec, connection_table, covariant_derivative, spec_cached
from .npcore import (d_del, d_delbar, d_xi, grad_xi_norm_sq, spin_coefficients)
from .sampling import InsufficientSamples

__all__ = [
    "RoughLaplacian", "DivergenceResult", "CongruenceReport",
    "rough_laplacian_xi", "divergence_xi", "parallel_and_collinearity",
]

_SQ2 = np.sqrt(2.0)

_E1_W = (E.const(1.0), E.const(0.0), E.const(0.0))
_E2_W = (E.const(0.0), E.const(1.0), E.const(0.0))
_XI_W = (E.const(0.0), E.const(0.0), E.const(1.0))
_FRAME_W = (_E1_W, _E2_W, _XI_W)


@dataclass(frozen=True)
class RoughLaplacian:
    """Delta xi in frame components, by two routes.

    The transverse part of ``np_closed`` is that of Delta xi - |nabla xi|^2 xi.
    As one complex scalar, (np_closed[0] + i np_closed[1])/sqrt(2) = -conj(h)
    with h = D(rho) - Dbar(sigma) - 2 sigma conj(beta) - conj(rho) kappa
    - xi(kappa) - kappa conj(eps) - conj(kappa) sigma.  It vanishes exactly
    when xi is a harmonic vector field.  On trans-Sasakian specs h = D(rho),
    so np_closed[0] + i np_closed[1] = -sqrt(2) conj D(rho).
    """
    generic: tuple     # frame components from the real-frame definition
    np_closed: tuple   # frame components from the spin-coefficient form


@dataclass(frozen=True)
class DivergenceResult:
    direct: Expr    # sum_i g(nabla_{E_i} xi, E_i)
    np_form: Expr   # rho + conj rho = 2 Theta


@dataclass(frozen=True)
class CongruenceReport:
    """The congruence decisions over the samples and the maxima they were
    taken from.  The forms behind them are :func:`rough_laplacian_xi`,
    ``npcore.grad_xi_norm_sq`` and :func:`divergence_xi`; the collinearity
    factor is ``rough_laplacian_xi(spec).np_closed[2]``."""
    is_geodesic: bool
    is_shear_free: bool
    is_twist_free: bool
    expansion: str  # expanding | contracting | non_expanding | mixed | undetermined (NaN theta)
    is_parallel: bool
    is_harmonic: bool
    is_collinear: bool
    residuals: dict
    tol: float
    sample_count: int


@spec_cached
def rough_laplacian_xi(spec: ManifoldSpec) -> RoughLaplacian:
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
    return RoughLaplacian(generic=generic, np_closed=np_closed)


def divergence_xi(spec: ManifoldSpec) -> DivergenceResult:
    gamma = connection_table(spec).gamma
    direct = E.add(E.add(gamma[0][2][0], gamma[1][2][1]), gamma[2][2][2])
    np_form = E.mul(2.0, spin_coefficients(spec).rho.re)
    return DivergenceResult(direct=direct, np_form=np_form)


def _route_residuals(spec: ManifoldSpec) -> dict:
    """{xi-suite check: residual tree} of the route and Bochner identities."""
    lap, div, grad = rough_laplacian_xi(spec), divergence_xi(spec), grad_xi_norm_sq(spec)
    return {"laplacian_routes": [E.sub(a, b) for a, b in zip(lap.generic, lap.np_closed)],
            "divergence_routes": E.sub(div.direct, div.np_form),
            "bochner_reduction": E.sub(lap.generic[2], grad),
            "grad_norm_spin_identity": E.sub(grad, lap.np_closed[2])}


def _congruence_roots(spec: ManifoldSpec) -> tuple:
    """(maxima, sums): the roots :func:`parallel_and_collinearity` decides from."""
    maxima, sums = _spin_roots(spin_coefficients(spec))
    routes, lap = _route_residuals(spec), rough_laplacian_xi(spec)
    maxima["max_transverse_laplacian"] = residual(lap.generic[:2])
    for name in ("laplacian_routes", "divergence_routes", "bochner_reduction"):
        maxima[name] = residual(routes[name])
    return maxima, sums


def parallel_and_collinearity(spec: ManifoldSpec, samples=None,
                              tol=DEFAULT_TOL) -> CongruenceReport:
    pts = _samples(spec, samples)
    values = fold(*_congruence_roots(spec), pts, spec.params)
    return _congruence_report(values, len(pts), tol)


def _congruence_report(values: dict, n: int, tol=DEFAULT_TOL) -> CongruenceReport:
    """:func:`parallel_and_collinearity` from the folded :func:`_congruence_roots`
    of ``n`` samples; theta and omega are beta and alpha."""
    if n < MIN_SAMPLES:
        raise InsufficientSamples(f"congruence analysis needs >= {MIN_SAMPLES} points, got {n}")
    max_k, max_s = values["max_abs_kappa"], values["max_abs_sigma"]
    max_theta, max_omega = values["max_abs_beta"], values["max_abs_alpha"]
    transverse, bochner = values["max_transverse_laplacian"], values["bochner_reduction"]

    if max_theta != max_theta:  # a NaN theta decides nothing
        expansion = "undetermined"
    elif max_theta <= tol:
        expansion = "non_expanding"
    elif -values["max_neg_beta"] > tol:
        expansion = "expanding"
    elif values["max_beta"] < -tol:
        expansion = "contracting"
    else:
        expansion = "mixed"

    return CongruenceReport(
        is_geodesic=max_k <= tol,
        is_shear_free=max_s <= tol,
        is_twist_free=max_omega <= tol,
        expansion=expansion,
        is_parallel=all(x <= tol for x in (max_k, max_s, max_theta, max_omega)),
        is_harmonic=transverse <= tol and bochner <= tol,
        is_collinear=transverse <= tol,
        residuals={
            "max_abs_kappa": max_k,
            "max_abs_sigma": max_s,
            "max_abs_theta": max_theta,
            "max_abs_omega": max_omega,
            "max_transverse_laplacian": transverse,
            "bochner": bochner,
            "laplacian_route_discrepancy": values["laplacian_routes"],
            "divergence_route_discrepancy": values["divergence_routes"],
        },
        tol=tol,
        sample_count=n,
    )
