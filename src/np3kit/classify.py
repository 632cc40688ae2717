r"""Classify the almost contact metric structure induced by the frame.

Once a metric and orientation are fixed, a unit vector field xi determines
the whole structure: phi rotates the plane orthogonal to xi a quarter turn
(phi e1 = e2, phi e2 = -e1, phi xi = 0) and eta = g(xi, .).  The structure
is trans-Sasakian exactly when the congruence of xi is geodesic and
shear-free (kappa = sigma = 0), and then rho = beta + i alpha carries the
type functions.

The trans-Sasakian curvature identities, and the Einstein test's closed
forms, are read off the Sachs equations at kappa = sigma = 0
(``npcore._sachs_ricci``): this module takes no frame derivative of its own.

That gate is decided in one place, :func:`_not_trans_sasakian`, over the
folded roots ``max_abs_kappa`` and ``max_abs_sigma`` of :func:`_gate_roots`,
for every caller: the verdict, the Einstein test and the skip of the ts
suite, which checks :func:`ts_identity_forms`.  Each caller passes its own
tolerance.  A NaN in either maximum fails the gate: NotTransSasakian.

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

from dataclasses import dataclass, field, replace

import numpy as np

from . import expr as E
from .cexpr import as_cexpr, c_const, fold, residual
from .frame import (ManifoldSpec, connection_table, default_samples, riemann,
                    spec_cached)
from .npcore import (W_DEL, W_DELBAR, W_XI, SpinCoefficients, _sachs_ricci, contract,
                     ricci_complex, spin_coefficients)
from .sampling import InsufficientSamples

__all__ = [
    "StructureClass", "EinsteinVerdict", "NotTransSasakian", "VERDICTS",
    "classify", "ts_identity_forms", "einstein_check",
]

VERDICTS = ("NotTransSasakian", "TransSasakian", "C6", "AlphaSasakian",
            "Sasakian", "C5", "BetaKenmotsu", "Kenmotsu", "Cosymplectic")

DEFAULT_TOL = 1e-8
DEFAULT_TOL_CONST = 1e-6
MIN_SAMPLES = 20
DEFAULT_COUNT = 100  # points drawn (seed 0) when a sweep is given no samples

# phi on frame components: rows are the images of (e1, e2, xi); eta = g(xi, .)
PHI_MATRIX = ((0.0, 1.0, 0.0), (-1.0, 0.0, 0.0), (0.0, 0.0, 0.0))
ETA = (0.0, 0.0, 1.0)


class NotTransSasakian(RuntimeError):
    """Operation requires kappa = sigma = 0 and the spec is not of that kind.

    ``worst`` is max(|kappa|, |sigma|) over the points that were checked.
    """

    def __init__(self, spec_name: str, worst: float):
        super().__init__(f"{spec_name!r} has max(|kappa|,|sigma|) = {worst:.3e} over the samples")
        self.worst = worst


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


def _samples(spec: ManifoldSpec, samples) -> np.ndarray:
    """``samples`` as an array, or DEFAULT_COUNT seed-0 points of the spec's box."""
    return default_samples(spec, DEFAULT_COUNT) if samples is None else np.asarray(samples)


def _spin_roots(co: SpinCoefficients) -> tuple:
    """(maxima, sums): the roots of ``cexpr.fold`` that :func:`classify`
    decides from, by name, over the spin coefficients ``co``."""
    alpha, beta = co.rho.im, co.rho.re
    maxima = {"max_abs_kappa": residual(co.kappa), "max_abs_sigma": residual(co.sigma),
              "max_abs_rho": residual(co.rho), "max_abs_alpha": residual(alpha),
              "max_abs_beta": residual(beta), "max_alpha": alpha, "max_neg_alpha": -alpha,
              "max_beta": beta, "max_neg_beta": -beta}
    return maxima, {"sum_alpha": alpha, "sum_beta": beta}


def _spread(hi, lo, center) -> float:
    """max |x - center| for x from ``lo`` to ``hi``: rounding is monotone, so
    this is bit for bit ``np.max(np.abs(x - center))``, NaN included."""
    return float(np.maximum(abs(hi - center), abs(center - lo)))


def _summary(values: dict, name: str, n: int) -> tuple:
    """(mean, max deviation from the mean) of alpha or beta."""
    mean = values[f"sum_{name}"] / n
    return mean, _spread(values[f"max_{name}"], -values[f"max_neg_{name}"], mean)


def _gate_roots(spec: ManifoldSpec) -> dict:
    """The roots of the kappa = sigma = 0 gate, as :func:`_spin_roots` names them."""
    maxima = _spin_roots(spin_coefficients(spec))[0]
    return {name: maxima[name] for name in ("max_abs_kappa", "max_abs_sigma")}


def _not_trans_sasakian(values: dict, tol, name: str = "") -> NotTransSasakian | None:
    """The kappa = sigma = 0 gate over the folded :func:`_gate_roots` in
    ``values``: None when both maxima are <= ``tol``, else the error for spec
    ``name``, whose ``worst`` is NaN when either maximum is."""
    worst = float(np.maximum(values["max_abs_kappa"], values["max_abs_sigma"]))
    return None if worst <= tol else NotTransSasakian(name, worst)


def _verdict(values: dict, n: int, tol, tol_const) -> str:
    """The verdict lattice over the folded :func:`_spin_roots` of ``n`` samples."""
    # a NaN in rho, which its modulus carries into its max, decides no class
    rho = values["max_abs_rho"]
    if _not_trans_sasakian(values, tol) or rho != rho:
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


def classify(spec: ManifoldSpec, samples=None, tol=DEFAULT_TOL,
             tol_const=DEFAULT_TOL_CONST) -> StructureClass:
    pts = _samples(spec, samples)
    values = fold(*_spin_roots(spin_coefficients(spec)), pts, spec.params)
    return _structure_class(values, len(pts), tol, tol_const)


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
def _ts_closed_forms(spec: ManifoldSpec) -> tuple:
    """``npcore._sachs_ricci`` at kappa = sigma = 0: (T, S) with the curvature
    term T[4] = -(xi(rho) + rho^2) and the Ricci entry S(D,xi) = -D(rho)."""
    zero = c_const(0)
    return _sachs_ricci(spec, replace(spin_coefficients(spec), kappa=zero, sigma=zero))


def ts_identity_forms(spec: ManifoldSpec) -> dict:
    """{identity: the forms that vanish when it holds} for the trans-Sasakian
    curvature identities; they hold where kappa = sigma = 0."""
    (*_, t4), closed = _ts_closed_forms(spec)
    S, gm, data = ricci_complex(spec), connection_table(spec).gamma, riemann(spec)
    R, tau, r = data.riemann, data.scalar, spin_coefficients(spec).rho
    alpha, beta, zero, n = r.im, r.re, c_const(0), range(3)

    def display(V, W, Z, a, b):
        """R(V, W)Z - (a D + b Dbar) in frame components."""
        return [contract([[[R[i][j][k][l] for k in n] for j in n] for i in n], V, W, Z)
                - (a * W_DEL[l] + b * W_DELBAR[l]) for l in n]

    f = [[gm[i][2][j] for j in range(3)] for i in range(3)]  # f[i][j] = Gamma_{i,xi,j}
    return {
        # 2 alpha beta + d alpha(xi) = 0, in its complex form
        "alpha_beta_xi": t4.conj() - t4,
        "R_del_delbar_xi": display(W_DEL, W_DELBAR, W_XI, closed["dx"].conj(), -closed["dx"]),
        "R_del_xi_xi": display(W_DEL, W_XI, W_XI, t4.conj(), zero),
        "R_delbar_xi_xi": display(W_DELBAR, W_XI, W_XI, zero, t4),
        "ricci_del_del": S["dd"] - closed["dd"],
        "ricci_del_xi": S["dx"] - closed["dx"],
        "ricci_xi_xi": S["xx"] - closed["xx"],
        "ricci_del_delbar": S["ddb"] - closed["ddb"],
        "scalar_curvature": as_cexpr(tau) - (closed["ddb"] + c_const(0.5) * closed["xx"]),
        # nabla_X xi = -alpha phi X + beta (X - eta(X) xi)
        "nabla_xi": [E.sub(E.add(f[i][j], E.mul(PHI_MATRIX[i][j], alpha)),
                           E.mul(float(i == j) - ETA[i] * ETA[j], beta)) for i in n for j in n],
    }


def _einstein_roots(spec: ManifoldSpec) -> tuple:
    """(maxima, sums): the roots :func:`einstein_check` decides from, by name."""
    S, closed = riemann(spec).ricci, _ts_closed_forms(spec)[1]
    n = range(3)
    maxima = {**_gate_roots(spec),
              "max_abs_S_offdiag": residual([S[i][j] for i in n for j in n if i != j]),
              **{f"max_S{i}{i}": S[i][i] for i in n}, **{f"max_neg_S{i}{i}": -S[i][i] for i in n},
              "max_abs_d_rho": residual(closed["dx"]),
              "einstein_closed_form": residual(closed["ddb"] - closed["xx"])}
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
    if not _not_trans_sasakian(values, tol):
        residuals.update({k: values[k] for k in ("max_abs_d_rho", "einstein_closed_form")})
    return EinsteinVerdict(is_einstein=dev <= max(tol, tol * (1 + abs(a))), a=a,
                           residuals=residuals)
