r"""Complex Newman-Penrose frame, spin coefficients, gauge moves and residuals.

The complex frame is D = (e1 - i e2)/sqrt(2), Dbar = (e1 + i e2)/sqrt(2),
together with xi; the metric extends complex-bilinearly, so in frame
components g(V, W) = sum_k V_k W_k and g(D, Dbar) = 1, g(D, D) = 0.

Five spin coefficients encode the connection:

    sigma = -g(D, nabla_D xi)        complex shear
    rho   =  g(D, nabla_Dbar xi)     expansion + i twist
    kappa = -g(D, nabla_xi xi)       acceleration
    beta  =  g(Dbar, nabla_D D)
    eps   =  g(Dbar, nabla_xi D)     frame rotation along xi (purely imaginary)

Every NP scalar is a :func:`contract` of a real frame table with the
constant null-frame weights of D, Dbar and xi: the spin coefficients of the
connection table, the Ricci scalars of the Ricci table, D(q) of e1(q), e2(q).

The five generalized Sachs identities relate frame derivatives of the spin
coefficients to Ricci components; the two second-Bianchi identities do the
same for derivatives of Ricci components.  ``sachs_forms`` and
``bianchi_forms`` are left minus right of each, as forms that vanish;
``cexpr.eval_forms`` evaluates them over (N,3) points.  The Sachs equations
are written once, in ``_sachs``, for any spin coefficients and Ricci entries;
at zero Ricci entries each is its curvature term, which ``_sachs_ricci``
solves for Ricci (``ricci_from_sachs_forms``, and classify at kappa = sigma = 0).
(Two sign/index slips in the usual printed form of the Bianchi pair are
corrected here; the implemented identities are the ones that actually vanish
for the Levi-Civita connection, verified against a direct divergence computation.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expr as E
from .cexpr import CExpr, as_cexpr, c_const, eval_forms
from .expr import Expr
from .frame import (ManifoldSpec, _frame_inverse, connection_table, frame_directional,
                    riemann, spec_cached)

__all__ = [
    "SpinCoefficients", "KinematicDecomposition", "np_frame", "np_metric_forms",
    "spin_coefficients", "spin_coefficients_from_f", "kinematics",
    "gauge_transform", "weighted_derivative",
    "sachs_forms", "bianchi_forms", "ricci_from_sachs_forms",
    "d_del", "d_delbar", "d_xi", "ricci_complex", "grad_xi_norm_sq",
]

_SQ2 = math.sqrt(2.0)

# constant frame weights of the complex frame vectors over (e1, e2, xi)
W_DEL = (c_const(1 / _SQ2), c_const(-1j / _SQ2), c_const(0))
W_DELBAR = (c_const(1 / _SQ2), c_const(1j / _SQ2), c_const(0))
W_XI = (c_const(0), c_const(0), c_const(1))


@dataclass(frozen=True)
class SpinCoefficients:
    kappa: CExpr
    sigma: CExpr
    rho: CExpr
    beta_np: CExpr
    epsilon_np: CExpr

    def evaluate(self, point, params=None) -> dict:
        forms = {name: getattr(self, name)
                 for name in ("kappa", "sigma", "rho", "beta_np", "epsilon_np")}
        values = eval_forms(forms, np.asarray([point], dtype=float), params)
        return {name: complex(z[0]) for name, z in values.items()}


@dataclass(frozen=True)
class KinematicDecomposition:
    theta: Expr      # expansion, Re rho
    omega: Expr      # twist, Im rho
    shear_mag: Expr  # |sigma|


# --------------------------------------------------------------------------
# frame-level complex machinery

def np_frame(spec: ManifoldSpec):
    """(D, Dbar) as complex vectors in *coordinate* components."""
    d = tuple(contract(column, W_DEL) for column in zip(*spec.frame))
    return d, tuple(c.conj() for c in d)


def np_metric_forms(spec: ManifoldSpec) -> dict:
    """The complex-bilinear metric relations, as forms that vanish.

    The frame metric F G F^T (the identity) is rebuilt from the symbolic
    frame inverse, with G = F^-1 F^-T, as P P^T for P = F F^-1, and paired
    with the constant complex-frame weights.
    """
    F, finv = spec.frame, _frame_inverse(spec)

    def dot(u, v):
        return sum((x * y for x, y in zip(u, v)), E.const(0.0))

    P = [[dot(F[i], [finv[l][k] for l in range(3)]) for k in range(3)] for i in range(3)]
    gram = [[dot(p, q) for q in P] for p in P]
    return {"g(del,delbar)-1": contract(gram, W_DEL, W_DELBAR) - 1,
            "g(del,del)": contract(gram, W_DEL, W_DEL), "g(xi,del)": contract(gram, W_XI, W_DEL),
            "g(xi,xi)-1": contract(gram, W_XI, W_XI) - 1}


def _nonzero(weights) -> list:
    """(index, weight) for the weights that are not an exact zero."""
    return [(i, w) for i, w in enumerate(weights)
            if not (E._is_const(w.re, 0.0) and E._is_const(w.im, 0.0))]


def contract(table, *weights) -> CExpr:
    """The sum over i, j, ... of w1[i] w2[j] ... table[i][j]...: the weights
    multiply first, then the entry, and an exact-zero weight is skipped, so
    its index never reads the table."""
    terms = [(table, c_const(1))]
    for w in weights:
        terms = [(t[i], c * x) for t, c in terms for i, x in _nonzero(w)]
    return sum((c * as_cexpr(t) for t, c in terms), c_const(0))


def d_frame(spec: ManifoldSpec, q, i: int) -> CExpr:
    q = as_cexpr(q)
    return CExpr(frame_directional(spec, q.re, i), frame_directional(spec, q.im, i))


def d_del(spec: ManifoldSpec, q) -> CExpr:
    """D(q) = (e1(q) - i e2(q))/sqrt(2); D weighs no xi, so no xi(q) is read."""
    return contract((d_frame(spec, q, 0), d_frame(spec, q, 1)), W_DEL)


def d_delbar(spec: ManifoldSpec, q) -> CExpr:
    return contract((d_frame(spec, q, 0), d_frame(spec, q, 1)), W_DELBAR)


def d_xi(spec: ManifoldSpec, q) -> CExpr:
    return d_frame(spec, q, 2)


# --------------------------------------------------------------------------
# spin coefficients

@spec_cached
def spin_coefficients(spec: ManifoldSpec) -> SpinCoefficients:
    """The five coefficients as contractions of the connection table
    Gamma[i][j][k] = g(nabla_{E_i} E_j, E_k) with the constant null-frame
    weights; constant weights have no derivative, so each is exactly its
    defining inner product, e.g. sigma = -g(D, nabla_D xi)."""
    gamma = connection_table(spec).gamma
    return SpinCoefficients(
        kappa=-contract(gamma, W_XI, W_XI, W_DEL),
        sigma=-contract(gamma, W_DEL, W_XI, W_DEL),
        rho=contract(gamma, W_DELBAR, W_XI, W_DEL),
        beta_np=contract(gamma, W_DEL, W_DEL, W_DELBAR),
        epsilon_np=contract(gamma, W_XI, W_DEL, W_DELBAR),
    )


def spin_coefficients_from_f(spec: ManifoldSpec) -> SpinCoefficients:
    """Independent route through the real shape operator entries f_ij.

    With nabla_{e_i} xi = f_i1 e1 + f_i2 e2 and nabla_xi xi = f_31 e1 + f_32 e2:

        kappa = -(f31 - i f32)/sqrt(2)
        sigma = -((f11 - f22) - i(f21 + f12))/2
        rho   =  ((f11 + f22) + i(f21 - f12))/2

    beta and eps reduce to single connection entries the same way.
    """
    gm = connection_table(spec).gamma
    f = [[gm[i][2][j] for j in range(2)] for i in range(3)]
    half = E.const(0.5)
    kappa = CExpr(E.mul(-1 / _SQ2, f[2][0]), E.mul(1 / _SQ2, f[2][1]))
    sigma = CExpr(E.mul(E.neg(half), E.sub(f[0][0], f[1][1])),
                  E.mul(half, E.add(f[1][0], f[0][1])))
    rho = CExpr(E.mul(half, E.add(f[0][0], f[1][1])),
                E.mul(half, E.sub(f[1][0], f[0][1])))
    beta = CExpr(E.mul(1 / _SQ2, gm[1][0][1]), E.mul(1 / _SQ2, gm[0][0][1]))
    eps = CExpr(E.const(0.0), gm[2][0][1])
    return SpinCoefficients(kappa=kappa, sigma=sigma, rho=rho, beta_np=beta, epsilon_np=eps)


def kinematics(coeffs: SpinCoefficients) -> KinematicDecomposition:
    return KinematicDecomposition(
        theta=coeffs.rho.re,
        omega=coeffs.rho.im,
        shear_mag=E.sqrt(coeffs.sigma.abs2()),
    )


def grad_xi_norm_sq(spec: ManifoldSpec) -> Expr:
    """Frobenius norm squared of nabla xi from the connection entries."""
    gm = connection_table(spec).gamma
    acc = E.const(0.0)
    for i in range(3):
        for j in range(2):
            acc = E.add(acc, E.mul(gm[i][2][j], gm[i][2][j]))
    return acc


# --------------------------------------------------------------------------
# gauge transformations and weighted operators

def gauge_transform(coeffs: SpinCoefficients, th: Expr,
                    spec: ManifoldSpec) -> SpinCoefficients:
    """Spin coefficients of the rotated frame D' = e^{i theta} D, for the
    angle expression ``th``.

        sigma' = e^{2 i theta} sigma      rho' = rho
        kappa' = e^{i theta} kappa        beta' = e^{i theta}(beta + i D(theta))
        eps'   = eps + i xi(theta)
    """
    phase = CExpr(E.cos(th), E.sin(th))
    phase2 = phase * phase
    i_unit = c_const(1j)
    dtheta = d_del(spec, CExpr(th, E.const(0.0)))
    xitheta = frame_directional(spec, th, 2)
    return SpinCoefficients(
        kappa=phase * coeffs.kappa,
        sigma=phase2 * coeffs.sigma,
        rho=coeffs.rho,
        beta_np=phase * (coeffs.beta_np + i_unit * dtheta),
        epsilon_np=coeffs.epsilon_np + i_unit * CExpr(xitheta, E.const(0.0)),
    )


def weighted_derivative(q, s: int, direction: str, spec: ManifoldSpec) -> CExpr:
    """Spin-weight preserving derivative of a weight-s quantity.

    direction: 'eth' -> D(q) - s q beta;  'eth_bar' -> Dbar(q) + s q conj(beta);
    'P' -> xi(q) - s eps q.
    """
    q, coeffs, sw = as_cexpr(q), spin_coefficients(spec), c_const(float(s))
    if direction == "eth":
        return d_del(spec, q) - sw * q * coeffs.beta_np
    if direction == "eth_bar":
        return d_delbar(spec, q) + sw * q * coeffs.beta_np.conj()
    if direction == "P":
        return d_xi(spec, q) - sw * coeffs.epsilon_np * q
    raise ValueError(f"direction must be eth, eth_bar or P, got {direction!r}")


# --------------------------------------------------------------------------
# Ricci components in the complex frame

@spec_cached
def ricci_complex(spec: ManifoldSpec) -> dict:
    """Complex-bilinear Ricci entries keyed by frame pair."""
    S = riemann(spec).ricci
    return {
        "dd": contract(S, W_DEL, W_DEL),
        "dx": contract(S, W_DEL, W_XI),
        "ddb": contract(S, W_DEL, W_DELBAR),
        "xx": contract(S, W_XI, W_XI),
        "dbx": contract(S, W_DELBAR, W_XI),
        "dbdb": contract(S, W_DELBAR, W_DELBAR),
    }


# --------------------------------------------------------------------------
# Sachs and Bianchi residuals

def _sachs(spec: ManifoldSpec, co: SpinCoefficients, S: dict) -> tuple:
    """LHS - RHS of the five generalized Sachs equations, as complex forms, for
    spin coefficients ``co`` and complex Ricci entries ``S`` by :func:`ricci_complex` key."""
    k, s, r, b, e = co.kappa, co.sigma, co.rho, co.beta_np, co.epsilon_np
    kb, rb, bb = k.conj(), r.conj(), b.conj()
    half = c_const(0.5)
    return (
        # xi(sigma) - D(kappa) = kappa^2 + 2 sigma eps - sigma(rho+conj rho)
        #                        - kappa beta + S(D,D)
        d_xi(spec, s) - d_del(spec, k)
        - (k * k + c_const(2) * s * e - s * (r + rb) - k * b + S["dd"]),
        # -D(rho) - Dbar(sigma) = 2 sigma conj(beta) + (rho - conj rho) kappa + S(D,xi)
        -d_del(spec, r) - d_delbar(spec, s)
        - (c_const(2) * s * bb + (r - rb) * k + S["dx"]),
        # xi(beta) - D(eps) = sigma(conj kappa - conj beta) + kappa(eps + conj rho)
        #                     + beta(eps - conj rho) - S(D,xi)
        d_xi(spec, b) - d_del(spec, e)
        - (s * (kb - bb) + k * (e + rb) + b * (e - rb) - S["dx"]),
        # D(conj beta) + Dbar(beta) = |sigma|^2 - |rho|^2 - 2|beta|^2
        #                             - (rho - conj rho) eps - S(D,Dbar) + S(xi,xi)/2
        d_del(spec, bb) + d_delbar(spec, b)
        - (as_cexpr(s.abs2()) - as_cexpr(r.abs2()) - c_const(2) * as_cexpr(b.abs2())
           - (r - rb) * e - S["ddb"] + half * S["xx"]),
        # -xi(rho) - Dbar(kappa) = |kappa|^2 + |sigma|^2 + rho^2
        #                          + kappa conj(beta) + S(xi,xi)/2
        -d_xi(spec, r) - d_delbar(spec, k)
        - (as_cexpr(k.abs2()) + as_cexpr(s.abs2()) + r * r + k * bb + half * S["xx"]),
    )


@spec_cached
def sachs_forms(spec: ManifoldSpec) -> tuple:
    """LHS - RHS of the five generalized Sachs equations, as complex forms."""
    return _sachs(spec, spin_coefficients(spec), ricci_complex(spec))


def _sachs_ricci(spec: ManifoldSpec, co: SpinCoefficients) -> tuple:
    """(T, S): T the five Sachs forms of ``co`` at zero Ricci entries, where
    each is its curvature term, and S the complex Ricci entries, by
    :func:`ricci_complex` key, that make them vanish."""
    T = _sachs(spec, co, dict.fromkeys(("dd", "dx", "ddb", "xx"), c_const(0)))
    S_xx = c_const(2) * T[4]
    return T, {"dd": T[0], "dx": T[1], "ddb": c_const(0.5) * S_xx - T[3], "xx": S_xx}


@spec_cached
def bianchi_forms(spec: ManifoldSpec) -> tuple:
    """LHS - RHS of the two second-Bianchi identities, as complex forms."""
    co = spin_coefficients(spec)
    k, s, r, b, e = co.kappa, co.sigma, co.rho, co.beta_np, co.epsilon_np
    kb, sb, rb, bb = k.conj(), s.conj(), r.conj(), b.conj()
    S = ricci_complex(spec)
    half = c_const(0.5)
    two = c_const(2)
    # xi-component of the contracted second Bianchi identity
    res_xi = (d_del(spec, S["dbx"]) + d_delbar(spec, S["dx"])
              - d_xi(spec, S["ddb"]) + half * d_xi(spec, S["xx"])
              - (-(r + rb) * (S["xx"] - S["ddb"]) - sb * S["dd"] - s * S["dbdb"]
                 - (two * kb + bb) * S["dx"] - (two * k + b) * S["dbx"]))
    # D-component
    res_d = (d_xi(spec, S["dx"]) - half * d_del(spec, S["xx"]) + d_delbar(spec, S["dd"])
             - (k * S["xx"] + (e - rb - two * r) * S["dx"] + s * S["dbx"]
                - (kb + two * bb) * S["dd"] - k * S["ddb"]))
    return (res_xi, res_d)


@spec_cached
def ricci_from_sachs_forms(spec: ManifoldSpec) -> tuple:
    """The (3,3) real-frame Ricci table solved from the Sachs equations for
    the curvature terms; independent of riemann() except through the
    connection."""
    S = _sachs_ricci(spec, spin_coefficients(spec))[1]
    S_dd, S_dx, S_ddb, S_xx = S["dd"], S["dx"], S["ddb"], S["xx"]
    s01, s02, s12 = E.neg(S_dd.im), E.mul(_SQ2, S_dx.re), E.mul(-_SQ2, S_dx.im)
    return ((E.add(S_dd.re, S_ddb.re), s01, s02),
            (s01, E.add(E.neg(S_dd.re), S_ddb.re), s12),
            (s02, s12, S_xx.re))
