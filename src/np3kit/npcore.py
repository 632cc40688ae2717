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

Everything here works with frame components; directional derivatives along
D are complex combinations of the real frame derivatives.

The five generalized Sachs identities relate frame derivatives of the spin
coefficients to Ricci components; the two second-Bianchi identities do the
same for derivatives of Ricci components.  ``sachs_residuals`` and
``bianchi_residuals`` evaluate left minus right for each.  (Two sign/index
slips in the usual printed form of the Bianchi pair are corrected here; the
implemented identities are the ones that actually vanish for the
Levi-Civita connection, verified against a direct divergence computation.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expr as E
from .cexpr import CExpr, as_cexpr, c_const, eval_parts
from .expr import Expr
from .frame import (ManifoldSpec, connection_table, eval_table_many,
                    frame_directional, riemann)

__all__ = [
    "SpinCoefficients", "KinematicDecomposition", "GaugeAngle",
    "np_frame", "np_metric_residuals", "phi_apply",
    "spin_coefficients", "spin_coefficients_from_f", "kinematics",
    "gauge_transform", "weighted_derivative",
    "sachs_residuals", "bianchi_residuals",
    "d_del", "d_delbar", "d_xi", "ricci_complex", "grad_xi_norm_sq",
    "epsilon_realness",
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
        names = ("kappa", "sigma", "rho", "beta_np", "epsilon_np")
        cols = eval_parts([getattr(self, name) for name in names],
                          np.asarray([point], dtype=float), params)
        return {name: complex(re[0], im[0]) for name, (re, im) in zip(names, cols)}


@dataclass(frozen=True)
class KinematicDecomposition:
    theta: Expr      # expansion, Re rho
    omega: Expr      # twist, Im rho
    shear_mag: Expr  # |sigma|


@dataclass(frozen=True)
class GaugeAngle:
    theta_fn: Expr


def _cached(spec: ManifoldSpec, key, build):
    cache = spec._cache
    if key not in cache:
        cache[key] = build()
    return cache[key]


# --------------------------------------------------------------------------
# frame-level complex machinery

def np_frame(spec: ManifoldSpec):
    """(D, Dbar) as complex vectors in *coordinate* components."""
    F = spec.frame
    d = tuple(CExpr(E.mul(1 / _SQ2, F[0][l]), E.mul(-1 / _SQ2, F[1][l])) for l in range(3))
    dbar = tuple(c.conj() for c in d)
    return d, dbar


def np_metric_residuals(spec: ManifoldSpec, points) -> dict:
    """Max deviation of the complex-bilinear metric relations at sample points.

    The coordinate metric is reconstructed numerically from the frame:
    F G F^T = I.
    """
    vals = eval_table_many(spec.frame, points, spec.params, 2)
    G = np.linalg.inv(np.swapaxes(vals, 1, 2) @ vals)  # coordinate metric (F^T F)^-1
    G = np.einsum("nil,nlm,njm->nij", vals, G, vals)   # frame metric: identity
    # complex frame in frame components is constant; metric relations follow
    d = np.array([1 / _SQ2, -1j / _SQ2, 0.0])
    xi = np.array([0.0, 0.0, 1.0])

    def pair(a, b):
        return np.einsum("i,nij,j->n", a, G.astype(complex), b)

    return {
        "g(del,delbar)-1": float(np.max(np.abs(pair(d, d.conj()) - 1))),
        "g(del,del)": float(np.max(np.abs(pair(d, d)))),
        "g(xi,del)": float(np.max(np.abs(pair(xi, d)))),
        "g(xi,xi)-1": float(np.max(np.abs(pair(xi, xi) - 1))),
    }


def phi_apply(weights):
    """Induced (1,1) tensor on frame weights: phi e1 = e2, phi e2 = -e1, phi xi = 0."""
    a, b, _ = weights
    zero = c_const(0)
    return (-as_cexpr(b), as_cexpr(a), zero)


def cov_complex(spec: ManifoldSpec, Xw, Yw):
    """nabla_X Y for complex frame-weight fields (triples of CExpr)."""
    gamma = connection_table(spec).gamma
    Xw = tuple(as_cexpr(x) for x in Xw)
    Yw = tuple(as_cexpr(y) for y in Yw)
    out = []
    for m in range(3):
        acc = c_const(0)
        for i in range(3):
            xim = Xw[i]
            y = Yw[m]
            dre = frame_directional(spec, y.re, i)
            dim = frame_directional(spec, y.im, i)
            acc = acc + xim * CExpr(dre, dim)
            for k in range(3):
                acc = acc + xim * Yw[k] * as_cexpr(gamma[i][k][m])
        out.append(acc)
    return tuple(out)


def g_complex(Vw, Ww) -> CExpr:
    """Complex-bilinear metric on frame weights."""
    acc = c_const(0)
    for v, w in zip(Vw, Ww):
        acc = acc + as_cexpr(v) * as_cexpr(w)
    return acc


def d_frame(spec: ManifoldSpec, q, i: int) -> CExpr:
    q = as_cexpr(q)
    return CExpr(frame_directional(spec, q.re, i), frame_directional(spec, q.im, i))


def d_del(spec: ManifoldSpec, q) -> CExpr:
    """D(q) = (e1(q) - i e2(q))/sqrt(2)."""
    e1q, e2q = d_frame(spec, q, 0), d_frame(spec, q, 1)
    return c_const(1 / _SQ2) * e1q + c_const(-1j / _SQ2) * e2q


def d_delbar(spec: ManifoldSpec, q) -> CExpr:
    e1q, e2q = d_frame(spec, q, 0), d_frame(spec, q, 1)
    return c_const(1 / _SQ2) * e1q + c_const(1j / _SQ2) * e2q


def d_xi(spec: ManifoldSpec, q) -> CExpr:
    return d_frame(spec, q, 2)


# --------------------------------------------------------------------------
# spin coefficients

def spin_coefficients(spec: ManifoldSpec) -> SpinCoefficients:
    """The five coefficients from their defining inner products."""
    def build():
        ddxi = cov_complex(spec, W_DEL, W_XI)
        dbxi = cov_complex(spec, W_DELBAR, W_XI)
        xixi = cov_complex(spec, W_XI, W_XI)
        dd = cov_complex(spec, W_DEL, W_DEL)
        xid = cov_complex(spec, W_XI, W_DEL)
        return SpinCoefficients(
            kappa=-g_complex(W_DEL, xixi),
            sigma=-g_complex(W_DEL, ddxi),
            rho=g_complex(W_DEL, dbxi),
            beta_np=g_complex(W_DELBAR, dd),
            epsilon_np=g_complex(W_DELBAR, xid),
        )
    return _cached(spec, "spin", build)


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


def epsilon_realness(spec: ManifoldSpec, points) -> float:
    """Max |Re eps| over samples: reported, not assumed (it vanishes
    identically for orthonormal frames since 2 Re eps = xi(g(D, Dbar)))."""
    coeffs = spin_coefficients(spec)
    vals = E.evaluate_many(coeffs.epsilon_np.re, points, spec.params)
    return float(np.max(np.abs(vals)))


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

def gauge_transform(coeffs: SpinCoefficients, angle: GaugeAngle,
                    spec: ManifoldSpec) -> SpinCoefficients:
    """Spin coefficients of the rotated frame D' = e^{i theta} D.

        sigma' = e^{2 i theta} sigma      rho' = rho
        kappa' = e^{i theta} kappa        beta' = e^{i theta}(beta + i D(theta))
        eps'   = eps + i xi(theta)
    """
    th = angle.theta_fn
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


def weighted_derivative(q, s: int, direction: str, spec: ManifoldSpec,
                        coeffs: SpinCoefficients | None = None) -> CExpr:
    """Spin-weight preserving derivative of a weight-s quantity.

    direction: 'eth' -> D(q) - s q beta;  'eth_bar' -> Dbar(q) + s q conj(beta);
    'P' -> xi(q) - s eps q.
    """
    q = as_cexpr(q)
    if coeffs is None:
        coeffs = spin_coefficients(spec)
    sw = c_const(float(s))
    if direction == "eth":
        return d_del(spec, q) - sw * q * coeffs.beta_np
    if direction == "eth_bar":
        return d_delbar(spec, q) + sw * q * coeffs.beta_np.conj()
    if direction == "P":
        return d_xi(spec, q) - sw * coeffs.epsilon_np * q
    raise ValueError(f"direction must be eth, eth_bar or P, got {direction!r}")


# --------------------------------------------------------------------------
# Ricci components in the complex frame

def ricci_complex(spec: ManifoldSpec) -> dict:
    """Complex-bilinear Ricci entries keyed by frame pair."""
    def build():
        S = riemann(spec).ricci

        def sc(Vw, Ww):
            acc = c_const(0)
            for j in range(3):
                for k in range(3):
                    acc = acc + Vw[j] * Ww[k] * as_cexpr(S[j][k])
            return acc

        return {
            "dd": sc(W_DEL, W_DEL),
            "dx": sc(W_DEL, W_XI),
            "ddb": sc(W_DEL, W_DELBAR),
            "xx": sc(W_XI, W_XI),
            "dbx": sc(W_DELBAR, W_XI),
            "dbdb": sc(W_DELBAR, W_DELBAR),
        }
    return _cached(spec, "ricci_c", build)


# --------------------------------------------------------------------------
# Sachs and Bianchi residuals

def _sachs_exprs(spec: ManifoldSpec):
    def build():
        co = spin_coefficients(spec)
        k, s, r, b, e = co.kappa, co.sigma, co.rho, co.beta_np, co.epsilon_np
        kb, sb, rb, bb = k.conj(), s.conj(), r.conj(), b.conj()
        S = ricci_complex(spec)
        half = c_const(0.5)
        res = [
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
        ]
        return res
    return _cached(spec, "sachs", build)


def sachs_residuals(spec: ManifoldSpec, point) -> list[complex]:
    """LHS - RHS of the five generalized Sachs equations at a point."""
    return [r.evaluate(point, spec.params) for r in _sachs_exprs(spec)]


def sachs_residuals_many(spec: ManifoldSpec, points) -> np.ndarray:
    cols = eval_parts(_sachs_exprs(spec), points, spec.params)
    return np.stack([re + 1j * im for re, im in cols], axis=1)


def _bianchi_exprs(spec: ManifoldSpec):
    def build():
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
        return [res_xi, res_d]
    return _cached(spec, "bianchi", build)


def bianchi_residuals(spec: ManifoldSpec, point) -> list[complex]:
    """LHS - RHS of the two second-Bianchi identities at a point."""
    return [r.evaluate(point, spec.params) for r in _bianchi_exprs(spec)]


def bianchi_residuals_many(spec: ManifoldSpec, points) -> np.ndarray:
    cols = eval_parts(_bianchi_exprs(spec), points, spec.params)
    return np.stack([re + 1j * im for re, im in cols], axis=1)


def _sachs_ricci_exprs(spec: ManifoldSpec) -> dict:
    def build():
        co = spin_coefficients(spec)
        k, s, r, b, e = co.kappa, co.sigma, co.rho, co.beta_np, co.epsilon_np
        kb, rb, bb = k.conj(), r.conj(), b.conj()
        S_dd = (d_xi(spec, s) - d_del(spec, k)
                - (k * k + c_const(2) * s * e - s * (r + rb) - k * b))
        S_dx = -d_del(spec, r) - d_delbar(spec, s) - (c_const(2) * s * bb + (r - rb) * k)
        S_xx = c_const(-2) * (d_xi(spec, r) + d_delbar(spec, k)
                              + as_cexpr(k.abs2()) + as_cexpr(s.abs2()) + r * r + k * bb)
        S_ddb = (as_cexpr(s.abs2()) - as_cexpr(r.abs2()) - c_const(2) * as_cexpr(b.abs2())
                 - (r - rb) * e - d_del(spec, bb) - d_delbar(spec, b) + c_const(0.5) * S_xx)
        return {"dd": S_dd, "dx": S_dx, "xx": S_xx, "ddb": S_ddb}
    return _cached(spec, "sachs_ricci", build)


def ricci_from_sachs_many(spec: ManifoldSpec, points) -> np.ndarray:
    """(N,3,3) real-frame Ricci reconstructed by solving the Sachs equations
    for the curvature terms; independent of riemann() except through the
    connection."""
    ex = _sachs_ricci_exprs(spec)
    v_dd, v_dx, v_xx, v_ddb = (re + 1j * im for re, im in eval_parts(
        [ex[k] for k in ("dd", "dx", "xx", "ddb")], points, spec.params))
    out = np.empty((len(v_dd), 3, 3))
    out[:, 0, 0] = v_dd.real + v_ddb.real
    out[:, 1, 1] = -v_dd.real + v_ddb.real
    out[:, 0, 1] = out[:, 1, 0] = -v_dd.imag
    out[:, 0, 2] = out[:, 2, 0] = _SQ2 * v_dx.real
    out[:, 1, 2] = out[:, 2, 1] = -_SQ2 * v_dx.imag
    out[:, 2, 2] = v_xx.real
    return out

