"""Named residual-check suites over a sample-point sweep.

Each check is a dict {name, max_residual, tolerance, pass}, built by
:func:`_record` as every check record is; a suite is a list of checks.
These identities hold exactly for the Levi-Civita connection, so with
exact symbolic differentiation the only residual is floating-point
roundoff; the default tolerance is absolute 1e-8.

A suite is one function, ``suite(spec) -> {check name: tree}``: each tree
holds the forms that vanish when its identity holds (see
``cexpr.residual``), and the check's value is the max of their moduli over
the samples.  :func:`run_request` runs a whole request, and it streams:
every check becomes one residual root, and ``cexpr.fold`` runs the tape of
all the roots over ``expr.CHUNK``-point slices of the samples, keeping a
running max per root.  A caller's whole-sample quantities (``catalog.run``'s
verdict, flags and Einstein test) ride along as more roots, each folded to a
max or a sum, so peak memory is set by the chunk size and the width of the
DAG, not by the sample count.  The ts suite rides with the two roots of
``classify``'s kappa = sigma = 0 gate, and is replaced by one skip record
when that gate fails over the samples (at the request's tolerance, but never
below ``DEFAULT_TOL``).  The skip passes, except on a NaN maximum, which
decides nothing.  A DomainError, raised after the last slice, names the
node and sample it would name unchunked.
"""

from __future__ import annotations

import math

from . import expr as E
from .cexpr import fold, residual
from .classify import DEFAULT_TOL, _gate_roots, _not_trans_sasakian, ts_identity_forms
from .frame import (ManifoldSpec, connection_table, kulkarni_nomizu_forms, riemann,
                    structure_functions)
from .npcore import (bianchi_forms, grad_xi_norm_sq, np_metric_forms, ricci_complex,
                     ricci_from_sachs_forms, sachs_forms, spin_coefficients,
                     spin_coefficients_from_f)
from .xi import _route_residuals

__all__ = ["SUITE_NAMES", "run_suite", "run_suites", "run_request", "suite_passed"]

SUITE_NAMES = ("sachs", "bianchi", "kn", "ts", "xi")

# checks with a fixed tolerance; every other check uses the request's
TOLERANCES = {"spin_coefficient_routes": 1e-10, "ricci_diag": 1e-9, "ricci_xi_xi": 1e-9}


def _record(name, ok, **fields):
    """The record of one check: its name, ``fields`` in order, then its pass bit."""
    return {"name": name, **fields, "pass": bool(ok)}


def _check(name, value, tol):
    """The record of one residual check: it passes when ``value`` <= ``tol``."""
    value = float(value)
    return _record(name, value <= tol, max_residual=value, tolerance=tol)


def _kn(spec: ManifoldSpec) -> dict:
    g, c = connection_table(spec).gamma, structure_functions(spec).c
    data = riemann(spec)
    R, S, tau, Sc = data.riemann, data.ricci, data.scalar, ricci_complex(spec)
    n = range(3)
    # a commuted sum or a negated difference is the same number in either
    # index order, so a symmetric check lists one order only
    return {
        "metric_compatibility": [E.add(g[i][j][k], g[i][k][j])
                                 for i in n for j in n for k in n if j <= k],
        "torsion_free": [E.sub(E.sub(g[i][j][k], g[j][i][k]), c[i][j][k])
                         for i in n for j in n for k in n],
        "riemann_antisym_first_pair": [E.add(R[i][j][k][l], R[j][i][k][l])
                                       for i in n for j in n for k in n for l in n if i <= j],
        "riemann_antisym_last_pair": [E.add(R[i][j][k][l], R[i][j][l][k])
                                      for i in n for j in n for k in n for l in n if k <= l],
        "riemann_pair_symmetry": [E.sub(R[i][j][k][l], R[k][l][i][j]) for i in n for j in n
                                  for k in n for l in n if (i, j) <= (k, l)],
        "riemann_first_bianchi": [E.add(E.add(R[i][j][k][l], R[k][i][j][l]), R[j][k][i][l])
                                  for i in n for j in n for k in n for l in n],
        "ricci_symmetric": [E.sub(S[j][k], S[k][j]) for j in n for k in n if j <= k],
        "kulkarni_nomizu": kulkarni_nomizu_forms(spec),
        "scalar_convention": E.sub(tau, E.add(Sc["ddb"].re, E.mul(0.5, Sc["xx"].re))),
        "np_metric": np_metric_forms(spec),
    }


_SPIN_NAMES = ("kappa", "sigma", "rho", "beta_np", "epsilon_np")


def _sachs(spec: ManifoldSpec) -> dict:
    res, S, rec = sachs_forms(spec), riemann(spec).ricci, ricci_from_sachs_forms(spec)
    a, b = spin_coefficients(spec), spin_coefficients_from_f(spec)
    names = ("sachs_shear", "sachs_del_rho", "sachs_beta_eps",
             "sachs_transverse_ricci", "sachs_xi_rho")
    return {
        **dict(zip(names, res)),
        "ricci_from_sachs": [E.sub(S[j][k], rec[j][k]) for j in range(3) for k in range(3)],
        # the two routes to the spin coefficients must agree
        "spin_coefficient_routes": [getattr(a, name) - getattr(b, name) for name in _SPIN_NAMES],
    }


def _bianchi(spec: ManifoldSpec) -> dict:
    res_xi, res_d = bianchi_forms(spec)
    return {"bianchi_xi_component": res_xi, "bianchi_del_component": res_d}


def _ts(spec: ManifoldSpec) -> dict:
    shared = _route_residuals(spec)
    rho = spin_coefficients(spec).rho
    return {**{f"ts_{name}": tree for name, tree in ts_identity_forms(spec).items()},
            "ts_div_2theta": shared["divergence_routes"],
            "ts_grad_norm_2rho2": E.sub(grad_xi_norm_sq(spec), E.mul(2.0, rho.abs2())),
            "ts_laplacian_closed_form": shared["laplacian_routes"],
            "ts_bochner": shared["bochner_reduction"]}


def _xi(spec: ManifoldSpec) -> dict:
    return {**_route_residuals(spec),
            "epsilon_purely_imaginary": spin_coefficients(spec).epsilon_np.re}


_SUITES = {"kn": _kn, "sachs": _sachs, "bianchi": _bianchi, "ts": _ts, "xi": _xi}


def _suite(name: str):
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; valid: {', '.join(SUITE_NAMES)} or all")
    return _SUITES[name]


def run_suite(spec: ManifoldSpec, name: str, pts, tol=DEFAULT_TOL) -> list:
    return run_suites(spec, [name], pts, tol)[name]


def run_suites(spec: ManifoldSpec, names, pts, tol=DEFAULT_TOL) -> dict:
    """Run the named suites over ``pts`` as one streamed request."""
    return run_request(spec, names, pts, tol=tol)[0]


def run_request(spec: ManifoldSpec, names, pts, checks=None, scalars=({}, {}),
                tol=DEFAULT_TOL) -> tuple:
    """(:func:`run_suites`, the records of ``checks``, the folded values by name).

    ``checks`` maps more check names to their residual trees, and
    ``scalars`` is the (maxima, sums) pair of named roots of ``cexpr.fold``.
    Both ride in the suites' streamed request, as roots of the same tape.
    """
    if names == "all" or names == ["all"]:
        names = list(SUITE_NAMES)
    if isinstance(names, str):
        names = [names]
    groups = {n: _suite(n)(spec) for n in names}
    groups[None] = checks or {}
    roots = {(group, name): residual(tree) for group, trees in groups.items()
             for name, tree in trees.items()}
    gate = _gate_roots(spec) if "ts" in names else {}
    values = fold({**roots, **gate, **scalars[0]}, scalars[1], pts, spec.params)
    results = {group: [_check(name, values[group, name], TOLERANCES.get(name, tol))
                       for name in trees] for group, trees in groups.items()}
    exc = "ts" in names and _not_trans_sasakian(values, max(tol, DEFAULT_TOL), spec.name)
    if exc:
        results["ts"] = [_record("ts_suite", not math.isnan(exc.worst), skipped=True,
                                 reason=f"NotTransSasakian: {exc}")]
    return results, results.pop(None), values


def suite_passed(results: dict) -> bool:
    return all(chk["pass"] for checks in results.values() for chk in checks)
