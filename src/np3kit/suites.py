"""Named residual-check suites over a sample-point sweep.

Each check is a dict {name, max_residual, tolerance, pass}; a suite is a
list of checks.  These identities hold exactly for the Levi-Civita
connection, so with exact symbolic differentiation the only residual is
floating-point roundoff; the default tolerance is absolute 1e-8.

:func:`run_suites` runs a whole request, and it streams.  The union of
the suites' roots is compiled into one tape, which runs over
``expr.CHUNK``-point slices of the samples (``expr.map_chunks``); every
suite runs on each slice inside that slice's block, and each check folds
into a running max from which ``pass`` is recomputed.  So neither the root
columns nor any suite temporary grows past one chunk: peak memory is set
by the chunk size and the width of the DAG, not by the sample count.  Two
outcomes are decided over all points: the ts suite's NotTransSasakian skip
reports the worst max(|kappa|, |sigma|) of the whole sample, and a
DomainError reruns the request unchunked, so it names the node it would
name unchunked.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools

import numpy as np

from . import expr as E
from .cexpr import parts
from .classify import (NotTransSasakian, _require_trans_sasakian,
                       _ts_identity_residuals, _ts_identity_roots, spin_samples)
from .frame import (ManifoldSpec, _flatten, _kulkarni_nomizu_residual,
                    connection_table, curvature_roots, curvature_values_many,
                    eval_table_many, structure_functions)
from .npcore import (_bianchi_exprs, _sachs_exprs, _sachs_ricci_exprs,
                     bianchi_residuals_many, epsilon_realness, grad_xi_norm_sq,
                     np_metric_residuals, ricci_from_sachs_many,
                     sachs_residuals_many, spin_coefficients,
                     spin_coefficients_from_f)
from .xi import divergence_xi, rough_laplacian_xi

__all__ = ["SUITE_NAMES", "run_suite", "run_suites", "suite_passed", "suite_roots"]

SUITE_NAMES = ("sachs", "bianchi", "kn", "ts", "xi")

DEFAULT_TOL = 1e-8


def _check(name, value, tol):
    value = float(value)
    return {"name": name, "max_residual": value, "tolerance": tol, "pass": bool(value <= tol)}


def _suite_kn(spec: ManifoldSpec, pts, tol) -> list:
    p = spec.params
    checks = []
    gamma = eval_table_many(connection_table(spec).gamma, pts, p, 3)
    c = eval_table_many(structure_functions(spec).c, pts, p, 3)
    checks.append(_check("metric_compatibility",
                         np.max(np.abs(gamma + np.swapaxes(gamma, 2, 3))), tol))
    checks.append(_check("torsion_free",
                         np.max(np.abs(gamma - np.swapaxes(gamma, 1, 2) - c)), tol))
    R, S, tau = curvature_values_many(spec, pts)
    checks.append(_check("riemann_antisym_first_pair",
                         np.max(np.abs(R + np.swapaxes(R, 1, 2))), tol))
    checks.append(_check("riemann_antisym_last_pair",
                         np.max(np.abs(R + np.swapaxes(R, 3, 4))), tol))
    checks.append(_check("riemann_pair_symmetry",
                         np.max(np.abs(R - np.transpose(R, (0, 3, 4, 1, 2)))), tol))
    first_b = R + np.transpose(R, (0, 2, 3, 1, 4)) + np.transpose(R, (0, 3, 1, 2, 4))
    checks.append(_check("riemann_first_bianchi", np.max(np.abs(first_b)), tol))
    checks.append(_check("ricci_symmetric",
                         np.max(np.abs(S - np.swapaxes(S, 1, 2))), tol))
    checks.append(_check("kulkarni_nomizu", np.max(_kulkarni_nomizu_residual(R, S, tau)), tol))
    half_trace = 0.5 * (S[:, 0, 0] + S[:, 1, 1] + S[:, 2, 2])
    checks.append(_check("scalar_convention", np.max(np.abs(tau - half_trace)), tol))
    checks.append(_check("np_metric", max(np_metric_residuals(spec, pts).values()), tol))
    return checks


def _suite_sachs(spec: ManifoldSpec, pts, tol) -> list:
    res = sachs_residuals_many(spec, pts)
    names = ("sachs_shear", "sachs_del_rho", "sachs_beta_eps",
             "sachs_transverse_ricci", "sachs_xi_rho")
    checks = [_check(n, np.max(np.abs(res[:, i])), tol) for i, n in enumerate(names)]
    _, S, _ = curvature_values_many(spec, pts)
    rec = ricci_from_sachs_many(spec, pts)
    checks.append(_check("ricci_from_sachs", np.max(np.abs(S - rec)), tol))
    # the two routes to the spin coefficients must agree
    a, b = spin_coefficients(spec), spin_coefficients_from_f(spec)
    worst = 0.0
    for name in _SPIN_NAMES:
        va = getattr(a, name).evaluate_many(pts, spec.params)
        vb = getattr(b, name).evaluate_many(pts, spec.params)
        worst = max(worst, float(np.max(np.abs(va - vb))))
    checks.append(_check("spin_coefficient_routes", worst, 1e-10))
    return checks


def _suite_bianchi(spec: ManifoldSpec, pts, tol) -> list:
    res = bianchi_residuals_many(spec, pts)
    return [
        _check("bianchi_xi_component", np.max(np.abs(res[:, 0])), tol),
        _check("bianchi_del_component", np.max(np.abs(res[:, 1])), tol),
    ]


def _suite_ts(spec: ManifoldSpec, pts, tol) -> list:
    # NotTransSasakian propagates: run_suites decides the skip over all points
    _require_trans_sasakian(spec, pts, max(tol, 1e-8))
    res = _ts_identity_residuals(spec, pts)
    checks = [_check(f"ts_{name}", np.max(vals), tol) for name, vals in res.items()]
    p = spec.params
    co = spin_coefficients(spec)
    rho = co.rho.evaluate_many(pts, p)
    div = divergence_xi(spec)
    div_vals = E.evaluate_many(div.direct, pts, p)
    checks.append(_check("ts_div_2theta", np.max(np.abs(div_vals - 2 * rho.real)), tol))
    grad = E.evaluate_many(grad_xi_norm_sq(spec), pts, p)
    checks.append(_check("ts_grad_norm_2rho2",
                         np.max(np.abs(grad - 2 * np.abs(rho) ** 2)), tol))
    lap = rough_laplacian_xi(spec)
    checks.append(_check("ts_laplacian_closed_form", lap.max_discrepancy(pts, p), tol))
    lap_vals = eval_table_many(lap.generic, pts, p, 1)
    checks.append(_check("ts_bochner", np.max(np.abs(lap_vals[:, 2] - grad)), tol))
    return checks


def _suite_xi(spec: ManifoldSpec, pts, tol) -> list:
    p = spec.params
    lap = rough_laplacian_xi(spec)
    div = divergence_xi(spec)
    checks = [
        _check("laplacian_routes", lap.max_discrepancy(pts, p), tol),
        _check("divergence_routes", div.max_discrepancy(pts, p), tol),
    ]
    grad = E.evaluate_many(grad_xi_norm_sq(spec), pts, p)
    lap_vals = eval_table_many(lap.generic, pts, p, 1)
    checks.append(_check("bochner_reduction", np.max(np.abs(lap_vals[:, 2] - grad)), tol))
    kappa, sigma, rho = spin_samples(spec, pts)
    norm_np = 2 * (np.abs(kappa) ** 2 + np.abs(rho) ** 2 + np.abs(sigma) ** 2)
    checks.append(_check("grad_norm_spin_identity", np.max(np.abs(grad - norm_np)), tol))
    checks.append(_check("epsilon_purely_imaginary", epsilon_realness(spec, pts), tol))
    return checks


_SPIN_NAMES = ("kappa", "sigma", "rho", "beta_np", "epsilon_np")


# the expressions each suite evaluates over its full sample array, so that
# one shared() prefetch serves the whole suite
def _roots_kn(spec):
    return (_flatten(connection_table(spec).gamma, 3) + _flatten(structure_functions(spec).c, 3)
            + curvature_roots(spec) + _flatten(spec.frame, 2))


def _roots_sachs(spec):
    routes = (spin_coefficients(spec), spin_coefficients_from_f(spec))
    return (parts(_sachs_exprs(spec)) + curvature_roots(spec)
            + parts(_sachs_ricci_exprs(spec).values())
            + parts((getattr(co, name) for co in routes for name in _SPIN_NAMES)))


def _roots_bianchi(spec):
    return parts(_bianchi_exprs(spec))


def _roots_ts(spec):
    lap = rough_laplacian_xi(spec)
    return (_ts_identity_roots(spec) + [divergence_xi(spec).direct, grad_xi_norm_sq(spec)]
            + list(lap.generic) + list(lap.np_closed))


def _roots_xi(spec):
    co, lap, div = spin_coefficients(spec), rough_laplacian_xi(spec), divergence_xi(spec)
    return (list(lap.generic) + list(lap.np_closed) + [div.direct, div.np_form]
            + [grad_xi_norm_sq(spec)] + parts((co.kappa, co.sigma, co.rho))
            + [co.epsilon_np.re])


_SUITES = {
    "kn": (_suite_kn, _roots_kn),
    "sachs": (_suite_sachs, _roots_sachs),
    "bianchi": (_suite_bianchi, _roots_bianchi),
    "ts": (_suite_ts, _roots_ts),
    "xi": (_suite_xi, _roots_xi),
}


def _suite(name: str):
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; valid: {', '.join(SUITE_NAMES)} or all")
    return _SUITES[name]


def suite_roots(spec: ManifoldSpec, names) -> list:
    """The expressions the named suites evaluate over their sample array.

    Drivers prefetch their union in one ``expr.shared`` block before any
    suite runs, so subterms shared across suites are computed once.
    """
    return [r for name in names for r in _suite(name)[1](spec)]


def run_suite(spec: ManifoldSpec, name: str, pts, tol=DEFAULT_TOL) -> list:
    return run_suites(spec, [name], pts, tol)[name]


def run_suites(spec: ManifoldSpec, names, pts, tol=DEFAULT_TOL, threads=1) -> dict:
    """Run the named suites over ``pts`` as one streamed request.

    With ``threads`` > 1 the suites of each chunk run in a thread pool,
    every worker inside the chunk's block.
    """
    if names == "all" or names == ["all"]:
        names = list(SUITE_NAMES)
    if isinstance(names, str):
        names = [names]
    parallel = threads > 1 and len(names) > 1
    if parallel:  # imported here: concurrent.futures adds ~10 ms to every start-up
        from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(threads) if parallel else contextlib.nullcontext() as pool:

        def chunk(part):
            if pool is None:
                return {n: _run_one(spec, n, part, tol) for n in names}
            futures = {n: pool.submit(contextvars.copy_context().run,
                                      _run_one, spec, n, part, tol) for n in names}
            return {n: f.result() for n, f in futures.items()}

        results = E.map_chunks(chunk, pts, spec.params, suite_roots(spec, names))
    folded = functools.reduce(_fold, results)
    return {n: _skipped(r) if isinstance(r, NotTransSasakian) else r for n, r in folded.items()}


def _run_one(spec, name, pts, tol):
    """One suite's checks on one chunk, or the NotTransSasakian it raised."""
    try:
        with E.shared(pts, spec.params, suite_roots(spec, [name])):
            return _suite(name)[0](spec, pts, tol)
    except NotTransSasakian as exc:
        return exc


def _fold(a: dict, b: dict) -> dict:
    """Two chunks' results as one: each check's max residual, ``pass``
    recomputed from it; a NotTransSasakian skip wins, with the larger worst."""
    out = {}
    for name, x in a.items():
        y = b[name]
        if isinstance(x, NotTransSasakian) or isinstance(y, NotTransSasakian):
            raised = [r for r in (x, y) if isinstance(r, NotTransSasakian)]
            out[name] = max(raised, key=lambda exc: exc.worst)
        else:
            out[name] = [_check(c["name"], np.maximum(c["max_residual"], d["max_residual"]),
                                c["tolerance"]) for c, d in zip(x, y)]
    return out


def _skipped(exc: NotTransSasakian) -> list:
    return [{"name": "ts_suite", "skipped": True, "reason": f"NotTransSasakian: {exc}",
             "pass": True}]


def suite_passed(results: dict) -> bool:
    return all(chk["pass"] for checks in results.values() for chk in checks)
