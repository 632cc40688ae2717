"""Named residual-check suites over a sample-point sweep.

Each check is a dict {name, max_residual, tolerance, pass}; a suite is a
list of checks.  These identities hold exactly for the Levi-Civita
connection, so with exact symbolic differentiation the only residual is
floating-point roundoff; the default tolerance is absolute 1e-8.

A suite is two functions: ``forms(spec)``, the tree of forms it reads
(see ``cexpr.eval_forms``), and ``checks(spec, values, tol)``, numpy only,
which turns that tree's values into check records; it reads ``spec`` only
for its name.  :func:`run_suites` runs a whole request, and it streams.
The union of the suites' trees is compiled into one tape, which runs over
``expr.CHUNK``-point slices of the samples (``cexpr.map_chunks``); every
suite checks each slice's values, and each check folds into a running max
from which ``pass`` is recomputed.  So neither the values nor any suite
temporary grows past one chunk: peak memory is set by the chunk size and
the width of the DAG, not by the sample count.  Two outcomes are decided
over all points: the ts suite's NotTransSasakian skip reports the worst
max(|kappa|, |sigma|) of the whole sample, and a DomainError reruns the
request unchunked, so it names the node it would name unchunked.
"""

from __future__ import annotations

import functools

import numpy as np

from .cexpr import map_chunks
from .classify import (DEFAULT_TOL, NotTransSasakian, _require_trans_sasakian,
                       _ts_identity_forms, _ts_identity_residuals)
from .frame import (ManifoldSpec, _kulkarni_nomizu_residual, connection_table, riemann,
                    structure_functions)
from .npcore import (_bianchi_exprs, _metric_relations, _real_ricci, _sachs_exprs,
                     _sachs_ricci_exprs, grad_xi_norm_sq, spin_coefficients,
                     spin_coefficients_from_f)
from .xi import _congruence_forms, divergence_xi, rough_laplacian_xi

__all__ = ["SUITE_NAMES", "run_suite", "run_suites", "run_request", "suite_passed"]

SUITE_NAMES = ("sachs", "bianchi", "kn", "ts", "xi")


def _check(name, value, tol):
    """The record of one residual check: it passes when ``value`` <= ``tol``."""
    value = float(value)
    return {"name": name, "max_residual": value, "tolerance": tol, "pass": bool(value <= tol)}


def _forms_kn(spec: ManifoldSpec) -> dict:
    data = riemann(spec)
    return {"gamma": connection_table(spec).gamma, "c": structure_functions(spec).c,
            "R": data.riemann, "S": data.ricci, "tau": data.scalar, "frame": spec.frame}


def _checks_kn(spec, v, tol) -> list:
    gamma, c, R, S, tau = v["gamma"], v["c"], v["R"], v["S"], v["tau"]
    checks = []
    checks.append(_check("metric_compatibility",
                         np.max(np.abs(gamma + np.swapaxes(gamma, 2, 3))), tol))
    checks.append(_check("torsion_free",
                         np.max(np.abs(gamma - np.swapaxes(gamma, 1, 2) - c)), tol))
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
    checks.append(_check("np_metric", max(_metric_relations(v["frame"]).values()), tol))
    return checks


_SPIN_NAMES = ("kappa", "sigma", "rho", "beta_np", "epsilon_np")


def _forms_sachs(spec: ManifoldSpec) -> dict:
    routes = (spin_coefficients(spec), spin_coefficients_from_f(spec))
    return {"res": _sachs_exprs(spec), "S": riemann(spec).ricci,
            "rec": _sachs_ricci_exprs(spec),
            "routes": [[getattr(co, name) for name in _SPIN_NAMES] for co in routes]}


def _checks_sachs(spec, v, tol) -> list:
    res = v["res"]
    names = ("sachs_shear", "sachs_del_rho", "sachs_beta_eps",
             "sachs_transverse_ricci", "sachs_xi_rho")
    checks = [_check(n, np.max(np.abs(res[:, i])), tol) for i, n in enumerate(names)]
    checks.append(_check("ricci_from_sachs", np.max(np.abs(v["S"] - _real_ricci(v["rec"]))), tol))
    # the two routes to the spin coefficients must agree
    worst = 0.0
    for va, vb in zip(*v["routes"]):
        worst = max(worst, float(np.max(np.abs(va - vb))))
    checks.append(_check("spin_coefficient_routes", worst, 1e-10))
    return checks


def _forms_bianchi(spec: ManifoldSpec) -> dict:
    return {"res": _bianchi_exprs(spec)}


def _checks_bianchi(spec, v, tol) -> list:
    res = v["res"]
    return [
        _check("bianchi_xi_component", np.max(np.abs(res[:, 0])), tol),
        _check("bianchi_del_component", np.max(np.abs(res[:, 1])), tol),
    ]


def _forms_ts(spec: ManifoldSpec) -> dict:
    lap = rough_laplacian_xi(spec)
    return {"ts": _ts_identity_forms(spec), "div": divergence_xi(spec).direct,
            "grad": grad_xi_norm_sq(spec), "lap": lap.generic, "lap_np": lap.np_closed}


def _checks_ts(spec, v, tol) -> list:
    # NotTransSasakian propagates: run_suites decides the skip over all points
    _require_trans_sasakian(spec.name, v["ts"], max(tol, DEFAULT_TOL))
    res = _ts_identity_residuals(v["ts"])
    checks = [_check(f"ts_{name}", np.max(vals), tol) for name, vals in res.items()]
    rho, grad, lap = v["ts"]["closed"]["rho"], v["grad"], v["lap"]
    checks.append(_check("ts_div_2theta", np.max(np.abs(v["div"] - 2 * rho.real)), tol))
    checks.append(_check("ts_grad_norm_2rho2",
                         np.max(np.abs(grad - 2 * np.abs(rho) ** 2)), tol))
    checks.append(_check("ts_laplacian_closed_form", np.max(np.abs(lap - v["lap_np"])), tol))
    checks.append(_check("ts_bochner", np.max(np.abs(lap[:, 2] - grad)), tol))
    return checks


def _forms_xi(spec: ManifoldSpec) -> dict:
    return {"congruence": _congruence_forms(spec),
            "eps_re": spin_coefficients(spec).epsilon_np.re}


def _checks_xi(spec, v, tol) -> list:
    cong = v["congruence"]
    grad, lap = cong["grad"], cong["lap"]
    checks = [
        _check("laplacian_routes", np.max(np.abs(lap - cong["lap_np"])), tol),
        _check("divergence_routes", np.max(np.abs(cong["div"] - cong["div_np"])), tol),
        _check("bochner_reduction", np.max(np.abs(lap[:, 2] - grad)), tol),
    ]
    kappa, sigma, rho = cong["kappa"], cong["sigma"], cong["rho"]
    norm_np = 2 * (np.abs(kappa) ** 2 + np.abs(rho) ** 2 + np.abs(sigma) ** 2)
    checks.append(_check("grad_norm_spin_identity", np.max(np.abs(grad - norm_np)), tol))
    checks.append(_check("epsilon_purely_imaginary", np.max(np.abs(v["eps_re"])), tol))
    return checks


# name -> (forms, checks)
_SUITES = {
    "kn": (_forms_kn, _checks_kn),
    "sachs": (_forms_sachs, _checks_sachs),
    "bianchi": (_forms_bianchi, _checks_bianchi),
    "ts": (_forms_ts, _checks_ts),
    "xi": (_forms_xi, _checks_xi),
}


def _suite(name: str):
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; valid: {', '.join(SUITE_NAMES)} or all")
    return _SUITES[name]


def run_suite(spec: ManifoldSpec, name: str, pts, tol=DEFAULT_TOL) -> list:
    return run_suites(spec, [name], pts, tol)[name]


def run_suites(spec: ManifoldSpec, names, pts, tol=DEFAULT_TOL) -> dict:
    """Run the named suites over ``pts`` as one streamed request."""
    return run_request(spec, names, pts, {}, tol)[0]


def run_request(spec: ManifoldSpec, names, pts, keep: dict, tol=DEFAULT_TOL) -> tuple:
    """(:func:`run_suites`, the values of the tree of forms ``keep`` at every point).

    ``keep`` rides in the same streamed request as the suites: the union of
    all the trees is one tape, and only ``keep``'s values are kept beyond
    their chunk.
    """
    if names == "all" or names == ["all"]:
        names = list(SUITE_NAMES)
    if isinstance(names, str):
        names = [names]
    forms = {"suites": {n: _suite(n)[0](spec) for n in names}, "keep": keep}

    def chunk(values):
        return ({n: _run_one(spec, n, values["suites"][n], tol) for n in names}, values["keep"])

    results, kept = zip(*map_chunks(chunk, forms, pts, spec.params))
    folded = functools.reduce(_fold, results)
    return ({n: _skipped(r) if isinstance(r, NotTransSasakian) else r for n, r in folded.items()},
            _concat(kept))


def _run_one(spec, name, values, tol):
    """One suite's checks on one chunk's values, or the NotTransSasakian it raised."""
    try:
        return _suite(name)[1](spec, values, tol)
    except NotTransSasakian as exc:
        return exc


def _concat(trees):
    """One tree of values from the trees of consecutive chunks."""
    first = trees[0]
    if len(trees) == 1:
        return first
    if isinstance(first, dict):
        return {k: _concat([t[k] for t in trees]) for k in first}
    if isinstance(first, list):
        return [_concat(list(parts)) for parts in zip(*trees)]
    return np.concatenate(trees)


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
