"""Built-in manifold specs with their expected invariants.

Each entry reproduces a worked example or a named homogeneous geometry:
two warped frames with trans-Sasakian structures of non-constant type, the
flat cosymplectic model, a twist-only frame, the radial field on punctured
flat space, the Heisenberg frames at bundle curvature 1/2 and 1 (alpha- and
plain Sasakian), a hyperbolic Kenmotsu frame, the product H2 x R, and Sol.

Expected values are recorded per entry and re-verified by run(); spot
values are exact closed forms evaluated at named probe points that avoid
the singular loci (the warped examples live on x3 > 0, the twist example
on x1 > 0, the radial field away from the polar axis).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import expr as E
from .classify import (DEFAULT_COUNT, DEFAULT_TOL, _einstein_roots, _einstein_verdict,
                       _structure_class)
from .frame import ManifoldSpec, default_samples, load_manifold, riemann
from .npcore import spin_coefficients
from .suites import _check, _record, run_request, suite_passed
from .xi import _congruence_report, _congruence_roots, divergence_xi

__all__ = ["CatalogEntry", "UnknownEntry", "names", "get", "get_spec", "run", "run_all"]


class UnknownEntry(KeyError):
    pass


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    document: dict
    expected: dict
    probes: tuple


def _doc(name, e1, e2, xi, domain=(), box=((-1, 1), (-1, 1), (-1, 1))):
    return {
        "name": name,
        "coords": ["x1", "x2", "x3"],
        "frame": {"e1": list(e1), "e2": list(e2), "xi": list(xi)},
        "domain": list(domain),
        "params": {},
        "box": [list(b) for b in box],
    }


_R = "sqrt(x1^2 + x2^2 + x3^2)"
_RC = "sqrt(x1^2 + x2^2)"

_ENTRIES = {}


def _add(entry: CatalogEntry):
    _ENTRIES[entry.name] = entry


_add(CatalogEntry(
    name="example1",
    # the paper states this example on x3 > 0, but the frame is regular on
    # all of R^3 and the closed forms hold globally; the domain is left
    # unrestricted so the origin is a valid probe
    document=_doc("example1",
                  ["exp(x3)", "0", "x2*exp(x3)"],
                  ["0", "exp(x3)", "0"],
                  ["0", "0", "1"]),
    expected={
        "verdict": "TransSasakian",
        "alpha": "-0.5*exp(2*x3)",
        "beta": "-1",
        "theta": "-1",
        "omega": "-0.5*exp(2*x3)",
        "div_xi": "-2",
        "spots": [
            {"point": (0.0, 0.0, 0.0), "rho": complex(-1.0, -0.5), "kappa": 0j, "sigma": 0j},
            {"point": (0.3, -0.4, 0.5), "rho": complex(-1.0, -0.5 * math.e)},
        ],
        "flags": {"is_geodesic": True, "is_shear_free": True, "is_twist_free": False,
                  "expansion": "contracting", "is_parallel": False,
                  "is_harmonic": False, "is_collinear": False},
        "einstein": False,
    },
    probes=((0.0, 0.0, 0.0), (0.0, 0.0, 0.5), (0.0, 0.0, 1.0)),
))

_add(CatalogEntry(
    name="example2",
    document=_doc("example2",
                  ["x3", "0", "x2*x3"],
                  ["0", "x3", "0"],
                  ["0", "0", "1"],
                  domain=["x3"],
                  box=((-1, 1), (-1, 1), (0.5, 2.0))),
    expected={
        "verdict": "TransSasakian",
        "alpha": "-0.5*x3^2",
        "beta": "-1/x3",
        "theta": "-1/x3",
        "omega": "-0.5*x3^2",
        "div_xi": "-2/x3",
        "spots": [
            {"point": (0.0, 0.0, 1.0), "rho": complex(-1.0, -0.5), "kappa": 0j, "sigma": 0j},
            {"point": (0.0, 0.0, 2.0), "rho": complex(-0.5, -2.0)},
            {"point": (0.0, 0.0, 0.5), "rho": complex(-2.0, -0.125)},
        ],
        "flags": {"is_geodesic": True, "is_shear_free": True, "is_twist_free": False,
                  "expansion": "contracting", "is_parallel": False,
                  "is_harmonic": False, "is_collinear": False},
        "einstein": False,
    },
    probes=((0.0, 0.0, 0.5), (0.0, 0.0, 1.0), (0.0, 0.0, 2.0)),
))

_add(CatalogEntry(
    name="flat_cosymplectic",
    document=_doc("flat_cosymplectic", ["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]),
    expected={
        "verdict": "Cosymplectic",
        "alpha": "0", "beta": "0", "theta": "0", "omega": "0", "div_xi": "0",
        "spots": [{"point": (1.0, 1.0, 1.0), "rho": 0j, "kappa": 0j, "sigma": 0j}],
        "flags": {"is_geodesic": True, "is_shear_free": True, "is_twist_free": True,
                  "expansion": "non_expanding", "is_parallel": True,
                  "is_harmonic": True, "is_collinear": True},
        "einstein": 0.0,
    },
    probes=((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)),
))

_add(CatalogEntry(
    name="c6",
    document=_doc("c6",
                  ["1", "0", "-2*x2/x1"],
                  ["0", "1", "2"],
                  ["0", "0", "1"],
                  domain=["x1"],
                  box=((0.5, 2.0), (-1, 1), (-1, 1))),
    expected={
        "verdict": "C6",
        "alpha": "1/x1",
        "beta": "0",
        "theta": "0",
        "omega": "1/x1",
        "div_xi": "0",
        "spots": [
            {"point": (1.0, 0.0, 0.0), "rho": 1j, "kappa": 0j, "sigma": 0j},
            {"point": (2.0, 0.5, -0.3), "rho": 0.5j},
        ],
        "flags": {"is_geodesic": True, "is_shear_free": True, "is_twist_free": False,
                  "expansion": "non_expanding", "is_parallel": False,
                  "is_harmonic": False, "is_collinear": False},
        "einstein": False,
    },
    probes=((1.0, 0.0, 0.0), (2.0, 0.0, 0.0)),
))

_add(CatalogEntry(
    name="flat_radial",
    document=_doc("flat_radial",
                  [f"x1*x3/({_R}*{_RC})", f"x2*x3/({_R}*{_RC})", f"-{_RC}/{_R}"],
                  [f"-x2/{_RC}", f"x1/{_RC}", "0"],
                  [f"x1/{_R}", f"x2/{_R}", f"x3/{_R}"],
                  domain=["x1"],
                  box=((0.8, 1.6), (-0.4, 0.4), (-0.4, 0.4))),
    expected={
        "verdict": "C5",
        "alpha": "0",
        "beta": f"1/{_R}",
        "theta": f"1/{_R}",
        "omega": "0",
        "div_xi": f"2/{_R}",
        "spots": [
            {"point": (1.0, 0.0, 0.0), "rho": 1.0 + 0j, "kappa": 0j, "sigma": 0j},
            {"point": (2.0, 0.0, 0.0), "rho": 0.5 + 0j},
        ],
        "flags": {"is_geodesic": True, "is_shear_free": True, "is_twist_free": True,
                  "expansion": "expanding", "is_parallel": False,
                  "is_harmonic": True, "is_collinear": True},
        "einstein": 0.0,  # the ambient metric is flat
    },
    probes=((1.0, 0.0, 0.0), (2.0, 0.0, 0.0)),
))

_add(CatalogEntry(
    name="nil3",
    document=_doc("nil3", ["1", "0", "0"], ["0", "1", "x1"], ["0", "0", "1"]),
    expected={
        "verdict": "AlphaSasakian",
        "alpha": "0.5", "beta": "0", "theta": "0", "omega": "0.5", "div_xi": "0",
        "spots": [{"point": (0.4, -0.2, 0.7), "rho": 0.5j, "kappa": 0j, "sigma": 0j}],
        "flags": {"is_geodesic": True, "is_shear_free": True, "is_twist_free": False,
                  "expansion": "non_expanding", "is_parallel": False,
                  "is_harmonic": True, "is_collinear": True},
        "einstein": False,
    },
    probes=((0.0, 0.0, 0.0), (0.5, 0.5, 0.5)),
))

_add(CatalogEntry(
    name="sasakian",
    document=_doc("sasakian", ["1", "0", "0"], ["0", "1", "2*x1"], ["0", "0", "1"]),
    expected={
        "verdict": "Sasakian",
        "alpha": "1", "beta": "0", "theta": "0", "omega": "1", "div_xi": "0",
        "spots": [{"point": (0.1, 0.9, -0.3), "rho": 1j, "kappa": 0j, "sigma": 0j}],
        "flags": {"is_geodesic": True, "is_shear_free": True, "is_twist_free": False,
                  "expansion": "non_expanding", "is_parallel": False,
                  "is_harmonic": True, "is_collinear": True},
        "einstein": False,
        "ricci_xi_xi": 2.0,
    },
    probes=((0.0, 0.0, 0.0), (0.3, -0.3, 0.3)),
))

_add(CatalogEntry(
    name="kenmotsu",
    document=_doc("kenmotsu", ["exp(-x3)", "0", "0"], ["0", "exp(-x3)", "0"], ["0", "0", "1"]),
    expected={
        "verdict": "Kenmotsu",
        "alpha": "0", "beta": "1", "theta": "1", "omega": "0", "div_xi": "2",
        "spots": [{"point": (0.2, 0.4, -0.6), "rho": 1.0 + 0j, "kappa": 0j, "sigma": 0j}],
        "flags": {"is_geodesic": True, "is_shear_free": True, "is_twist_free": True,
                  "expansion": "expanding", "is_parallel": False,
                  "is_harmonic": True, "is_collinear": True},
        "einstein": -2.0,
    },
    probes=((0.0, 0.0, 0.0), (0.5, -0.5, 1.0)),
))

_add(CatalogEntry(
    name="h2xr",
    document=_doc("h2xr", ["x2", "0", "0"], ["0", "x2", "0"], ["0", "0", "1"],
                  domain=["x2"], box=((-1, 1), (0.5, 2.0), (-1, 1))),
    expected={
        "verdict": "Cosymplectic",
        "alpha": "0", "beta": "0", "theta": "0", "omega": "0", "div_xi": "0",
        "spots": [{"point": (0.3, 1.0, -0.2), "rho": 0j, "kappa": 0j, "sigma": 0j}],
        "flags": {"is_geodesic": True, "is_shear_free": True, "is_twist_free": True,
                  "expansion": "non_expanding", "is_parallel": True,
                  "is_harmonic": True, "is_collinear": True},
        "einstein": False,
    },
    probes=((0.0, 1.0, 0.0), (0.5, 1.5, 0.5)),
))

_add(CatalogEntry(
    name="sol",
    document=_doc("sol", ["exp(-x3)", "0", "0"], ["0", "exp(x3)", "0"], ["0", "0", "1"]),
    expected={
        "verdict": "NotTransSasakian",
        "theta": "0", "omega": "0", "div_xi": "0",
        "spots": [
            {"point": (0.0, 0.0, 0.0), "rho": 0j, "kappa": 0j, "sigma": -1.0 + 0j},
            {"point": (1.0, 1.0, 0.0), "sigma": -1.0 + 0j},
        ],
        "flags": {"is_geodesic": True, "is_shear_free": False, "is_twist_free": True,
                  "expansion": "non_expanding", "is_parallel": False,
                  "is_harmonic": True, "is_collinear": True},
        "einstein": False,
        "ricci_diag": (0.0, 0.0, -2.0),
    },
    probes=((0.0, 0.0, 0.0), (1.0, 1.0, 0.0)),
))


def names() -> list[str]:
    return sorted(_ENTRIES)


def get(name: str) -> CatalogEntry:
    try:
        return _ENTRIES[name]
    except KeyError:
        raise UnknownEntry(name) from None


def get_spec(name: str) -> ManifoldSpec:
    return load_manifold(get(name).document)


def run(name: str, count: int = DEFAULT_COUNT, seed: int = 0, tol: float = DEFAULT_TOL) -> dict:
    """Run the full pipeline on an entry and compare against its record."""
    entry = get(name)
    spec = get_spec(name)
    pts = default_samples(spec, count, seed)
    exp = entry.expected
    co, S = spin_coefficients(spec), riemann(spec).ricci
    # the sample checks ride in the suites' streamed request as residual trees
    matches = {cname: E.sub(form, E.parse(exp[key])) for key, cname, form in (
        ("alpha", "alpha_matches", co.rho.im), ("beta", "beta_matches", co.rho.re),
        ("theta", "theta_matches", co.rho.re), ("omega", "omega_matches", co.rho.im),
        ("div_xi", "div_matches", divergence_xi(spec).direct)) if key in exp}
    ricci = {}
    if "ricci_diag" in exp:
        ricci["ricci_diag"] = [E.sub(S[j][k], exp["ricci_diag"][j] if j == k else 0.0)
                               for j in range(3) for k in range(3)]
    if "ricci_xi_xi" in exp:
        ricci["ricci_xi_xi"] = E.sub(S[2][2], exp["ricci_xi_xi"])
    # and so do the whole-sample decisions, as named maxima and sums
    (cmax, csum), (emax, esum) = _congruence_roots(spec), _einstein_roots(spec)
    suites, records, values = run_request(spec, "all", pts, {**matches, **ricci},
                                          ({**cmax, **emax}, {**csum, **esum}), tol)

    cls = _structure_class(values, count, tol)
    checks = [_record("verdict", cls.verdict == exp["verdict"], expected=exp["verdict"],
                      got=cls.verdict)]
    checks += records[:len(matches)]

    for spot in exp.get("spots", []):
        point = spot["point"]
        vals = co.evaluate(point, spec.params)
        for key in ("rho", "kappa", "sigma"):
            if key in spot:
                checks.append(_check(f"spot_{key}_at_{point}",
                                     abs(vals[key] - spot[key]), 1e-9))

    report = _congruence_report(values, count, tol)
    for fname, want in exp.get("flags", {}).items():
        got = getattr(report, fname)
        checks.append(_record(f"flag_{fname}", got == want, expected=want, got=got))

    ev = _einstein_verdict(values, count, tol)
    want_einstein = exp.get("einstein", None)
    if want_einstein is False:
        checks.append(_record("einstein", not ev.is_einstein, expected=False,
                              got=ev.is_einstein))
    elif want_einstein is not None:
        ok = ev.is_einstein and abs(ev.a - float(want_einstein)) <= 1e-8
        checks.append(_record("einstein", ok, expected=float(want_einstein),
                              got=ev.a if ev.is_einstein else None))

    checks += records[len(matches):]

    passed = all(c["pass"] for c in checks) and suite_passed(suites)
    return {
        "entry": name,
        "sample_count": int(count),
        "seed": int(seed),
        "verdict": cls.verdict,
        "alpha_summary": list(cls.alpha_summary),
        "beta_summary": list(cls.beta_summary),
        "checks": checks,
        "suites": suites,
        "pass": bool(passed),
    }


def run_all(count: int = DEFAULT_COUNT, seed: int = 0, tol: float = DEFAULT_TOL) -> dict:
    return {n: run(n, count, seed, tol) for n in names()}
