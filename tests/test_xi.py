import math

import numpy as np
import pytest

from np3kit import catalog
from np3kit import expr as E
from np3kit.cexpr import eval_forms, fold
from np3kit.frame import default_samples
from np3kit.npcore import d_del, spin_coefficients
from np3kit.xi import (_congruence_report, _congruence_roots, divergence_xi,
                       harmonicity_residual, parallel_and_collinearity, rough_laplacian_xi)


def _spec(name):
    return catalog.get_spec(name)


def test_laplacian_flat_vanishes():
    lap = rough_laplacian_xi(_spec("flat_cosymplectic"))
    p = (0.5, -0.1, 2.0)
    assert all(E.evaluate(c, p) == 0.0 for c in lap.generic)
    assert all(E.evaluate(c, p) == 0.0 for c in lap.np_closed)


def test_laplacian_sasakian_kenmotsu_is_2xi():
    for name in ("sasakian", "kenmotsu"):
        spec = _spec(name)
        lap = rough_laplacian_xi(spec)
        pts = default_samples(spec, 25, seed=1)
        vals = eval_forms(lap.generic, pts, spec.params)
        want = np.broadcast_to([0.0, 0.0, 2.0], vals.shape)
        assert np.max(np.abs(vals - want)) <= 1e-10, name


def test_laplacian_example1_xi_component():
    spec = _spec("example1")
    lap = rough_laplacian_xi(spec)
    vals = [E.evaluate(c, (0.0, 0.0, 0.0)) for c in lap.generic]
    # 2|rho|^2 with rho = -1 - i/2
    assert vals[2] == pytest.approx(2.5, rel=1e-12)
    assert vals[0] == pytest.approx(0.0, abs=1e-12)
    assert vals[1] == pytest.approx(0.0, abs=1e-12)


def test_laplacian_routes_agree_across_catalog():
    for name in catalog.names():
        spec = _spec(name)
        pts = default_samples(spec, 40, seed=2)
        lap = rough_laplacian_xi(spec)
        assert lap.max_discrepancy(pts, spec.params) <= 1e-8, name


def test_divergence_values():
    cases = {
        "c6": lambda p: 0.0,
        "kenmotsu": lambda p: 2.0,
        "example1": lambda p: -2.0,
        "flat_radial": lambda p: 2.0 / np.linalg.norm(p),
    }
    for name, want in cases.items():
        spec = _spec(name)
        div = divergence_xi(spec)
        for point in catalog.get(name).probes:
            assert E.evaluate(div.direct, point, spec.params) == pytest.approx(
                want(point), rel=1e-10, abs=1e-12), name


def test_divergence_routes_agree():
    for name in catalog.names():
        spec = _spec(name)
        pts = default_samples(spec, 40, seed=3)
        assert divergence_xi(spec).max_discrepancy(pts, spec.params) <= 1e-10, name


def test_harmonicity_residuals():
    assert harmonicity_residual(_spec("flat_cosymplectic"), (1.0, 1.0, 1.0)) == 0
    # Kenmotsu: rho constant, so xi is harmonic
    assert abs(harmonicity_residual(_spec("kenmotsu"), (0.3, -0.2, 0.7))) <= 1e-12
    # example1 on the slice x2 = 0: D(rho) = 0 there
    spec = _spec("example1")
    assert abs(harmonicity_residual(spec, (0.0, 0.0, 0.0))) <= 1e-12
    assert abs(harmonicity_residual(spec, (0.5, 0.0, -0.4))) <= 1e-12
    # ... but not off the slice
    assert abs(harmonicity_residual(spec, (0.5, 0.7, -0.4))) > 1e-3
    # for a trans-Sasakian spec the residual reduces to D(rho)
    drho = d_del(spec, spin_coefficients(spec).rho)
    for p in [(0.5, 0.7, -0.4), (0.1, -0.9, 0.2)]:
        assert harmonicity_residual(spec, p) == pytest.approx(
            drho.evaluate(p), abs=1e-13)


@pytest.mark.parametrize("name,flags", [
    ("flat_cosymplectic", dict(is_parallel=True, is_harmonic=True, is_collinear=True,
                               expansion="non_expanding")),
    ("example1", dict(is_parallel=False, is_harmonic=False, is_collinear=False,
                      expansion="contracting", is_geodesic=True, is_shear_free=True)),
    ("example2", dict(is_collinear=False, expansion="contracting")),
    ("c6", dict(is_geodesic=True, is_shear_free=True, expansion="non_expanding",
                is_twist_free=False, is_collinear=False)),
    ("flat_radial", dict(is_collinear=True, is_harmonic=True, expansion="expanding",
                         is_twist_free=True, is_parallel=False)),
    ("nil3", dict(is_collinear=True, is_harmonic=True, expansion="non_expanding")),
    ("kenmotsu", dict(is_collinear=True, expansion="expanding", is_twist_free=True)),
    ("sol", dict(is_geodesic=True, is_shear_free=False, is_harmonic=True,
                 is_collinear=True, expansion="non_expanding")),
])
def test_congruence_flags(name, flags):
    report = parallel_and_collinearity(_spec(name))
    for key, want in flags.items():
        got = getattr(report, key)
        assert got == want, (name, key, got)


def test_congruence_report_residuals_and_lambda():
    spec = _spec("example2")
    report = parallel_and_collinearity(spec)
    assert report.residuals["bochner"] <= 1e-9
    assert report.residuals["laplacian_route_discrepancy"] <= 1e-8
    assert report.residuals["divergence_route_discrepancy"] <= 1e-10
    # lambda = 2|rho|^2; at (0,0,1) rho = -1 - i/2
    assert E.evaluate(report.lam, (0.0, 0.0, 1.0), spec.params) == pytest.approx(2.5, rel=1e-12)


def test_harmonic_iff_collinear_iff_drho_zero_on_ts_entries():
    for name in ("example1", "example2", "c6", "flat_radial", "nil3",
                  "sasakian", "kenmotsu", "h2xr", "flat_cosymplectic"):
        spec = _spec(name)
        pts = default_samples(spec, 30, seed=5)
        report = parallel_and_collinearity(spec, samples=pts)
        drho = d_del(spec, spin_coefficients(spec).rho)
        drho_zero = bool(np.max(np.abs(drho.evaluate_many(pts, spec.params))) <= 1e-8)
        assert report.is_harmonic == report.is_collinear == drho_zero, name


@pytest.mark.parametrize("key,flag", [
    ("max_abs_kappa", "is_parallel"), ("max_abs_sigma", "is_parallel"),
    ("max_transverse_laplacian", "is_harmonic"), ("bochner_reduction", "is_harmonic"),
])
def test_a_nan_maximum_fails_its_congruence_flag(key, flag):
    spec = _spec("flat_cosymplectic")
    values = fold(*_congruence_roots(spec), default_samples(spec, 30), spec.params)
    assert getattr(_congruence_report(spec, values, 30), flag)
    values[key] = math.nan
    assert not getattr(_congruence_report(spec, values, 30), flag)
