import math

import numpy as np
import pytest

from np3kit import catalog
from np3kit import expr as E
from np3kit.cexpr import eval_forms, fold, residual
from np3kit.frame import default_samples
from np3kit.npcore import d_del, spin_coefficients
from np3kit.xi import (_congruence_report, _congruence_roots, divergence_xi,
                       parallel_and_collinearity, rough_laplacian_xi)


def _spec(name):
    return catalog.get_spec(name)


def test_laplacian_flat_vanishes():
    lap = rough_laplacian_xi(_spec("flat_cosymplectic"))
    p = (0.5, -0.1, 2.0)
    assert not np.any(eval_forms([lap.generic, lap.np_closed], [p]))


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
    vals = eval_forms(lap.generic, [(0.0, 0.0, 0.0)])[0]
    # 2|rho|^2 with rho = -1 - i/2
    assert vals[2] == pytest.approx(2.5, rel=1e-12)
    assert vals[0] == pytest.approx(0.0, abs=1e-12)
    assert vals[1] == pytest.approx(0.0, abs=1e-12)


def test_laplacian_routes_agree_across_catalog():
    for name in catalog.names():
        spec = _spec(name)
        pts = default_samples(spec, 40, seed=2)
        lap = rough_laplacian_xi(spec)
        routes = residual([E.sub(a, b) for a, b in zip(lap.generic, lap.np_closed)])
        assert np.max(eval_forms(routes, pts, spec.params)) <= 1e-8, name


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
            assert eval_forms(div.direct, [point], spec.params)[0] == pytest.approx(
                want(point), rel=1e-10, abs=1e-12), name


def test_divergence_routes_agree():
    for name in catalog.names():
        spec = _spec(name)
        pts = default_samples(spec, 40, seed=3)
        div = divergence_xi(spec)
        routes = residual(E.sub(div.direct, div.np_form))
        assert np.max(eval_forms(routes, pts, spec.params)) <= 1e-10, name


def _harmonicity(name, points):
    """h at ``points``: the transverse part of Delta xi - |nabla xi|^2 xi, read
    off ``np_closed`` as (np_closed[0] + i np_closed[1])/sqrt(2) = -conj(h)."""
    spec = _spec(name)
    x, y = eval_forms(list(rough_laplacian_xi(spec).np_closed[:2]), points, spec.params)
    return -np.conj((x + 1j * y) / math.sqrt(2.0))


def test_harmonicity_from_the_transverse_laplacian():
    assert _harmonicity("flat_cosymplectic", [(1.0, 1.0, 1.0)])[0] == 0
    # Kenmotsu: rho constant, so xi is harmonic
    assert abs(_harmonicity("kenmotsu", [(0.3, -0.2, 0.7)])[0]) <= 1e-12
    # example1 on the slice x2 = 0: D(rho) = 0 there
    assert np.max(np.abs(_harmonicity("example1", [(0.0, 0.0, 0.0), (0.5, 0.0, -0.4)]))) <= 1e-12
    # ... but not off the slice
    assert abs(_harmonicity("example1", [(0.5, 0.7, -0.4)])[0]) > 1e-3
    # for a trans-Sasakian spec the residual reduces to D(rho)
    spec = _spec("example1")
    drho = d_del(spec, spin_coefficients(spec).rho)
    for p in [(0.5, 0.7, -0.4), (0.1, -0.9, 0.2)]:
        want = eval_forms(drho, [p])[0]
        assert _harmonicity("example1", [p])[0] == pytest.approx(want, abs=1e-13)


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
    lam = rough_laplacian_xi(spec).np_closed[2]
    assert eval_forms(lam, [(0.0, 0.0, 1.0)], spec.params)[0] == pytest.approx(2.5, rel=1e-12)


def test_harmonic_iff_collinear_iff_drho_zero_on_ts_entries():
    for name in ("example1", "example2", "c6", "flat_radial", "nil3",
                  "sasakian", "kenmotsu", "h2xr", "flat_cosymplectic"):
        spec = _spec(name)
        pts = default_samples(spec, 30, seed=5)
        report = parallel_and_collinearity(spec, samples=pts)
        drho = d_del(spec, spin_coefficients(spec).rho)
        drho_zero = bool(np.max(np.abs(eval_forms(drho, pts, spec.params))) <= 1e-8)
        assert report.is_harmonic == report.is_collinear == drho_zero, name


@pytest.mark.parametrize("key,flag", [
    ("max_abs_kappa", "is_parallel"), ("max_abs_sigma", "is_parallel"),
    ("max_transverse_laplacian", "is_harmonic"), ("bochner_reduction", "is_harmonic"),
])
def test_a_nan_maximum_fails_its_congruence_flag(key, flag):
    spec = _spec("flat_cosymplectic")
    values = fold(*_congruence_roots(spec), default_samples(spec, 30), spec.params)
    assert getattr(_congruence_report(values, 30), flag)
    values[key] = math.nan
    assert not getattr(_congruence_report(values, 30), flag)


def test_a_nan_expansion_is_undetermined():
    spec = _spec("flat_radial")
    values = fold(*_congruence_roots(spec), default_samples(spec, 30), spec.params)
    assert _congruence_report(values, 30).expansion == "expanding"
    values["max_abs_beta"] = math.nan
    assert _congruence_report(values, 30).expansion == "undetermined"
