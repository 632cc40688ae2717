import math
import random

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from np3kit import catalog
from np3kit import expr as E
from np3kit.cexpr import fold
from np3kit.classify import (NotTransSasakian, _einstein_roots, _einstein_verdict, _spread,
                             classify, conformal_foliation_residual_many, einstein_check,
                             induced_structure, spin_samples,
                             ts_identity_residuals_many, verdict_from_samples)
from np3kit.frame import connection_table, default_samples, load_manifold
from np3kit.npcore import GaugeAngle, gauge_transform, spin_coefficients
from np3kit.sampling import InsufficientSamples


@pytest.mark.parametrize("name,verdict", [
    ("example1", "TransSasakian"),
    ("example2", "TransSasakian"),
    ("flat_cosymplectic", "Cosymplectic"),
    ("c6", "C6"),
    ("flat_radial", "C5"),
    ("nil3", "AlphaSasakian"),
    ("sasakian", "Sasakian"),
    ("kenmotsu", "Kenmotsu"),
    ("h2xr", "Cosymplectic"),
    ("sol", "NotTransSasakian"),
])
def test_catalog_verdicts(name, verdict):
    spec = catalog.get_spec(name)
    cls = classify(spec)
    assert cls.verdict == verdict
    assert cls.sample_count == 100


def test_classify_extracts_alpha_beta():
    cls = classify(catalog.get_spec("example1"))
    # beta = -1 everywhere; alpha = -exp(2 x3)/2 varies
    assert cls.beta_summary[0] == pytest.approx(-1.0, abs=1e-10)
    assert cls.beta_summary[1] <= 1e-10
    assert cls.alpha_summary[1] > 0.1

    cls = classify(catalog.get_spec("nil3"))
    assert cls.alpha_summary[0] == pytest.approx(0.5, abs=1e-12)
    assert cls.alpha_summary[1] <= 1e-12


def test_beta_kenmotsu_detection():
    # rescaled Kenmotsu frame: rho = 2, a beta-Kenmotsu structure
    doc = {
        "name": "beta_kenmotsu",
        "coords": ["x1", "x2", "x3"],
        "frame": {"e1": ["exp(-2*x3)", "0", "0"], "e2": ["0", "exp(-2*x3)", "0"],
                  "xi": ["0", "0", "1"]},
    }
    cls = classify(load_manifold(doc))
    assert cls.verdict == "BetaKenmotsu"
    assert cls.beta_summary[0] == pytest.approx(2.0, abs=1e-10)


def test_classify_requires_enough_samples():
    spec = catalog.get_spec("example1")
    pts = default_samples(spec, 10, seed=0)
    with pytest.raises(InsufficientSamples):
        classify(spec, samples=pts)


def test_classify_gauge_invariant():
    spec = catalog.get_spec("example1")
    pts = default_samples(spec, 30, seed=2)
    co = spin_coefficients(spec)
    base = classify(spec, samples=pts)
    rng = random.Random(5)
    for _ in range(20):
        th = rng.uniform(-math.pi, math.pi)
        gauged = gauge_transform(co, GaugeAngle(E.const(th)), spec)
        k = gauged.kappa.evaluate_many(pts, spec.params)
        s = gauged.sigma.evaluate_many(pts, spec.params)
        r = gauged.rho.evaluate_many(pts, spec.params)
        assert verdict_from_samples(k, s, r) == base.verdict
        alpha, beta = np.imag(r), np.real(r)
        assert np.mean(alpha) == pytest.approx(base.alpha_summary[0], abs=1e-12)
        assert np.mean(beta) == pytest.approx(base.beta_summary[0], abs=1e-12)


_EDGES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-300, math.inf, -math.inf, math.nan])
_VALUES = st.one_of(st.floats(width=64), _EDGES)


@given(st.lists(_VALUES, min_size=1, max_size=40), st.one_of(_VALUES, st.just(None)))
@example([0.0], -0.0)  # center - min is -0.0 here, and the spread is +0.0
def test_spread_is_the_max_deviation_bitwise(xs, center):
    """The spread from a max, a min and a center is np.max(np.abs(x - center)),
    signed zeros, infinities and NaN included; by default the center is the mean."""
    x = np.array(xs)
    with np.errstate(all="ignore"):
        center = float(np.mean(x)) if center is None else center
        want = float(np.max(np.abs(x - center)))
    got = _spread(float(np.max(x)), -float(np.max(-x)), center)
    assert got.hex() == want.hex()


def test_induced_structure_squares_to_reeb_projector():
    spec = catalog.get_spec("example1")
    st = induced_structure(spec)
    phi = np.array(st.phi)
    # phi^2 = -I + eta (x) xi on frame vectors
    want = -np.eye(3) + np.outer([0, 0, 1], st.eta)
    assert np.array_equal(phi @ phi, want)
    # alpha, beta are the twist and expansion
    p = (0.0, 0.0, 0.5)
    assert E.evaluate(st.alpha, p) == pytest.approx(-0.5 * math.e, rel=1e-12)
    assert E.evaluate(st.beta, p) == pytest.approx(-1.0, rel=1e-12)


def test_ts_identity_residuals_example1():
    spec = catalog.get_spec("example1")
    res = ts_identity_residuals_many(spec, [(0.0, 0.0, 0.0)])
    assert max(v[0] for v in res.values()) <= 1e-8
    # also at a generic point with x2 != 0 where S(D, xi) != 0
    res = ts_identity_residuals_many(spec, [(0.4, 0.8, -0.3)])
    assert max(v[0] for v in res.values()) <= 1e-8


def test_ts_identity_residuals_example2_and_c6():
    spec = catalog.get_spec("example2")
    res = ts_identity_residuals_many(spec, [(0.0, 0.0, 1.0)])
    assert max(v[0] for v in res.values()) <= 1e-8
    c6 = catalog.get_spec("c6")
    res = ts_identity_residuals_many(c6, [(1.0, 0.0, 0.0)])
    assert res["ricci_del_del"][0] <= 1e-9  # S(D,D) = 0


def test_ts_identity_residuals_reject_sol():
    with pytest.raises(NotTransSasakian):
        ts_identity_residuals_many(catalog.get_spec("sol"), [(0.0, 0.0, 0.0)])


def test_ts_identity_sweep():
    for name in ("example1", "example2", "c6", "flat_radial"):
        spec = catalog.get_spec(name)
        pts = default_samples(spec, 60, seed=3)
        res = ts_identity_residuals_many(spec, pts)
        worst = {k: float(np.max(v)) for k, v in res.items()}
        assert max(worst.values()) <= 1e-8, (name, worst)
        assert worst["alpha_beta_xi"] <= 1e-9, name


def test_conformal_foliation_residuals():
    assert conformal_foliation_residual_many(
        catalog.get_spec("example1"), [(0.0, 0.0, 0.0)])[0] <= 1e-9
    assert conformal_foliation_residual_many(
        catalog.get_spec("flat_cosymplectic"), [(1.0, 2.0, 3.0)])[0] == 0.0
    # Sol has shear -1, so the conformality defect is 2|sigma| = 2
    for p in [(0.0, 0.0, 0.0), (0.7, -0.2, 0.4)]:
        assert conformal_foliation_residual_many(
            catalog.get_spec("sol"), [p])[0] == pytest.approx(2.0, abs=1e-10)


def _conformal_foliation_pointwise(spec, point):
    """The one-point form the array form replaced: nine E.evaluate calls."""
    gamma = connection_table(spec).gamma
    theta = E.evaluate(spin_coefficients(spec).rho.re, point, spec.params)
    worst = 0.0
    for a in range(2):
        for b in range(2):
            lie = (E.evaluate(gamma[a][2][b], point, spec.params)
                   + E.evaluate(gamma[b][2][a], point, spec.params))
            worst = max(worst, abs(lie - 2.0 * theta * (1.0 if a == b else 0.0)))
    return worst


@pytest.mark.parametrize("name", ["example1", "c6", "sol"])
def test_conformal_foliation_array_form_matches_pointwise(name):
    spec = catalog.get_spec(name)
    pts = default_samples(spec, 20, seed=4)
    want = [_conformal_foliation_pointwise(spec, p) for p in pts]
    assert np.allclose(conformal_foliation_residual_many(spec, pts), want, rtol=0, atol=1e-14)
    assert np.allclose([conformal_foliation_residual_many(spec, [p])[0] for p in pts], want,
                       rtol=0, atol=1e-14)


def test_equivalence_theorem():
    """trans-Sasakian <=> max(|kappa|,|sigma|) small <=> conformal foliation
    by geodesics, across the catalog."""
    for name in catalog.names():
        spec = catalog.get_spec(name)
        pts = default_samples(spec, 25, seed=7)
        k, s, _ = spin_samples(spec, pts)
        is_ts = classify(spec, samples=pts).verdict != "NotTransSasakian"
        np_route = max(np.max(np.abs(k)), np.max(np.abs(s))) <= 1e-8
        foliation = np.all(conformal_foliation_residual_many(spec, pts[:10]) <= 1e-8)
        geodesic = np.max(np.abs(k)) <= 1e-8
        assert is_ts == np_route == (foliation and geodesic), name


def test_einstein_checks():
    flat = einstein_check(catalog.get_spec("flat_cosymplectic"))
    assert flat.is_einstein and flat.a == pytest.approx(0.0, abs=1e-12)

    sol = einstein_check(catalog.get_spec("sol"))
    assert not sol.is_einstein
    assert sol.a == pytest.approx(-2.0, abs=1e-10)

    ken = einstein_check(catalog.get_spec("kenmotsu"))
    assert ken.is_einstein and ken.a == pytest.approx(-2.0, abs=1e-10)

    sas = einstein_check(catalog.get_spec("sasakian"))
    assert not sas.is_einstein
    assert sas.a == pytest.approx(2.0, abs=1e-10)
    # closed-form Einstein condition fails by |S(D,Dbar) - S(xi,xi)| = 4
    assert sas.residuals["einstein_closed_form"] == pytest.approx(4.0, abs=1e-9)
    assert sas.residuals["max_abs_d_rho"] <= 1e-12


@pytest.mark.parametrize("nan_in", ["kappa", "sigma"])
def test_a_nan_kappa_or_sigma_is_not_trans_sasakian(nan_in):
    zero = np.zeros(30, dtype=complex)
    nan = zero.copy()
    nan[7] = np.nan
    args = (nan, zero, zero) if nan_in == "kappa" else (zero, nan, zero)
    assert verdict_from_samples(*args) == "NotTransSasakian"


@pytest.mark.parametrize("rho", [0.0, 1j], ids=["zero", "twist"])
def test_a_nan_rho_is_not_trans_sasakian(rho):
    # a NaN rho would otherwise read as C5 (beside zeros) or TransSasakian (beside 1j)
    zero = np.zeros(30, dtype=complex)
    r = np.full(30, rho, dtype=complex)
    r[7] = complex(np.nan, np.imag(rho))
    assert verdict_from_samples(zero, zero, r) == "NotTransSasakian"


@pytest.mark.parametrize("key", ["max_abs_kappa", "max_abs_sigma"])
def test_a_nan_kappa_or_sigma_fails_the_einstein_gate(key):
    spec = catalog.get_spec("kenmotsu")
    values = fold(*_einstein_roots(spec), default_samples(spec, 30), spec.params)
    assert "max_abs_d_rho" in _einstein_verdict(values, 30).residuals
    values[key] = math.nan
    assert "max_abs_d_rho" not in _einstein_verdict(values, 30).residuals
