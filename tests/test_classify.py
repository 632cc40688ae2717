import math
import random

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from np3kit import catalog
from np3kit import expr as E
from np3kit.cexpr import eval_forms, fold, residual
from np3kit.classify import (DEFAULT_TOL, DEFAULT_TOL_CONST, PHI_MATRIX, _einstein_roots,
                             _einstein_verdict, _spin_roots, _spread, _structure_class,
                             _ts_closed_forms, _verdict, classify, einstein_check,
                             ts_identity_forms)
from np3kit.frame import connection_table, default_samples, load_manifold
from np3kit.npcore import (W_DEL, W_DELBAR, W_XI, contract, gauge_transform,
                           ricci_from_sachs_forms, spin_coefficients)
from np3kit.sampling import InsufficientSamples
from np3kit.suites import run_suites


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
        # the gauged coefficients, folded and decided as classify decides its own
        gauged = gauge_transform(co, E.const(th), spec)
        cls = _structure_class(fold(*_spin_roots(gauged), pts, spec.params), len(pts))
        assert cls.verdict == base.verdict
        assert cls.alpha_summary[0] == pytest.approx(base.alpha_summary[0], abs=1e-12)
        assert cls.beta_summary[0] == pytest.approx(base.beta_summary[0], abs=1e-12)


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
    phi, eta = np.array(PHI_MATRIX), np.array([0.0, 0.0, 1.0])
    # phi^2 = -I + eta (x) xi on frame vectors, and phi xi = 0
    assert np.array_equal(phi @ phi, -np.eye(3) + np.outer([0, 0, 1], eta))
    assert not phi[2].any()
    # alpha, beta are the twist and expansion
    rho = spin_coefficients(catalog.get_spec("example1")).rho
    p = (0.0, 0.0, 0.5)
    assert eval_forms(rho.im, [p])[0] == pytest.approx(-0.5 * math.e, rel=1e-12)
    assert eval_forms(rho.re, [p])[0] == pytest.approx(-1.0, rel=1e-12)


def _ts_residuals(spec, points):
    """{identity: its pointwise residual} of the trans-Sasakian forms."""
    forms = {name: residual(tree) for name, tree in ts_identity_forms(spec).items()}
    return eval_forms(forms, points, spec.params)


def test_ts_identity_residuals_example1():
    spec = catalog.get_spec("example1")
    res = _ts_residuals(spec, [(0.0, 0.0, 0.0)])
    assert max(v[0] for v in res.values()) <= 1e-8
    # also at a generic point with x2 != 0 where S(D, xi) != 0
    res = _ts_residuals(spec, [(0.4, 0.8, -0.3)])
    assert max(v[0] for v in res.values()) <= 1e-8


def test_ts_identity_residuals_example2_and_c6():
    spec = catalog.get_spec("example2")
    res = _ts_residuals(spec, [(0.0, 0.0, 1.0)])
    assert max(v[0] for v in res.values()) <= 1e-8
    c6 = catalog.get_spec("c6")
    res = _ts_residuals(c6, [(1.0, 0.0, 0.0)])
    assert res["ricci_del_del"][0] <= 1e-9  # S(D,D) = 0


def test_ts_identity_residuals_reject_sol():
    # the identities hold only where kappa = sigma = 0: the ts suite skips sol
    [record] = run_suites(catalog.get_spec("sol"), ["ts"], [(0.0, 0.0, 0.0)])["ts"]
    assert record["skipped"] and record["reason"].startswith("NotTransSasakian: ")


RICCI_PAIRS = {"dd": (W_DEL, W_DEL), "dx": (W_DEL, W_XI), "ddb": (W_DEL, W_DELBAR),
               "xx": (W_XI, W_XI)}


@pytest.mark.parametrize("name", catalog.names())
def test_the_ts_closed_forms_are_the_ricci_from_sachs_at_kappa_sigma_zero(name):
    spec = catalog.get_spec(name)
    table = ricci_from_sachs_forms(spec)
    general = {key: contract(table, *pair) for key, pair in RICCI_PAIRS.items()}
    values = eval_forms({"general": general, "closed": _ts_closed_forms(spec)[1]},
                        default_samples(spec, 500, seed=3), spec.params)
    gap = {key: np.abs(values["general"][key] - values["closed"][key]) for key in RICCI_PAIRS}
    if name == "sol":
        # sigma = -1 and kappa = 0: only |sigma|^2 in the xi(rho) equation differs
        assert np.max(np.abs(gap["xx"] - 2.0)) <= 1e-12
        del gap["xx"]
    scale = max(1.0, *(float(np.max(np.abs(z))) for z in values["general"].values()))
    assert max(float(np.max(g)) for g in gap.values()) <= 1e-14 * scale


def test_ts_identity_sweep():
    for name in ("example1", "example2", "c6", "flat_radial"):
        spec = catalog.get_spec(name)
        pts = default_samples(spec, 60, seed=3)
        res = _ts_residuals(spec, pts)
        worst = {k: float(np.max(v)) for k, v in res.items()}
        assert max(worst.values()) <= 1e-8, (name, worst)
        assert worst["alpha_beta_xi"] <= 1e-9, name


def _conformal_foliation_pointwise(spec, point):
    """max over the transverse plane of |(Lie_xi g)(e_a, e_b) - 2 Theta delta_ab|
    at one point, from the connection table: one form at a time."""
    gamma = connection_table(spec).gamma
    theta = eval_forms(spin_coefficients(spec).rho.re, [point], spec.params)[0]
    worst = 0.0
    for a in range(2):
        for b in range(2):
            lie = (eval_forms(gamma[a][2][b], [point], spec.params)[0]
                   + eval_forms(gamma[b][2][a], [point], spec.params)[0])
            worst = max(worst, abs(lie - 2.0 * theta * (1.0 if a == b else 0.0)))
    return worst


def test_conformal_foliation_residuals():
    assert _conformal_foliation_pointwise(catalog.get_spec("example1"), (0.0, 0.0, 0.0)) <= 1e-9
    assert _conformal_foliation_pointwise(
        catalog.get_spec("flat_cosymplectic"), (1.0, 2.0, 3.0)) == 0.0
    # Sol has shear -1, so the conformality defect is 2|sigma| = 2
    for p in [(0.0, 0.0, 0.0), (0.7, -0.2, 0.4)]:
        assert _conformal_foliation_pointwise(
            catalog.get_spec("sol"), p) == pytest.approx(2.0, abs=1e-10)


@pytest.mark.parametrize("name", ["example1", "c6", "sol"])
def test_conformal_foliation_defect_is_the_shear_in_another_norm(name):
    """The defect is the shear in another norm: 2 max(|Re sigma|, |Im sigma|),
    between sqrt(2) |sigma| and 2 |sigma|."""
    spec = catalog.get_spec(name)
    pts = default_samples(spec, 20, seed=4)
    want = [_conformal_foliation_pointwise(spec, p) for p in pts]
    sigma = spin_coefficients(spec).sigma
    assert np.allclose(2 * eval_forms(residual([sigma.re, sigma.im]), pts, spec.params), want,
                       rtol=0, atol=1e-14)


def test_equivalence_theorem():
    """trans-Sasakian <=> max(|kappa|,|sigma|) small <=> conformal foliation
    by geodesics, across the catalog."""
    for name in catalog.names():
        spec = catalog.get_spec(name)
        pts = default_samples(spec, 25, seed=7)
        co = spin_coefficients(spec)
        k, s = eval_forms([co.kappa, co.sigma], pts, spec.params)
        is_ts = classify(spec, samples=pts).verdict != "NotTransSasakian"
        np_route = max(np.max(np.abs(k)), np.max(np.abs(s))) <= 1e-8
        foliation = all(_conformal_foliation_pointwise(spec, p) <= 1e-8 for p in pts[:10])
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


def _folded_spin_roots(name: str, n: int = 30) -> dict:
    """The folded :func:`_spin_roots` of a catalog entry over ``n`` samples."""
    spec = catalog.get_spec(name)
    return fold(*_spin_roots(spin_coefficients(spec)), default_samples(spec, n), spec.params)


@pytest.mark.parametrize("nan_in", ["kappa", "sigma"])
def test_a_nan_kappa_or_sigma_is_not_trans_sasakian(nan_in):
    values = _folded_spin_roots("flat_cosymplectic")
    assert _verdict(values, 30, DEFAULT_TOL, DEFAULT_TOL_CONST) == "Cosymplectic"
    values[f"max_abs_{nan_in}"] = math.nan
    assert _verdict(values, 30, DEFAULT_TOL, DEFAULT_TOL_CONST) == "NotTransSasakian"


@pytest.mark.parametrize("name,verdict", [("flat_cosymplectic", "Cosymplectic"),
                                          ("sasakian", "Sasakian")], ids=["zero", "twist"])
def test_a_nan_rho_is_not_trans_sasakian(name, verdict):
    # a NaN in Re rho at one sample reaches every root of beta and |rho|; it
    # would otherwise read as C5 (rho = 0 elsewhere) or TransSasakian (rho = i)
    values = _folded_spin_roots(name)
    assert _verdict(values, 30, DEFAULT_TOL, DEFAULT_TOL_CONST) == verdict
    values.update(dict.fromkeys(
        ("max_abs_rho", "max_abs_beta", "max_beta", "max_neg_beta", "sum_beta"), math.nan))
    assert _verdict(values, 30, DEFAULT_TOL, DEFAULT_TOL_CONST) == "NotTransSasakian"


@pytest.mark.parametrize("key", ["max_abs_kappa", "max_abs_sigma"])
def test_a_nan_kappa_or_sigma_fails_the_einstein_gate(key):
    spec = catalog.get_spec("kenmotsu")
    values = fold(*_einstein_roots(spec), default_samples(spec, 30), spec.params)
    assert "max_abs_d_rho" in _einstein_verdict(values, 30).residuals
    values[key] = math.nan
    assert "max_abs_d_rho" not in _einstein_verdict(values, 30).residuals


@pytest.mark.parametrize("caller", ["classify", "einstein_check", "ts_suite"])
def test_every_gate_caller_reads_a_nan_sigma_as_not_trans_sasakian(caller, overflow_doc):
    spec = load_manifold(overflow_doc)
    pts = default_samples(spec, 30)
    if caller == "classify":
        assert classify(spec, pts).verdict == "NotTransSasakian"
    elif caller == "einstein_check":
        assert "max_abs_d_rho" not in einstein_check(spec, pts).residuals
    else:
        # skipped, and failed: a NaN gate decides nothing
        assert run_suites(spec, ["ts"], pts)["ts"] == [{
            "name": "ts_suite", "skipped": True, "pass": False,
            "reason": "NotTransSasakian: 'overflow' has max(|kappa|,|sigma|) = nan over the samples"}]
