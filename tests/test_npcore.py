import math
import random

import numpy as np
import pytest

from np3kit import catalog
from np3kit import expr as E
from np3kit.cexpr import CExpr, c_const
from np3kit.frame import (curvature_values_many, default_samples,
                          load_manifold, spec_from_document, spec_to_document)
from np3kit.npcore import (GaugeAngle, W_DEL, _bianchi_exprs, _sachs_exprs,
                           bianchi_residuals_many, d_del, epsilon_realness,
                           gauge_transform, grad_xi_norm_sq, kinematics,
                           np_frame, np_metric_residuals, phi_apply,
                           ricci_from_sachs_many,
                           sachs_residuals_many, spin_coefficients,
                           spin_coefficients_from_f, weighted_derivative)

SQ2 = math.sqrt(2.0)


@pytest.fixture(scope="module")
def example1():
    return catalog.get_spec("example1")


@pytest.fixture(scope="module")
def example2():
    return catalog.get_spec("example2")


@pytest.fixture(scope="module")
def flat():
    return catalog.get_spec("flat_cosymplectic")


@pytest.fixture(scope="module")
def sol():
    return catalog.get_spec("sol")


def test_np_metric_relations(example1):
    pts = default_samples(example1, 40, seed=1)
    res = np_metric_residuals(example1, pts)
    assert max(res.values()) < 1e-10


def test_np_frame_returns_coordinate_components(example1):
    d, dbar = np_frame(example1)
    # D = (e1 - i e2)/sqrt(2): first coordinate component at the origin
    v = d[0].evaluate((0.0, 0.0, 0.0))
    assert v == pytest.approx((1 / SQ2) * 1.0, rel=1e-12)
    assert dbar[0].evaluate((0.0, 0.0, 0.0)) == pytest.approx(np.conj(v), rel=1e-12)


def test_phi_rotates_del_by_i():
    out = phi_apply(W_DEL)
    got = np.array([c.evaluate((0.0, 0.0, 0.0)) for c in out])
    want = 1j * np.array([c.evaluate((0.0, 0.0, 0.0)) for c in W_DEL])
    assert np.max(np.abs(got - want)) < 1e-15


def test_spin_coefficients_example1(example1):
    vals = spin_coefficients(example1).evaluate((0.0, 0.0, 0.0))
    assert abs(vals["kappa"]) < 1e-12
    assert abs(vals["sigma"]) < 1e-12
    assert vals["rho"] == pytest.approx(-1.0 - 0.5j, abs=1e-12)


def test_spin_coefficients_example2(example2):
    vals = spin_coefficients(example2).evaluate((0.0, 0.0, 1.0))
    assert vals["rho"] == pytest.approx(-1.0 - 0.5j, abs=1e-12)
    vals = spin_coefficients(example2).evaluate((0.0, 0.0, 2.0))
    assert vals["rho"] == pytest.approx(-0.5 - 2.0j, abs=1e-12)


def test_spin_coefficients_flat(flat):
    vals = spin_coefficients(flat).evaluate((0.8, -0.4, 0.1))
    for key in ("kappa", "sigma", "rho", "beta_np", "epsilon_np"):
        assert abs(vals[key]) < 1e-14


def test_spin_coefficient_routes_agree(example1, example2, sol):
    for spec in (example1, example2, sol):
        pts = default_samples(spec, 30, seed=2)
        a, b = spin_coefficients(spec), spin_coefficients_from_f(spec)
        for name in ("kappa", "sigma", "rho", "beta_np", "epsilon_np"):
            va = getattr(a, name).evaluate_many(pts, spec.params)
            vb = getattr(b, name).evaluate_many(pts, spec.params)
            assert np.max(np.abs(va - vb)) < 1e-10, (spec.name, name)


def test_kinematics_examples(example1):
    kin = kinematics(spin_coefficients(example1))
    for x3 in (0.0, 0.5, 1.0):
        p = (0.0, 0.0, x3)
        assert E.evaluate(kin.theta, p) == pytest.approx(-1.0, rel=1e-12)
        assert E.evaluate(kin.omega, p) == pytest.approx(-0.5 * math.exp(2 * x3), rel=1e-12)
        assert E.evaluate(kin.shear_mag, p) == pytest.approx(0.0, abs=1e-12)

    c6 = catalog.get_spec("c6")
    kin = kinematics(spin_coefficients(c6))
    for x1 in (1.0, 2.0):
        p = (x1, 0.3, -0.2)
        assert E.evaluate(kin.theta, p) == pytest.approx(0.0, abs=1e-12)
        assert E.evaluate(kin.omega, p) == pytest.approx(1.0 / x1, rel=1e-12)

    radial = catalog.get_spec("flat_radial")
    kin = kinematics(spin_coefficients(radial))
    for p in ((1.0, 0.0, 0.0), (2.0, 0.0, 0.0)):
        r = np.linalg.norm(p)
        assert E.evaluate(kin.theta, p) == pytest.approx(1.0 / r, rel=1e-11)
        assert E.evaluate(kin.omega, p) == pytest.approx(0.0, abs=1e-11)


def test_epsilon_purely_imaginary(example1, example2, sol):
    for spec in (example1, example2, sol):
        pts = default_samples(spec, 25, seed=4)
        assert epsilon_realness(spec, pts) < 1e-12


# ---------------------------------------------------------------------------
# gauge transformations

def _rotated_spec(spec, theta_text):
    """Build the frame e1' = cos(t) e1 + sin(t) e2, e2' = -sin(t) e1 + cos(t) e2
    as a new manifold document (so the generic engine recomputes everything)."""
    doc = spec_to_document(spec)
    th = theta_text
    e1, e2 = doc["frame"]["e1"], doc["frame"]["e2"]
    doc = dict(doc, name=doc["name"] + "_rot")
    doc["frame"] = {
        "e1": [f"cos({th})*({a}) + sin({th})*({b})" for a, b in zip(e1, e2)],
        "e2": [f"-sin({th})*({a}) + cos({th})*({b})" for a, b in zip(e1, e2)],
        "xi": doc["frame"]["xi"],
    }
    return load_manifold(doc)


def test_gauge_constant_quarter_turn(example1):
    co = spin_coefficients(example1)
    gauged = gauge_transform(co, GaugeAngle(E.const(math.pi / 2)), example1)
    p = (0.2, -0.6, 0.4)
    base = co.evaluate(p)
    new = gauged.evaluate(p)
    assert new["rho"] == base["rho"]  # rho' = rho exactly, by construction
    assert new["kappa"] == pytest.approx(1j * base["kappa"], abs=1e-14)
    assert new["sigma"] == pytest.approx(-base["sigma"], abs=1e-14)


def test_gauge_xi_direction_on_flat(flat):
    co = spin_coefficients(flat)
    gauged = gauge_transform(co, GaugeAngle(E.Coord(1)), flat)
    # xi = d/dx3 so xi(x1) = 0 and eps' = i xi(theta) = 0
    assert gauged.epsilon_np.evaluate((0.7, 0.1, -0.3)) == pytest.approx(0.0, abs=1e-14)


def test_gauge_formulas_match_rotated_frame(example1):
    """beta' and eps' displays against a from-scratch rotated frame."""
    theta_text = "0.3*x1 + x3^2/4"
    rotated = _rotated_spec(example1, theta_text)
    th = E.parse(theta_text)
    co = spin_coefficients(example1)
    gauged = gauge_transform(co, GaugeAngle(th), example1)
    direct = spin_coefficients(rotated)
    for p in [(0.1, 0.2, 0.3), (-0.5, 0.4, 0.8)]:
        for name in ("kappa", "sigma", "rho", "beta_np", "epsilon_np"):
            a = getattr(gauged, name).evaluate(p)
            b = getattr(direct, name).evaluate(p)
            assert a == pytest.approx(b, abs=1e-10), name


def test_gauge_invariants_50_random_constant_gauges(example1):
    rng = random.Random(99)
    co = spin_coefficients(example1)
    pts = default_samples(example1, 20, seed=6)
    k0 = co.kappa.evaluate_many(pts, example1.params)
    s0 = co.sigma.evaluate_many(pts, example1.params)
    r0 = co.rho.evaluate_many(pts, example1.params)
    for _ in range(50):
        th = rng.uniform(-math.pi, math.pi)
        gauged = gauge_transform(co, GaugeAngle(E.const(th)), example1)
        k1 = gauged.kappa.evaluate_many(pts, example1.params)
        s1 = gauged.sigma.evaluate_many(pts, example1.params)
        r1 = gauged.rho.evaluate_many(pts, example1.params)
        assert np.array_equal(r1, r0)  # rho is strictly gauge invariant
        assert np.max(np.abs(np.abs(k1) - np.abs(k0))) <= 1e-12
        assert np.max(np.abs(np.abs(s1) - np.abs(s0))) <= 1e-12


# ---------------------------------------------------------------------------
# weighted operators

def test_weighted_derivative_constant_weight_zero(example1):
    q = c_const(2.5 - 1.0j)
    for direction in ("eth", "eth_bar", "P"):
        out = weighted_derivative(q, 0, direction, example1)
        assert out.evaluate((0.3, 0.1, 0.2)) == pytest.approx(0.0, abs=1e-14)


def test_weighted_derivative_weight_zero_is_directional(example1):
    co = spin_coefficients(example1)
    got = weighted_derivative(co.rho, 0, "eth", example1)
    want = d_del(example1, co.rho)
    for p in [(0.0, 0.0, 0.0), (0.4, -0.2, 0.6)]:
        assert got.evaluate(p) == pytest.approx(want.evaluate(p), abs=1e-13)


def test_weighted_derivative_gauge_covariance(example1):
    """eth'(q') = e^{i(s+1)theta} eth(q) for a non-constant gauge angle."""
    theta_text = "x1 - 0.5*x2"
    th = E.parse(theta_text)
    rotated = _rotated_spec(example1, theta_text)
    co = spin_coefficients(example1)
    pts = default_samples(example1, 20, seed=8)
    for s, q in ((2, co.sigma), (1, co.kappa), (0, co.rho)):
        phase_s = CExpr(E.cos(E.mul(float(s), th)), E.sin(E.mul(float(s), th)))
        q_prime = phase_s * q
        got = weighted_derivative(q_prime, s, "eth", rotated)
        want = weighted_derivative(q, s, "eth", example1)
        phase_s1 = CExpr(E.cos(E.mul(float(s + 1), th)), E.sin(E.mul(float(s + 1), th)))
        want = phase_s1 * want
        gv = got.evaluate_many(pts, example1.params)
        wv = want.evaluate_many(pts, example1.params)
        assert np.max(np.abs(gv - wv)) < 1e-10, s


# ---------------------------------------------------------------------------
# Sachs / Bianchi / norm identities

def test_sachs_residuals_small(example1, sol, flat):
    for r in sachs_residuals_many(example1, [(0.0, 0.0, 0.0)])[0]:
        assert abs(r) <= 1e-9
    for r in sachs_residuals_many(sol, [(1.0, 1.0, 0.0)])[0]:
        assert abs(r) <= 1e-9
    for r in sachs_residuals_many(flat, [(0.3, -0.9, 0.5)])[0]:
        assert r == 0


def test_bianchi_residuals_small(example2, sol, flat):
    for r in bianchi_residuals_many(flat, [(0.1, 0.2, 0.3)])[0]:
        assert r == 0
    for r in bianchi_residuals_many(example2, [(0.0, 0.0, 1.0)])[0]:
        assert abs(r) <= 1e-8
    for r in bianchi_residuals_many(sol, [(0.0, 0.0, 0.0)])[0]:
        assert abs(r) <= 1e-8


@pytest.mark.parametrize("name", ["example1", "c6", "sol"])
def test_single_point_residuals_match_per_expression_evaluation(name):
    spec = catalog.get_spec(name)
    for point in default_samples(spec, 20, seed=4):
        for many, forms in ((sachs_residuals_many, _sachs_exprs),
                            (bianchi_residuals_many, _bianchi_exprs)):
            want = [z.evaluate(point, spec.params) for z in forms(spec)]
            assert np.allclose(many(spec, [point])[0], want, rtol=0, atol=1e-14), many.__name__


def test_sachs_bianchi_sweeps(example1, example2):
    for spec in (example1, example2):
        pts = default_samples(spec, 50, seed=11)
        assert np.max(np.abs(sachs_residuals_many(spec, pts))) <= 1e-8
        assert np.max(np.abs(bianchi_residuals_many(spec, pts))) <= 1e-8


def test_ricci_from_sachs_matches_riemann(example1, sol):
    for spec in (example1, sol):
        pts = default_samples(spec, 40, seed=13)
        _, S, _ = curvature_values_many(spec, pts)
        rec = ricci_from_sachs_many(spec, pts)
        assert np.max(np.abs(S - rec)) <= 1e-8


def test_grad_xi_norm_identity(example1, example2, sol):
    for spec in (example1, example2, sol):
        pts = default_samples(spec, 30, seed=14)
        co = spin_coefficients(spec)
        k = co.kappa.evaluate_many(pts, spec.params)
        s = co.sigma.evaluate_many(pts, spec.params)
        r = co.rho.evaluate_many(pts, spec.params)
        want = 2 * (np.abs(k) ** 2 + np.abs(r) ** 2 + np.abs(s) ** 2)
        got = E.evaluate_many(grad_xi_norm_sq(spec), pts, spec.params)
        assert np.max(np.abs(got - want)) <= 1e-10
