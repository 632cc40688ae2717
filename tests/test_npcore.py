import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from np3kit import catalog
from np3kit import expr as E
from np3kit.cexpr import CExpr, c_const, eval_forms, residual
from np3kit.classify import PHI_MATRIX
from np3kit.frame import (covariant_derivative, curvature_values_many, default_samples,
                          load_manifold, spec_to_document)
from np3kit.npcore import (W_DEL, bianchi_forms, contract, d_del, gauge_transform,
                           grad_xi_norm_sq, kinematics, np_frame, np_metric_forms,
                           ricci_from_sachs_forms, sachs_forms,
                           spin_coefficients, spin_coefficients_from_f,
                           weighted_derivative)

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
    res = eval_forms(residual(np_metric_forms(example1)), pts, example1.params)
    assert np.max(res) < 1e-10


def test_np_frame_returns_coordinate_components(example1):
    d, dbar = np_frame(example1)
    # D = (e1 - i e2)/sqrt(2): first coordinate component at the origin
    v = eval_forms(d[0], [(0.0, 0.0, 0.0)])[0]
    assert v == pytest.approx((1 / SQ2) * 1.0, rel=1e-12)
    assert eval_forms(dbar[0], [(0.0, 0.0, 0.0)])[0] == pytest.approx(np.conj(v), rel=1e-12)


def test_phi_rotates_del_by_i():
    # phi(D) = sum_i D_i phi(E_i), and the rows of PHI_MATRIX are the phi(E_i)
    d = eval_forms(W_DEL, [(0.0, 0.0, 0.0)])[0]
    assert np.max(np.abs(d @ np.array(PHI_MATRIX) - 1j * d)) < 1e-15


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
            va = eval_forms(getattr(a, name), pts, spec.params)
            vb = eval_forms(getattr(b, name), pts, spec.params)
            assert np.max(np.abs(va - vb)) < 1e-10, (spec.name, name)


def test_kinematics_examples(example1):
    kin = kinematics(spin_coefficients(example1))
    for x3 in (0.0, 0.5, 1.0):
        p = (0.0, 0.0, x3)
        assert eval_forms(kin.theta, [p])[0] == pytest.approx(-1.0, rel=1e-12)
        assert eval_forms(kin.omega, [p])[0] == pytest.approx(-0.5 * math.exp(2 * x3), rel=1e-12)
        assert eval_forms(kin.shear_mag, [p])[0] == pytest.approx(0.0, abs=1e-12)

    c6 = catalog.get_spec("c6")
    kin = kinematics(spin_coefficients(c6))
    for x1 in (1.0, 2.0):
        p = (x1, 0.3, -0.2)
        assert eval_forms(kin.theta, [p])[0] == pytest.approx(0.0, abs=1e-12)
        assert eval_forms(kin.omega, [p])[0] == pytest.approx(1.0 / x1, rel=1e-12)

    radial = catalog.get_spec("flat_radial")
    kin = kinematics(spin_coefficients(radial))
    for p in ((1.0, 0.0, 0.0), (2.0, 0.0, 0.0)):
        r = np.linalg.norm(p)
        assert eval_forms(kin.theta, [p])[0] == pytest.approx(1.0 / r, rel=1e-11)
        assert eval_forms(kin.omega, [p])[0] == pytest.approx(0.0, abs=1e-11)


def test_epsilon_purely_imaginary(example1, example2, sol):
    for spec in (example1, example2, sol):
        pts = default_samples(spec, 25, seed=4)
        re_eps = residual(spin_coefficients(spec).epsilon_np.re)
        assert np.max(eval_forms(re_eps, pts, spec.params)) < 1e-12


# ---------------------------------------------------------------------------
# the null-frame contraction

class _Unread:
    """Stands where an index of a zero weight points: reading it fails."""

    def __getitem__(self, i):
        raise AssertionError("contract read an index of a zero weight")


_PART = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-2.0, 2.0))
_WEIGHTS = st.lists(st.builds(complex, _PART, _PART), min_size=3, max_size=3)


def _table(weights, entry, n):
    """(table, values): nested lists over the axes of ``weights`` with an
    ``_Unread`` at every index of an exact-zero weight, and the (N,) values of
    its entries as one array, shape (3,) * depth + (N,), zeros where unread."""
    if not weights:
        return entry()
    zeros = np.zeros((3,) * (len(weights) - 1) + (n,))
    pairs = [_table(weights[1:], entry, n) if w != 0 else (_Unread(), zeros) for w in weights[0]]
    return [t for t, _ in pairs], np.array([v for _, v in pairs])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda d: st.lists(_WEIGHTS, min_size=d, max_size=d)),
       st.booleans(), st.integers(0, 2**32 - 1))
def test_contract_is_the_weighted_sum_and_never_reads_a_zero_weight(weights, complex_entries,
                                                                     seed):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.0, 1.0, (7, 3))
    x = [E.coord(i) for i in (1, 2, 3)]

    def real():
        a, b, c = rng.uniform(-3.0, 3.0, 3)
        return E.add(E.mul(a, x[rng.integers(3)]), E.mul(b, E.exp(E.mul(c, x[rng.integers(3)]))))

    def entry():
        form = CExpr(real(), real()) if complex_entries else real()
        return form, eval_forms(form, pts)

    table, values = _table(weights, entry, len(pts))
    got = eval_forms(contract(table, *[tuple(map(c_const, w)) for w in weights]), pts)
    axes = "abcd"[:len(weights)]
    spec = ",".join(axes) + f",{axes}n->n"
    want = np.einsum(spec, *map(np.array, weights), values)
    scale = np.einsum(spec, *(np.abs(w) for w in weights), np.abs(values))
    assert np.all(np.abs(got - want) <= 1e-12 * scale)


_UNIT = [tuple(E.const(float(i == j)) for j in range(3)) for i in range(3)]


@pytest.mark.parametrize("name", catalog.names())
def test_spin_coefficients_are_their_defining_inner_products(name):
    """Each coefficient against its inner product built from the real
    covariant derivative, e.g. nabla_D xi = (nabla_e1 xi - i nabla_e2 xi)/sqrt(2),
    with g complex-bilinear on frame components."""
    spec = catalog.get_spec(name)
    pts = default_samples(spec, 500, seed=3)
    forms = [[covariant_derivative(spec, _UNIT[i], _UNIT[j]) for j in range(3)] for i in range(3)]
    nab = np.array(eval_forms(forms, pts, spec.params))  # nab[i, j]: nabla_{E_i} E_j, (N, 3)

    def nabla(X, Y):
        return sum(X[i] * Y[j] * nab[i, j] for i in range(3) for j in range(3))

    d, db, xi = np.array([1, -1j, 0]) / SQ2, np.array([1, 1j, 0]) / SQ2, np.array([0, 0, 1])
    want = {"kappa": -nabla(xi, xi) @ d, "sigma": -nabla(d, xi) @ d, "rho": nabla(db, xi) @ d,
            "beta_np": nabla(d, d) @ db, "epsilon_np": nabla(xi, d) @ db}
    co = spin_coefficients(spec)
    got = eval_forms({k: getattr(co, k) for k in want}, pts, spec.params)
    bound = 1e-13 * max(1.0, *(np.max(np.abs(v)) for v in got.values()))
    for k in want:
        assert np.max(np.abs(got[k] - want[k])) <= bound, k


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
    gauged = gauge_transform(co, E.const(math.pi / 2), example1)
    p = (0.2, -0.6, 0.4)
    base = co.evaluate(p)
    new = gauged.evaluate(p)
    assert new["rho"] == base["rho"]  # rho' = rho exactly, by construction
    assert new["kappa"] == pytest.approx(1j * base["kappa"], abs=1e-14)
    assert new["sigma"] == pytest.approx(-base["sigma"], abs=1e-14)


def test_gauge_xi_direction_on_flat(flat):
    co = spin_coefficients(flat)
    gauged = gauge_transform(co, E.Coord(1), flat)
    # xi = d/dx3 so xi(x1) = 0 and eps' = i xi(theta) = 0
    assert eval_forms(gauged.epsilon_np, [(0.7, 0.1, -0.3)])[0] == pytest.approx(0.0, abs=1e-14)


def test_gauge_formulas_match_rotated_frame(example1):
    """beta' and eps' displays against a from-scratch rotated frame."""
    theta_text = "0.3*x1 + x3^2/4"
    rotated = _rotated_spec(example1, theta_text)
    th = E.parse(theta_text)
    co = spin_coefficients(example1)
    gauged = gauge_transform(co, th, example1)
    direct = spin_coefficients(rotated)
    for p in [(0.1, 0.2, 0.3), (-0.5, 0.4, 0.8)]:
        for name in ("kappa", "sigma", "rho", "beta_np", "epsilon_np"):
            a = eval_forms(getattr(gauged, name), [p])[0]
            b = eval_forms(getattr(direct, name), [p])[0]
            assert a == pytest.approx(b, abs=1e-10), name


def test_gauge_invariants_50_random_constant_gauges(example1):
    rng = random.Random(99)
    co = spin_coefficients(example1)
    pts = default_samples(example1, 20, seed=6)
    k0 = eval_forms(co.kappa, pts, example1.params)
    s0 = eval_forms(co.sigma, pts, example1.params)
    r0 = eval_forms(co.rho, pts, example1.params)
    for _ in range(50):
        th = rng.uniform(-math.pi, math.pi)
        gauged = gauge_transform(co, E.const(th), example1)
        k1 = eval_forms(gauged.kappa, pts, example1.params)
        s1 = eval_forms(gauged.sigma, pts, example1.params)
        r1 = eval_forms(gauged.rho, pts, example1.params)
        assert np.array_equal(r1, r0)  # rho is strictly gauge invariant
        assert np.max(np.abs(np.abs(k1) - np.abs(k0))) <= 1e-12
        assert np.max(np.abs(np.abs(s1) - np.abs(s0))) <= 1e-12


# ---------------------------------------------------------------------------
# weighted operators

def test_weighted_derivative_constant_weight_zero(example1):
    q = c_const(2.5 - 1.0j)
    for direction in ("eth", "eth_bar", "P"):
        out = weighted_derivative(q, 0, direction, example1)
        assert eval_forms(out, [(0.3, 0.1, 0.2)])[0] == pytest.approx(0.0, abs=1e-14)


def test_weighted_derivative_weight_zero_is_directional(example1):
    co = spin_coefficients(example1)
    got = weighted_derivative(co.rho, 0, "eth", example1)
    want = d_del(example1, co.rho)
    for p in [(0.0, 0.0, 0.0), (0.4, -0.2, 0.6)]:
        assert eval_forms(got, [p])[0] == pytest.approx(eval_forms(want, [p])[0], abs=1e-13)


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
        gv = eval_forms(got, pts, example1.params)
        wv = eval_forms(want, pts, example1.params)
        assert np.max(np.abs(gv - wv)) < 1e-10, s


# ---------------------------------------------------------------------------
# Sachs / Bianchi / norm identities

def test_sachs_residuals_small(example1, sol, flat):
    for r in eval_forms(sachs_forms(example1), [(0.0, 0.0, 0.0)], example1.params)[0]:
        assert abs(r) <= 1e-9
    for r in eval_forms(sachs_forms(sol), [(1.0, 1.0, 0.0)], sol.params)[0]:
        assert abs(r) <= 1e-9
    for r in eval_forms(sachs_forms(flat), [(0.3, -0.9, 0.5)], flat.params)[0]:
        assert r == 0


def test_bianchi_residuals_small(example2, sol, flat):
    for r in eval_forms(bianchi_forms(flat), [(0.1, 0.2, 0.3)], flat.params)[0]:
        assert r == 0
    for r in eval_forms(bianchi_forms(example2), [(0.0, 0.0, 1.0)], example2.params)[0]:
        assert abs(r) <= 1e-8
    for r in eval_forms(bianchi_forms(sol), [(0.0, 0.0, 0.0)], sol.params)[0]:
        assert abs(r) <= 1e-8


@pytest.mark.parametrize("name", ["example1", "c6", "sol"])
def test_single_point_residuals_match_per_expression_evaluation(name):
    spec = catalog.get_spec(name)
    for point in default_samples(spec, 20, seed=4):
        for forms in (sachs_forms, bianchi_forms):
            want = [eval_forms(z, [point], spec.params)[0] for z in forms(spec)]
            got = eval_forms(forms(spec), [point], spec.params)[0]
            assert np.allclose(got, want, rtol=0, atol=1e-14), forms.__name__


def test_sachs_bianchi_sweeps(example1, example2):
    for spec in (example1, example2):
        pts = default_samples(spec, 50, seed=11)
        assert np.max(np.abs(eval_forms(sachs_forms(spec), pts, spec.params))) <= 1e-8
        assert np.max(np.abs(eval_forms(bianchi_forms(spec), pts, spec.params))) <= 1e-8


def test_ricci_from_sachs_matches_riemann(example1, sol):
    for spec in (example1, sol):
        pts = default_samples(spec, 40, seed=13)
        _, S, _ = curvature_values_many(spec, pts)
        rec = eval_forms(ricci_from_sachs_forms(spec), pts, spec.params)
        assert np.max(np.abs(S - rec)) <= 1e-8


def test_grad_xi_norm_identity(example1, example2, sol):
    for spec in (example1, example2, sol):
        pts = default_samples(spec, 30, seed=14)
        co = spin_coefficients(spec)
        k = eval_forms(co.kappa, pts, spec.params)
        s = eval_forms(co.sigma, pts, spec.params)
        r = eval_forms(co.rho, pts, spec.params)
        want = 2 * (np.abs(k) ** 2 + np.abs(r) ** 2 + np.abs(s) ** 2)
        got = eval_forms(grad_xi_norm_sq(spec), pts, spec.params)
        assert np.max(np.abs(got - want)) <= 1e-10
