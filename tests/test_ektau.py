import hashlib
import math

import numpy as np
import pytest

from np3kit import catalog
from np3kit import expr as E
from np3kit.cexpr import eval_forms
from np3kit.classify import classify, einstein_check
from np3kit.ektau import (TauZeroForSigma, _obstruction, ektau_params, rigidity_obstruction,
                          rigidity_sweep, sol_obstruction, spec)
from np3kit.frame import (connection_table, default_samples, load_manifold, riemann,
                          spec_to_document)
from np3kit.npcore import ricci_complex, spin_coefficients
from np3kit.suites import run_suites, suite_passed

# Berger spheres (kappa > 0, kappa != 4 tau^2), S^2 x R (kappa > 0, tau = 0),
# round spheres (kappa = 4 tau^2), the flat and hyperbolic products and
# Heisenberg, plus a seeded draw over the plane (SL(2, R) covers among them)
_RNG = np.random.default_rng(0)
VERTICAL = ([(3.0, 0.4), (1.0, 1.0), (1.0, 0.0), (2.5, 0.0), (4.0, 1.0), (1.0, 0.5),
             (0.0, 0.0), (-1.0, 0.0), (0.0, 0.5)]
            + [(round(k, 3), round(t, 3)) for k, t in zip(_RNG.uniform(-4.0, 4.0, 4).tolist(),
                                                        _RNG.uniform(-2.0, 2.0, 4).tolist())])


def _spin(s, pts):
    co = spin_coefficients(s)
    return eval_forms([co.kappa, co.sigma, co.rho], pts, s.params)


def test_params_delta_relation():
    p = ektau_params(4.0, 1.0)
    assert p.sigma_bracket == 2.0
    assert p.delta == p.sigma_bracket - 2.0 * p.tau  # exactly
    assert p.delta == 0.0
    q = ektau_params(1.0, 1.0)
    assert q.delta == pytest.approx(-1.5)
    with pytest.raises(TauZeroForSigma):
        ektau_params(1.0, 0.0).sigma_bracket


def test_model_space_form_params():
    """On the space-form locus kappa = 4 tau^2, delta = 0 and E(kappa, tau)
    is a round sphere: Einstein with S = 2 tau^2 g.  Off it, it is not."""
    p = ektau_params(4.0, 1.0)
    assert (p.sigma_bracket, p.delta) == (2.0, 0.0)
    for (kappa, tau), einstein in [((4.0, 1.0), True), ((1.0, 0.5), True), ((1.0, 1.0), False),
                                   ((3.0, 0.4), False)]:
        verdict = einstein_check(spec(kappa, tau))
        assert verdict.is_einstein == einstein, (kappa, tau)
        assert verdict.a == pytest.approx(2 * tau * tau, abs=1e-14)
        if einstein:
            assert verdict.residuals["einstein_closed_form"] <= 1e-14
        else:  # S(e1, e1) - a = kappa - 4 tau^2
            assert verdict.residuals["max_abs_S_minus_a_g"] >= abs(kappa - 4 * tau * tau) / 2


def test_model_matches_nil3_catalog_connection():
    """Daniel's chart frame at (0, 1/2) and the catalog's nil3 frame are two
    left-invariant frames of the Heisenberg group with [e1, e2] = xi: the same
    connection, Ricci table and rho_np."""
    s, nil3 = spec(0.0, 0.5), catalog.get_spec("nil3")
    pts = default_samples(s, 200)
    for table in (lambda m: connection_table(m).gamma, lambda m: riemann(m).ricci):
        got, want = (eval_forms(table(m), pts, m.params) for m in (s, nil3))
        assert np.max(np.abs(got - want)) <= 1e-14
    rho, rho_nil3 = (eval_forms(spin_coefficients(m).rho, pts, m.params) for m in (s, nil3))
    assert np.max(np.abs(rho - rho_nil3)) <= 1e-14


@pytest.mark.parametrize("kappa,tau", [(-1.0, 0.5), (0.0, 0.5), (1.0, 1.0), (4.0, 1.0),
                                       (2.0, -0.7), (-1.0, 0.0), (-1.5, 0.0), (0.0, 0.0),
                                       (3.0, 0.4), (1.0, 0.0), (2.5, 0.0)])
def test_model_curvature_matches_daniel_chart_frame(kappa, tau):
    """The Ricci tensor of E(kappa, tau), diag(kappa - 2 tau^2, kappa - 2 tau^2,
    2 tau^2) in a frame with xi = E3, against the pipeline's on Daniel's chart
    frame, Berger spheres (3, 0.4) and S^2 x R (1, 0), (2.5, 0) included."""
    s = spec(kappa, tau)
    S = eval_forms(riemann(s).ricci, default_samples(s, 200), s.params)
    assert np.max(np.abs(S - np.diag([kappa - 2 * tau * tau] * 2 + [2 * tau * tau]))) <= 1e-14


@pytest.mark.parametrize("kappa,tau", VERTICAL)
def test_every_suite_passes_on_the_chart_frame(kappa, tau):
    s = spec(kappa, tau)
    results = run_suites(s, "all", default_samples(s, 200))
    assert suite_passed(results)
    assert not any(chk.get("skipped") for chk in results["ts"])  # the vertical field is ts


def test_vertical_spin_from_model():
    """The vertical field has kappa_np = sigma_np = 0 and rho_np = i tau, and
    ``rigidity_obstruction`` reports its (alpha, beta) as (Im rho, Re rho)."""
    for kappa, tau in VERTICAL:
        s = spec(kappa, tau)
        k, sg, rho = _spin(s, default_samples(s, 200))
        assert np.max(np.abs(k)) == np.max(np.abs(sg)) == 0.0
        assert np.max(np.abs(rho - 1j * tau)) <= 1e-14, (kappa, tau)
        alpha_beta = rigidity_obstruction(ektau_params(kappa, tau), 0.0).implied_alpha_beta
        assert alpha_beta == pytest.approx((rho.imag[0], rho.real[0]), abs=1e-14)


def test_closed_form_vertical_state():
    # the vertical field is alpha-Sasakian with (alpha, beta) = (tau, 0)
    for (kappa, tau), verdict in [((1.0, 1.0), "Sasakian"), ((3.0, 0.4), "AlphaSasakian"),
                                  ((1.0, 0.0), "Cosymplectic")]:
        cls = classify(spec(kappa, tau))
        assert cls.verdict == verdict
        assert cls.alpha_summary[0] == pytest.approx(tau, abs=1e-15)
        assert cls.beta_summary[0] == 0.0


def test_adapted_table_values():
    # vertical: nabla_{e1} xi = -tau e2, nabla_{e2} xi = tau e1, nabla_{xi} xi = 0
    for kappa, tau in [(1.0, 1.0), (3.0, 0.4), (-2.0, -0.7)]:
        s = spec(kappa, tau)
        gamma = eval_forms(connection_table(s).gamma, default_samples(s, 50), s.params)
        want = np.zeros((3, 3))
        want[0, 1], want[1, 0] = -tau, tau
        assert np.max(np.abs(gamma[:, :, 2, :] - want)) <= 1e-15


def test_product_case_table_and_spin():
    # on a product M^2(kappa) x R the vertical field is parallel: cosymplectic
    for kappa in (-1.0, 0.0, 1.0):
        s = spec(kappa, 0.0)
        pts = default_samples(s, 50)
        gamma = eval_forms(connection_table(s).gamma, pts, s.params)
        assert np.max(np.abs(gamma[:, :, 2, :])) == 0.0
        assert np.max(np.abs(_spin(s, pts))) == 0.0


def test_closed_form_du_xi():
    # where u = 0 and xi(u) = 1, nabla_xi xi = -e2, so kappa_np = -i/sqrt(2)
    pts = np.array([[0.1, -0.2, 0.0], [0.3, 0.4, 0.0], [-0.45, 0.05, 0.0]])
    for kappa, tau in [(1.0, 1.0), (0.0, 0.5), (-1.0, 0.0)]:
        s = spec(kappa, tau, ("x3", 0.0, 0.0))
        k = eval_forms(spin_coefficients(s).kappa, pts, s.params)
        assert np.max(np.abs(k + 1j / math.sqrt(2))) <= 1e-15


def test_closed_form_tilted_shear():
    # kappa = tau = 1 and u = pi/2: S(D, D) = 3/2 (p - i q)^2, of modulus 3/2,
    # so the candidate cannot have kappa_np = sigma_np = 0
    for v, phi in [(0.0, 0.0), (0.9, 2.0)]:
        s = spec(1.0, 1.0, (math.pi / 2, v, phi))
        pts = default_samples(s, 50)
        S_dd = eval_forms(ricci_complex(s)["dd"], pts, s.params)
        p, q = math.sin(phi), math.cos(phi)
        assert np.max(np.abs(S_dd - 1.5 * (p - 1j * q) ** 2)) <= 1e-14
        assert classify(s, pts).verdict == "NotTransSasakian"


# (u, v, phi): constant tilts, sin u = 0 among them, and tilts varying in space
CONSTANT_TILTS = [(0.0, 0.4, 1.0), (0.3, 0.0, 0.0), (1.2, 0.9, 0.6435011087932844),
                  (math.pi / 2, -0.4, 2.0), (2.5, 1.7, -1.1)]
VARYING_TILTS = [("1.2 + x1*x2", "0.5*x3", "x1"), ("x3", "x1 - x2", "0.3"),
                 ("0.8 + x1^2", "0", "x2*x3")]


def _p_q(tilt, pts):
    """p = sin phi sin u and q = cos phi sin u of a tilt at ``pts``."""
    u, _, phi = (E.parse(a) if isinstance(a, str) else E.as_expr(a) for a in tilt)
    return eval_forms([E.sin(phi) * E.sin(u), E.cos(phi) * E.sin(u)], pts)


@pytest.mark.parametrize("tilt", CONSTANT_TILTS + VARYING_TILTS, ids=str)
@pytest.mark.parametrize("kappa,tau", [(3.0, 0.4), (1.0, 0.0), (4.0, 1.0), (1.0, 0.5),
                                       (-1.0, 0.5), (0.0, 0.0)])
def test_the_shear_of_a_tilt_is_the_ricci_closed_form(kappa, tau, tilt):
    """S(D, D) = (4 tau^2 - kappa)/2 (p - i q)^2 through the pipeline; it
    vanishes exactly where ``_obstruction`` does, and off that zero set the
    tilt classifies NotTransSasakian."""
    s = spec(kappa, tau, tilt)
    pts = default_samples(s, 200)
    S_dd = eval_forms(ricci_complex(s)["dd"], pts, s.params)
    p, q = _p_q(tilt, pts)
    assert np.max(np.abs(S_dd - 0.5 * (4 * tau * tau - kappa) * (p - 1j * q) ** 2)) <= 1e-13
    u = eval_forms(E.parse(tilt[0]) if isinstance(tilt[0], str) else E.as_expr(tilt[0]), pts)
    obstruction, _ = _obstruction(kappa, tau, u)
    assert np.array_equal(np.abs(S_dd) <= 1e-12, obstruction == 0.0)
    if np.any(obstruction != 0.0):
        assert classify(s, pts).verdict == "NotTransSasakian"


@pytest.mark.parametrize("kappa,tau,tilt", [(3.0, 0.4, t) for t in VARYING_TILTS]
                         + [(1.0, 0.0, VARYING_TILTS[0]), (4.0, 1.0, VARYING_TILTS[1]),
                            (-1.0, 0.5, CONSTANT_TILTS[2])], ids=str)
def test_every_suite_passes_on_a_tilted_frame(kappa, tau, tilt):
    # the ts suite is one passing skip record: the tilt is not trans-Sasakian
    s = spec(kappa, tau, tilt)
    results = run_suites(s, "all", default_samples(s, 200))
    assert suite_passed(results)
    assert results["ts"][0]["skipped"]


def test_a_spec_round_trips_through_its_document():
    s = spec(1.0, 0.5, ("1.2 + x1*x2", "0.5*x3", "x1"))
    doc = spec_to_document(s)
    assert doc["params"] == {"kappa": 1.0, "tau": 0.5}
    assert doc["box"] == [[-0.5, 0.5]] * 3
    back = load_manifold(doc)
    assert back.frame == s.frame and back.domain == s.domain
    pts = default_samples(s, 200)
    assert np.array_equal(default_samples(back, 200), pts)
    assert run_suites(back, "all", pts) == run_suites(s, "all", pts)
    assert classify(back, pts) == classify(s, pts)


def shear_gap(s, kappa, tau, p, q) -> tuple:
    """(max |S(D, D) - (4 tau^2 - kappa)/2 (p - i q)^2|, min |S(D, D)|) at 50
    seed-0 samples of the spec ``s``, for expressions ``p`` and ``q``."""
    pts = default_samples(s, 50)
    S_dd, p, q = eval_forms([ricci_complex(s)["dd"], p, q], pts, s.params)
    return (float(np.max(np.abs(S_dd - 0.5 * (4 * tau * tau - kappa) * (p - 1j * q) ** 2))),
            float(np.min(np.abs(S_dd))))


def test_heisenberg_tilted_candidate_matches_generic_engine(tilted_candidates):
    """Constant tilts of Daniel's chart frame at kappa = 0: the pipeline's
    S(D, D) against its closed form, which is not zero."""
    for candidate in tilted_candidates["heisenberg"]:
        gap, smallest = shear_gap(*candidate)
        assert gap <= 1e-13 and smallest >= 0.04


def test_h2xr_tilted_candidate_matches_generic_engine(tilted_candidates):
    """Constant-angle tilts in the half-plane chart of H^2 x R: the same
    closed form, with p and q read off the frame's d3 components."""
    for candidate in tilted_candidates["h2xr"]:
        gap, smallest = shear_gap(*candidate)
        assert gap <= 1e-13 and smallest >= 0.04


def test_rigidity_obstruction_cases():
    rep = rigidity_obstruction(ektau_params(1.0, 1.0), math.pi / 2)
    assert rep.obstruction_value == pytest.approx(-3.0, abs=1e-12)
    assert rep.verdict == "forced_vertical"
    assert rep.implied_alpha_beta == (1.0, 0.0)

    rep = rigidity_obstruction(ektau_params(4.0, 1.0), 0.7)
    assert rep.obstruction_value == 0.0  # exactly
    assert rep.verdict == "space_form_exception"

    rep = rigidity_obstruction(ektau_params(-1.0, 0.0), math.pi / 2)
    assert rep.obstruction_value == pytest.approx(-1.0, abs=1e-15)
    assert rep.verdict == "forced_vertical"
    assert rep.implied_alpha_beta == (0.0, 0.0)

    rep = rigidity_obstruction(ektau_params(0.0, 0.0), 1.0)
    assert rep.obstruction_value == 0.0
    assert rep.verdict == "product_flat_exception"


def test_a_sweep_cell_is_the_single_point_report():
    # the grid holds both loci: (1, 0.5) and (4, +-1) are space forms, (0, 0) is flat
    kappas, taus, us = [-1.0, 0.0, 1.0, 4.0], [-1.0, 0.0, 0.5, 1.0], [0.0, 0.7, math.pi / 2]
    obstruction, expected_zero = rigidity_sweep(kappas, taus, us)
    for i, j, k in np.ndindex(obstruction.shape):
        rep = rigidity_obstruction(ektau_params(kappas[i], taus[j]), us[k])
        assert type(rep.obstruction_value) is float
        assert rep.obstruction_value == obstruction[i, j, k]
        on_locus = rep.verdict != "forced_vertical"
        assert expected_zero[i, j, k] == (on_locus or us[k] == 0.0)
        assert on_locus == ((kappas[i], taus[j]) in ((1.0, 0.5), (4.0, 1.0), (4.0, -1.0), (0.0, 0.0)))


def test_rigidity_sweep_grid():
    kappas = np.linspace(-4, 4, 50)
    taus = np.linspace(-2, 2, 50)
    us = np.linspace(0, math.pi, 52)[1:-1]  # interior: sin u != 0
    obstruction, expected_zero = rigidity_sweep(kappas, taus, us)
    assert obstruction.shape == (50, 50, 50)
    nonzero = obstruction != 0.0
    assert np.array_equal(nonzero, ~expected_zero)

    # exceptional slices hit exactly
    taus_nz = taus[taus != 0]
    obstruction, expected_zero = rigidity_sweep(4 * taus_nz * taus_nz, taus_nz, us)
    diag = np.einsum("iiu->iu", obstruction)  # matched (kappa, tau) pairs
    assert np.all(np.einsum("iiu->iu", expected_zero))
    assert np.all(diag == 0.0)

    obstruction, _ = rigidity_sweep([0.0], [0.0], us)
    assert np.all(obstruction == 0.0)

    obstruction, expected_zero = rigidity_sweep(kappas, taus, [0.0])
    assert np.all(obstruction == 0.0) and np.all(expected_zero)


def test_sol_obstruction_report():
    rep = sol_obstruction()
    assert rep["pass"]
    assert rep["ricci_residual"] <= 1e-9
    assert rep["sigma_vertical"] == pytest.approx([-1.0, 0.0], abs=1e-12)
    assert rep["tilted_all_obstructed"]
    assert not rep["admits_trans_sasakian"]
    # the printed closed form -(p - i q)^2 for p = 0.6, q = 0.8
    s = complex(-((0.6 - 0.8j) ** 2))
    assert s == pytest.approx(0.28 + 0.96j, abs=1e-15)
    # the report is byte-stable, and perfbench validates it
    assert hashlib.sha256(repr(rep).encode()).hexdigest() == \
        "6628bcdad85e7ce7b9c6ea2f1a65f4a424f91899baeef18e9fbdc08cd030ce85"
