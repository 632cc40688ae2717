import math

import numpy as np
import pytest

from np3kit import catalog
from np3kit.ektau import (AdaptedState, TauZeroForSigma, adapted_covariant_table,
                          bracket_consistency, ektau_model, ektau_params,
                          rigidity_obstruction, rigidity_sweep, sol_obstruction,
                          spin_from_f)
from np3kit.cexpr import eval_forms
from np3kit.frame import connection_table, default_samples, load_manifold, riemann
from np3kit.npcore import spin_coefficients


def test_params_delta_relation():
    p = ektau_params(4.0, 1.0)
    assert p.sigma_bracket == 2.0
    assert p.delta == p.sigma_bracket - 2.0 * p.tau  # exactly
    assert p.delta == 0.0
    q = ektau_params(1.0, 1.0)
    assert q.delta == pytest.approx(-1.5)
    with pytest.raises(TauZeroForSigma):
        ektau_params(1.0, 0.0).sigma_bracket


def test_model_nil3_brackets():
    m = ektau_model(0.0, 0.5)
    c = np.asarray(m.c)
    want = np.zeros((3, 3, 3))
    want[0, 1, 2], want[1, 0, 2] = 1.0, -1.0
    assert np.array_equal(c, want)


def test_model_space_form_params():
    m = ektau_model(4.0, 1.0)
    assert m.params.sigma_bracket == 2.0
    assert m.params.delta == 0.0


def test_model_gamma_consistent_with_koszul():
    for kappa, tau in [(0.0, 0.5), (1.0, 1.0), (-2.0, 0.7), (-1.0, 0.0), (0.0, 0.0)]:
        m = ektau_model(kappa, tau)
        c, gm = np.asarray(m.c), np.asarray(m.gamma)
        koszul = 0.5 * (c - np.einsum("jki->ijk", c) + np.einsum("kij->ijk", c))
        assert np.max(np.abs(gm - koszul)) < 1e-14, (kappa, tau)
        # metric compatibility and torsion
        assert np.max(np.abs(gm + np.swapaxes(gm, 1, 2))) < 1e-14
        assert np.max(np.abs(gm - np.swapaxes(gm, 0, 1) - c)) < 1e-14


def test_model_s2xr_rejected():
    with pytest.raises(ValueError):
        ektau_model(1.0, 0.0)


def test_model_matches_nil3_catalog_connection():
    m = ektau_model(0.0, 0.5)
    spec = catalog.get_spec("nil3")
    pts = default_samples(spec, 20, seed=0)
    gam = eval_forms(connection_table(spec).gamma, pts, spec.params)
    assert np.max(np.abs(gam - np.asarray(m.gamma))) <= 1e-10


def test_vertical_spin_from_model():
    m = ektau_model(0.0, 0.5)
    gm = np.asarray(m.gamma)
    f = tuple((gm[i, 2, 0], gm[i, 2, 1]) for i in range(3))
    kappa, sigma, rho = spin_from_f(f)
    assert kappa == 0 and sigma == 0
    assert rho == pytest.approx(0.5j, abs=1e-15)
    assert rigidity_obstruction(m.params, 0.0).implied_alpha_beta == (0.5, 0.0)


def closed_form_spin(params, state) -> tuple:
    """(kappa_np, sigma_np, rho_np) of the tilted candidate's one closed form."""
    return spin_from_f(adapted_covariant_table(params, state))


def test_closed_form_vertical_state():
    p = ektau_params(1.0, 1.0)
    k, s, r = closed_form_spin(p, AdaptedState.vertical())
    assert k == 0 and s == 0
    assert r == pytest.approx(1j, abs=1e-15)


def test_closed_form_tilted_shear():
    # kappa=1, tau=1 => delta = -1.5; u = pi/2 with no du, dv
    p = ektau_params(1.0, 1.0)
    state = AdaptedState(math.pi / 2, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    k, s, r = closed_form_spin(p, state)
    assert k == pytest.approx(0.0, abs=1e-15)
    assert s == pytest.approx(-0.75j, abs=1e-12)
    assert r == pytest.approx(0.25j, abs=1e-12)


def test_closed_form_du_xi():
    p = ektau_params(1.0, 1.0)
    state = AdaptedState(0.0, (0.0, 0.0, 1.0), (0.0, 0.0, 0.0))
    k, _, _ = closed_form_spin(p, state)
    assert k == pytest.approx(-1j / math.sqrt(2), abs=1e-15)


def test_closed_form_constraints_vertical_and_tilted():
    # kappa_np = sigma_np = 0 is four real equations: Re and Im of each
    p = ektau_params(1.0, 1.0)
    k, s, r = closed_form_spin(p, AdaptedState.vertical())
    assert (k, s) == (0, 0)
    assert (r.imag, r.real) == (1.0, 0.0)  # (alpha, beta)

    state = AdaptedState(math.pi / 2, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    k, s, _ = closed_form_spin(p, state)
    assert k.real == pytest.approx(0.0, abs=1e-15)  # cos(pi/2) ~ 0
    assert -2 * s.imag == pytest.approx(1.5, abs=1e-12)  # -delta

    # a state built to solve dv(xi) = -delta cos u zeroes Re kappa_np exactly
    u = 0.8
    state = AdaptedState(u, (0.0, 0.0, 0.0),
                         (0.0, 0.0, -p.delta * math.cos(u)))
    assert closed_form_spin(p, state)[0].real == 0.0


def test_adapted_table_values():
    p = ektau_params(1.0, 1.0)
    f = adapted_covariant_table(p, AdaptedState.vertical())
    # vertical: nabla_{e1} xi = -tau e2, nabla_{e2} xi = tau e1
    assert f[0] == (0.0, -1.0)
    assert f[1] == (1.0, 0.0)
    assert f[2] == (0.0, 0.0)

    state = AdaptedState(math.pi / 2, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    f = adapted_covariant_table(p, state)
    # nabla_{e2} xi = (tau + delta) e1 = -0.5 e1
    assert f[1][0] == pytest.approx(-0.5, abs=1e-12)


def test_product_case_table_and_spin():
    p = ektau_params(-1.0, 0.0)
    # u = pi/2, B = 0, du = 0: nabla xi = 0
    state = AdaptedState(math.pi / 2, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    f = adapted_covariant_table(p, state)
    assert all(v == (0.0, 0.0) for v in f)
    k, s, r = spin_from_f(f)
    assert k == s == r == 0


def pipeline_gap(doc, params, state) -> float:
    """max |closed form - pipeline| of (kappa_np, sigma_np, rho_np) at 50
    seed-0 samples of the document's frame."""
    spec = load_manifold(doc)
    co = spin_coefficients(spec)
    got = eval_forms((co.kappa, co.sigma, co.rho), default_samples(spec, 50), spec.params)
    return float(np.max(np.abs(got - np.array(closed_form_spin(params, state)))))


def test_heisenberg_tilted_candidate_matches_generic_engine(tilted_candidates):
    """Constant tilts on the Heisenberg group: the closed form against the
    full symbolic pipeline on the tilted frame."""
    for doc, p, state in tilted_candidates["heisenberg"]:
        assert pipeline_gap(doc, p, state) <= 1e-12, (p, state)
        # the comparison is not of zeros: the tilted candidate is sheared
        sigma = closed_form_spin(p, state)[1]
        assert abs(sigma) == pytest.approx(abs(p.tau) * math.sin(state.u) ** 2, abs=1e-15)


def test_h2xr_tilted_candidate_matches_generic_engine(tilted_candidates):
    """Constant-angle tilts on H^2 x R: the product-case closed form against
    the full symbolic pipeline on the tilted frame."""
    for doc, p, state in tilted_candidates["h2xr"]:
        assert pipeline_gap(doc, p, state) <= 1e-12, state
        # the candidate fails the geodesic condition outright
        kappa = closed_form_spin(p, state)[0]
        assert abs(kappa) == pytest.approx(math.sin(state.u) ** 2 / math.sqrt(2), abs=1e-12)


@pytest.mark.parametrize("kappa,tau", [(-1.0, 0.5), (0.0, 0.5), (1.0, 1.0), (4.0, 1.0),
                                       (2.0, -0.7), (-1.0, 0.0), (-1.5, 0.0), (0.0, 0.0)])
def test_model_curvature_matches_daniel_chart_frame(kappa, tau):
    """The canonical model's Ricci tensor against the pipeline's on Daniel's
    chart frame e1 = (1/lam, 0, -tau x2), e2 = (0, 1/lam, tau x1), xi = d3,
    1/lam = 1 + kappa/4 (x1^2 + x2^2): both frames have xi = E3, and S is
    invariant under horizontal rotations."""
    inv_lam = f"(1 + {kappa / 4!r}*(x1^2 + x2^2))"
    spec = load_manifold({
        "name": "daniel", "coords": ["x1", "x2", "x3"],
        "frame": {"e1": [inv_lam, "0", f"{-tau!r}*x2"], "e2": ["0", inv_lam, f"{tau!r}*x1"],
                  "xi": ["0", "0", "1"]},
    })
    S = eval_forms(riemann(spec).ricci, default_samples(spec, 200), spec.params)
    _, S_model = ektau_model(kappa, tau).curvature()
    assert np.max(np.abs(S - S_model)) <= 1e-14
    assert np.allclose(np.diag(S_model), [kappa - 2 * tau * tau] * 2 + [2 * tau * tau])


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


def test_bracket_consistency_closed_forms():
    for kappa, tau in [(1.0, 1.0), (-2.0, 0.5), (3.0, -1.2)]:
        p = ektau_params(kappa, tau)
        for u in np.linspace(0.1, math.pi - 0.1, 9):
            for alpha, beta in [(0.4, -1.1), (2.0, 0.3), (-0.7, -0.2)]:
                res = bracket_consistency(p, float(u), alpha, beta)
                assert abs(res["system"]) <= 1e-12
                assert abs(res["xi_alpha"]) <= 1e-12
                assert abs(res["xi_beta"]) <= 1e-12
                assert abs(res["implied_alpha"]) <= 1e-12
                assert abs(res["implied_beta"]) <= 1e-12


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
