"""Metamorphic checks: moves of the frame with exact predictions.

Every suite compares two routes built on shared layers (the frame inverse,
``frame_directional``, the connection), so a fault in a shared layer can
pass every identity.  These tests change the spec itself and predict the
new values from the old ones:

  * the homothety e_i -> 2 e_i doubles kappa, sigma, rho, beta and eps and
    quadruples the frame Ricci table;
  * swapping e1 and e2 (phi -> -phi) conjugates rho and keeps |kappa| and
    |sigma|.

Each variant is a new document from ``spec_to_document``, so the whole
pipeline runs again.  A difference is bounded by 1e-12 of the largest value
of its dimension: one scale for the spin coefficients, one for the Ricci
table (a coefficient that vanishes reads roundoff, which no scale of its
own can bound).  The kappa = sigma = 0 decision does not move; the verdict
is kept up to its unit-constant refinement (alpha = 1, beta = 1), which a
homothety or a reversed orientation changes.
"""

import numpy as np
import pytest

from np3kit import catalog, eval_forms, riemann, spin_coefficients
from np3kit.classify import classify
from np3kit.frame import default_samples, spec_from_document, spec_to_document

NAMES = ("kappa", "sigma", "rho", "beta_np", "epsilon_np")
UNIT_REFINEMENT = {"Sasakian": "AlphaSasakian", "Kenmotsu": "BetaKenmotsu"}


def _values(spec, points) -> dict:
    co = spin_coefficients(spec)
    forms = {**{name: getattr(co, name) for name in NAMES}, "ricci": riemann(spec).ricci}
    return eval_forms(forms, points, spec.params)


def _variant(spec, frame):
    doc = spec_to_document(spec)
    return spec_from_document(dict(doc, frame=frame(doc["frame"])))


def _homothety(frame: dict) -> dict:
    return {key: [f"2*({c})" for c in comps] for key, comps in frame.items()}


def _swap(frame: dict) -> dict:
    return {"e1": frame["e2"], "e2": frame["e1"], "xi": frame["xi"]}


def _assert_close(got, want, scale, label):
    assert np.max(np.abs(got - want)) <= 1e-12 * scale, label


def _assert_same_verdict(spec, variant, points):
    old = classify(spec, samples=points).verdict
    new = classify(variant, samples=points).verdict
    assert (old == "NotTransSasakian") == (new == "NotTransSasakian"), (old, new)
    assert UNIT_REFINEMENT.get(old, old) == UNIT_REFINEMENT.get(new, new), (old, new)


@pytest.mark.parametrize("name", catalog.names())
def test_a_homothety_scales_the_spin_coefficients_and_the_ricci_table(name):
    spec = catalog.get_spec(name)
    pts = default_samples(spec, 200, seed=5)
    variant = _variant(spec, _homothety)
    old, new = _values(spec, pts), _values(variant, pts)
    spin_scale = 2 * max(np.max(np.abs(old[c])) for c in NAMES)
    for coeff in NAMES:
        _assert_close(new[coeff], 2 * old[coeff], spin_scale, coeff)
    _assert_close(new["ricci"], 4 * old["ricci"], 4 * np.max(np.abs(old["ricci"])), "ricci")
    _assert_same_verdict(spec, variant, pts)


@pytest.mark.parametrize("name", catalog.names())
def test_swapping_e1_and_e2_conjugates_rho_and_keeps_kappa_and_sigma(name):
    spec = catalog.get_spec(name)
    pts = default_samples(spec, 200, seed=5)
    variant = _variant(spec, _swap)
    old, new = _values(spec, pts), _values(variant, pts)
    spin_scale = max(np.max(np.abs(old[c])) for c in NAMES)
    _assert_close(new["rho"], np.conj(old["rho"]), spin_scale, "rho")
    for coeff in ("kappa", "sigma"):
        _assert_close(np.abs(new[coeff]), np.abs(old[coeff]), spin_scale, coeff)
    _assert_same_verdict(spec, variant, pts)
