"""Metamorphic checks: moves of the frame with exact predictions.

Every suite compares two routes built on shared layers (the frame inverse,
``frame_directional``, the connection), so a fault in a shared layer can
pass every identity.  These tests change the spec itself and predict the
new values from the old ones:

  * the homothety e_i -> 2 e_i doubles kappa, sigma, rho, beta and eps and
    quadruples the frame Ricci table;
  * swapping e1 and e2 (phi -> -phi) conjugates rho and keeps |kappa| and
    |sigma|;
  * the pull-back through a diffeomorphism x = F(y), e~_i = DF^-1 e_i o F,
    keeps every frame scalar: its value at y is the old one at F(y).

Each variant is a new spec, so the whole pipeline runs again: the homothety
and the swap as documents from ``spec_to_document``, the pull-back as
expressions composed through the constructors.  A difference is bounded by
1e-12 of the largest value of its dimension: one scale for the spin
coefficients, one for the Ricci table (a coefficient that vanishes reads
roundoff, which no scale of its own can bound; a pull-back of a flat frame
bounds its Ricci table by the squared spin scale).  The kappa = sigma = 0
decision does not move; the verdict is kept up to its unit-constant
refinement (alpha = 1, beta = 1), which a homothety or a reversed
orientation changes, and a pull-back keeps it whole.
"""

import numpy as np
import pytest

from np3kit import catalog, eval_forms, riemann, spin_coefficients
from np3kit import expr as E
from np3kit.classify import classify
from np3kit.frame import (ManifoldSpec, _inv3, default_samples, spec_from_document,
                          spec_to_document)

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


_BINARY = {"add": E.add, "sub": E.sub, "mul": E.mul, "div": E.div, "pow": E.power}


def _compose(f, F):
    """f(F(y)): ``f`` rebuilt through the constructors with each coordinate
    x_i replaced by the expression F[i - 1] of y."""
    memo = {}

    def go(node):
        if id(node) not in memo:
            if isinstance(node, E.Coord):
                memo[id(node)] = F[node.index - 1]
            elif isinstance(node, E.Unary):
                memo[id(node)] = E.func(node.op, go(node.arg))
            elif isinstance(node, E.Binary):
                memo[id(node)] = _BINARY[node.op](go(node.left), go(node.right))
            else:
                memo[id(node)] = node
        return memo[id(node)]

    return go(f)


def _pull_back(spec, F):
    """The spec whose frame is e~_i = DF^-1 (e_i o F), in the coordinates y of
    x = F(y): F is orthogonal for it, so each frame scalar at y is the old one
    at F(y).  Its box is the old one; it is evaluated at given points only."""
    inv = _inv3([[E.differentiate(F[l], m) for m in (1, 2, 3)] for l in range(3)])[0]
    frame = [[_compose(c, F) for c in field] for field in spec.frame]
    e1, e2, xi = (tuple(sum((inv[m][l] * row[l] for l in range(3)), E.const(0.0))
                        for m in range(3)) for row in frame)
    return ManifoldSpec(name=f"{spec.name}_pulled", coords=spec.coords, e1=e1, e2=e2, xi=xi,
                        domain=tuple(_compose(d, F) for d in spec.domain),
                        params=spec.params, box=spec.box)


_Y = (E.coord(1), E.coord(2), E.coord(3))
# (x = F(y) as expressions of y, y = F^-1(x) on (N,3) arrays); both keep the orientation
DIFFEOMORPHISMS = {
    "affine_shear": ((_Y[0] + 0.5 * _Y[1], _Y[1] + 0.1, _Y[2] + 0.25 * _Y[0]),
                     lambda x: np.linalg.solve([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0],
                                                [0.25, 0.0, 1.0]], (x - [0.0, 0.1, 0.0]).T).T),
    "wave": ((_Y[0], _Y[1], _Y[2] + 0.1 * E.sin(_Y[0])),
             lambda x: x - np.outer(0.1 * np.sin(x[:, 0]), [0.0, 0.0, 1.0])),
}


@pytest.mark.parametrize("move", DIFFEOMORPHISMS)
@pytest.mark.parametrize("name", catalog.names())
def test_a_pull_back_keeps_every_frame_scalar(name, move):
    spec = catalog.get_spec(name)
    F, inverse = DIFFEOMORPHISMS[move]
    x = default_samples(spec, 200, seed=5)
    y = inverse(x)
    variant = _pull_back(spec, F)
    old, new = _values(spec, x), _values(variant, y)
    spin_scale = max(np.max(np.abs(old[c])) for c in NAMES)
    for coeff in NAMES:
        _assert_close(new[coeff], old[coeff], spin_scale, coeff)
    # a flat frame's Ricci table is roundoff: the squared spin scale bounds it
    _assert_close(new["ricci"], old["ricci"], max(np.max(np.abs(old["ricci"])), spin_scale ** 2),
                  "ricci")
    assert classify(variant, samples=y).verdict == classify(spec, samples=x).verdict
