import math

import pytest

from np3kit import expr as E
from np3kit.ektau import AdaptedState, ektau_params


@pytest.fixture
def tapes(monkeypatch):
    """Every evaluation tape compiled during the test, in order, each as the
    list of the point counts of its passes.  Every pass yields, even one
    that records a domain fault, and is counted when it does; the error
    raised after the last pass counts as no pass."""
    tapes = []
    real_init, real_passes = E._Tape.__init__, E._Tape.passes

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        self.log = []
        tapes.append(self.log)

    def passes(self, pts):
        for step in real_passes(self, pts):
            self.log.append(self.width)
            yield step

    monkeypatch.setattr(E._Tape, "__init__", init)
    monkeypatch.setattr(E._Tape, "passes", passes)
    return tapes


@pytest.fixture
def overflow_doc():
    """A frame whose coefficients overflow: exp(x3) on x3 in [700, 720], so
    kappa is 0 and sigma is NaN at every sample."""
    return {"name": "overflow", "coords": ["x1", "x2", "x3"],
            "frame": {"e1": ["exp(x3)", "0", "0"], "e2": ["0", "exp(x3)", "0"],
                      "xi": ["0", "0", "1"]},
            "box": [[-1, 1], [-1, 1], [700, 720]]}


@pytest.fixture
def nan_det_doc():
    """A frame whose determinant is NaN at every probe: 1 + exp(x3) - exp(x3)
    is 1 + inf - inf on x3 in [790, 800]."""
    return {"name": "nan_det", "coords": ["x1", "x2", "x3"],
            "frame": {"e1": ["1 + exp(x3) - exp(x3)", "0", "0"], "e2": ["0", "1", "0"],
                      "xi": ["0", "0", "1"]},
            "box": [[-1, 1], [-1, 1], [790, 800]]}


@pytest.fixture
def tilted_candidates():
    """{geometry: [(document, params, state)]} of constant tilts whose spin
    coefficients the closed form ``spin_from_f(adapted_covariant_table(params,
    state))`` gives.

    "heisenberg": E(0, tau) in the chart frame E1 = (1, 0, -tau x2),
    E2 = (0, 1, tau x1), E3 = d3, tilted to e1 = -sin v E1 + cos v E2,
    e2 = -cos u (cos v E1 + sin v E2) + sin u E3 and
    xi = sin u (cos v E1 + sin v E2) + cos u E3: the state (u, 0, 0).
    "h2xr": H^2 x R in the half-plane frame E1 = x2 d1, E2 = x2 d2, E3 = d3,
    tilted to e1 = E2, e2 = -cos u E1 + sin u E3 and xi = sin u E1 + cos u E3;
    the connection form has omega(E1) = 1, so the B slots are
    (0, -cos u, sin u)."""
    heisenberg = []
    for tau, u, v in [(0.5, 0.3, 0.0), (1.0, 0.7, 0.9), (-0.8, 1.2, 2.0),
                      (1.7, math.pi / 2, -0.4)]:
        su, cu, sv, cv = math.sin(u), math.cos(u), math.sin(v), math.cos(v)

        def field(a, b, c):  # a E1 + b E2 + c E3
            return [repr(a), repr(b), f"{-a * tau!r}*x2 + {b * tau!r}*x1 + {c!r}"]

        frame = {"e1": field(-sv, cv, 0.0), "e2": field(-cu * cv, -cu * sv, su),
                 "xi": field(su * cv, su * sv, cu)}
        heisenberg.append(({"name": "nil3_tilted", "coords": ["x1", "x2", "x3"], "frame": frame},
                           ektau_params(0.0, tau), AdaptedState(u, (0.0,) * 3, (0.0,) * 3)))
    h2xr = []
    for u in (0.3, 0.6, 1.2, math.pi / 2):
        su, cu = math.sin(u), math.cos(u)
        frame = {"e1": ["0", "x2", "0"], "e2": [f"{-cu!r}*x2", "0", f"{su!r}"],
                 "xi": [f"{su!r}*x2", "0", f"{cu!r}"]}
        h2xr.append(({"name": "h2xr_tilted", "coords": ["x1", "x2", "x3"], "frame": frame,
                      "domain": ["x2"], "box": [[-1, 1], [0.5, 2.0], [-1, 1]]},
                     ektau_params(-1.0, 0.0), AdaptedState(u, (0.0,) * 3, (0.0, -cu, su))))
    return {"heisenberg": heisenberg, "h2xr": h2xr}
