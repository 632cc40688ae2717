import math

import pytest

from np3kit import ektau
from np3kit import expr as E
from np3kit.frame import load_manifold


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
    """{geometry: [(spec, kappa, tau, p, q)]} of constant tilts, whose S(D, D)
    is (4 tau^2 - kappa)/2 (p - i q)^2 with p = g(e1, E3), q = g(e2, E3).

    "heisenberg": ``ektau.spec(0, tau, (u, v, 0))``, Daniel's chart frame of
    E(0, tau) tilted to e1 = -sin v E1 + cos v E2,
    e2 = -cos u (cos v E1 + sin v E2) + sin u E3 and
    xi = sin u (cos v E1 + sin v E2) + cos u E3: p = 0 and q = sin u.
    "h2xr": H^2 x R = E(-1, 0) in the half-plane chart E1 = x2 d1, E2 = x2 d2,
    E3 = d3, tilted to e1 = E2, e2 = -cos u E1 + sin u E3 and
    xi = sin u E1 + cos u E3; E3 = d3 and E1, E2 have no d3 component, so p
    and q are the d3 components of e1 and e2.  p and q are expressions."""
    heisenberg = [(ektau.spec(0.0, tau, (u, v, 0.0)), 0.0, tau, E.const(0.0), E.const(math.sin(u)))
                  for tau, u, v in [(0.5, 0.3, 0.0), (1.0, 0.7, 0.9), (-0.8, 1.2, 2.0),
                                    (1.7, math.pi / 2, -0.4)]]
    h2xr = []
    for u in (0.3, 0.6, 1.2, math.pi / 2):
        su, cu = math.sin(u), math.cos(u)
        frame = {"e1": ["0", "x2", "0"], "e2": [f"{-cu!r}*x2", "0", f"{su!r}"],
                 "xi": [f"{su!r}*x2", "0", f"{cu!r}"]}
        tilted = load_manifold({"name": "h2xr_tilted", "coords": ["x1", "x2", "x3"],
                                "frame": frame, "domain": ["x2"],
                                "box": [[-1, 1], [0.5, 2.0], [-1, 1]]})
        h2xr.append((tilted, -1.0, 0.0, tilted.e1[2], tilted.e2[2]))
    return {"heisenberg": heisenberg, "h2xr": h2xr}
