import pytest

from np3kit import expr as E


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
