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
