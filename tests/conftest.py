import pytest

from np3kit import expr as E


@pytest.fixture
def tapes(monkeypatch):
    """Every evaluation tape compiled during the test, in order, each as the
    list of the point counts of its passes."""
    tapes = []
    real_init, real_run = E._Tape.__init__, E._Tape.run

    def init(self, *args):
        real_init(self, *args)
        self.passes = []
        tapes.append(self.passes)

    def run(self, pts, *args):
        self.passes.append(len(pts))
        return real_run(self, pts, *args)

    monkeypatch.setattr(E._Tape, "__init__", init)
    monkeypatch.setattr(E._Tape, "run", run)
    return tapes
