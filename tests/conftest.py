import pytest

from np3kit import expr as E


@pytest.fixture
def tapes(monkeypatch):
    """Every evaluation tape compiled during the test, in order, each as the
    list of the point counts of its passes.  A pass is counted before it
    runs, so a pass that raises counts too."""
    tapes = []
    real_init, real_passes = E._Tape.__init__, E._Tape.passes

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        self.log = []
        tapes.append(self.log)

    def passes(self, pts, *args):
        run = real_passes(self, pts, *args)
        while True:
            self.log.append(self.width)
            step = next(run, None)
            if step is None:
                self.log.pop()
                return
            yield step

    monkeypatch.setattr(E._Tape, "__init__", init)
    monkeypatch.setattr(E._Tape, "passes", passes)
    return tapes
