import contextlib

import pytest

from np3kit import expr as E


@pytest.fixture
def shared_blocks(monkeypatch):
    """Every block entered through ``expr.shared`` during the test, in order;
    a nested block that reuses its enclosing one appears again as that block."""
    blocks = []
    real = E.shared

    @contextlib.contextmanager
    def recording(*args):
        with real(*args) as scope:
            blocks.append(scope)
            yield scope

    monkeypatch.setattr(E, "shared", recording)
    return blocks
