import numpy as np
import pytest

from np3kit import catalog
from np3kit.frame import default_samples
from np3kit.sampling import _van_der_corput


def _van_der_corput_loop(n, base, start=1):
    """The one-index-at-a-time radical inverse the vectorised one replaces."""
    out = np.empty(n)
    for i in range(n):
        k, f, x = start + i, 1.0, 0.0
        while k > 0:
            f /= base
            k, r = divmod(k, base)
            x += r * f
        out[i] = x
    return out


@pytest.mark.parametrize("base", [2, 3, 5])
@pytest.mark.parametrize("n,start", [(80_000, 1), (1, 1), (777, 12_345), (0, 1)])
def test_van_der_corput_is_bit_identical_to_the_loop(base, n, start):
    got = _van_der_corput(n, base, start)
    want = _van_der_corput_loop(n, base, start)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("count", [0, -3])
def test_sample_count_must_be_at_least_one(count):
    with pytest.raises(ValueError, match="sample count must be at least 1"):
        default_samples(catalog.get_spec("example1"), count)
