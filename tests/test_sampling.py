import numpy as np
import pytest

from np3kit import catalog, sampling
from np3kit import expr as E
from np3kit.frame import default_samples
from np3kit.sampling import _van_der_corput, in_domain, sample_box


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


def _safe_eval(pred, point, params) -> float:
    """One predicate at one point, NaN where its evaluation faults."""
    try:
        return float(E.eval_batch([pred], [point], params)[0][0])
    except E.DomainError:
        return float("nan")


def _per_point_mask(domain, pts, params=None) -> np.ndarray:
    """The reference for ``in_domain``: every predicate evaluated point by
    point (once per distinct point), a fault counting as outside."""
    rows, back = np.unique(pts, axis=0, return_inverse=True)
    ok = np.ones(len(rows), dtype=bool)
    for pred in domain:
        vals = np.array([_safe_eval(pred, p, params) for p in rows])
        ok &= np.where(np.isfinite(vals), vals > 0.0, False)
    return ok[back.ravel()]


@pytest.mark.parametrize("domain", [
    ["log(4*x3 - 1)"],
    # log's output reuses its operand's buffer, so its check must read the
    # operand before the op writes; exp maps the values it wrote to > 0
    ["exp(log(x3 - 0.5))"],
    ["1/(x1 - 0.25)"],
    ["1 + exp(-1/x1^2)"],  # finite and > 0 where it faults, at x1 = 0
    ["sqrt(x2 + 0.5) - 0.25"],
    ["(x2 - 0.5)^-2"],
    ["(x3 + 0.5)^1.5"],
    ["log(x1 + 0.75)", "x2^-1"],
])
def test_in_domain_is_the_per_point_filter(domain):
    # grid values hit every singularity exactly: 0, 0.25, 0.5, -0.5, -0.75
    n = 3 * E.CHUNK + 5
    pts = np.random.default_rng(11).choice(np.linspace(-1.0, 1.0, 9), size=(n, 3))
    exprs = [E.parse(p) for p in domain]
    got = in_domain(exprs, pts)
    want = _per_point_mask(exprs, pts)
    assert got.dtype == bool and got.shape == (n,)
    assert np.array_equal(got, want)
    assert 0 < np.count_nonzero(got) < n


@pytest.mark.parametrize("name", catalog.names())
def test_default_samples_are_the_per_point_filter(name, monkeypatch):
    spec = catalog.get_spec(name)
    got = default_samples(spec, 100, seed=1)
    monkeypatch.setattr(sampling, "in_domain", _per_point_mask)
    want = default_samples(spec, 100, seed=1)
    assert got.tobytes() == want.tobytes()


def test_each_sampling_attempt_compiles_one_tape(tapes):
    # two thirds of the box is in the domain, so a second attempt doubles the points
    box = [(-1.0, 1.0), (-1.0, 1.0), (-1.0, 2.0)]
    pts = sample_box(box, 1500, seed=0, domain=[E.parse("sqrt(x3)"), E.parse("x1 + 2")])
    assert len(pts) == 1500 and np.all(pts[:, 2] > 0.0)
    assert tapes == [[1500], [1500]]  # the second attempt filters only the points it adds


@pytest.mark.parametrize("count,domain,attempts", [
    (3, ["x3 - 0.6"], 3),  # 8, 8 (no new points, skipped), 12
    (200, ["sqrt(x3)"], 2),
    (200, ["x1", "log(x2 + 0.6)"], 4),  # log faults at x2 <= -0.6
])
def test_sample_box_is_the_whole_final_attempt_filtered(count, domain, attempts, tapes):
    box = np.array([(-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)])
    exprs = [E.parse(d) for d in domain]
    got = sample_box(box, count, seed=3, domain=exprs)
    drawn = max(8, count * 2 ** (attempts - 1))
    assert sum(map(sum, tapes)) == drawn  # each drawn point is filtered once
    pts = box[:, 0] + sampling.halton_points(drawn, 3) * (box[:, 1] - box[:, 0])
    kept = pts[in_domain(exprs, pts)]
    assert got.tobytes() == kept[:count].tobytes()
    if attempts > 1:  # and the attempt before kept too few
        assert np.count_nonzero(in_domain(exprs, pts[:max(8, drawn // 2)])) < count
