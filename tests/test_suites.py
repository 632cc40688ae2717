"""Streamed requests: suites.run_suites over expr.CHUNK-point slices."""

import json
import tracemalloc

import numpy as np
import pytest

from np3kit import catalog, cli
from np3kit import expr as E
from np3kit.classify import einstein_check, ts_identity_residuals_many
from np3kit.frame import (_kulkarni_nomizu_residual, curvature_values_many,
                          default_samples, load_manifold)
from np3kit.suites import run_suites
from np3kit.xi import parallel_and_collinearity

N = 3 * E.CHUNK + 5  # three full chunks and a short one


def _unchunked(monkeypatch, *args):
    """run_suites as a single block over all points."""
    with monkeypatch.context() as m:
        m.setattr(E, "CHUNK", 10 * N)
        return run_suites(*args)


def _fold_slices(spec, pts):
    """The check-by-check max of run_suites over the chunk slices."""
    parts = [run_suites(spec, "all", pts[lo:lo + E.CHUNK]) for lo in range(0, N, E.CHUNK)]
    out = {}
    for name, checks in parts[0].items():
        if checks[0].get("skipped"):
            assert all(p[name][0].get("skipped") for p in parts)
            out[name] = None  # the reason depends on all points
            continue
        out[name] = []
        for i, chk in enumerate(checks):
            worst = max(p[name][i]["max_residual"] for p in parts)
            out[name].append(dict(chk, max_residual=worst, **{"pass": worst <= chk["tolerance"]}))
    return out


@pytest.mark.parametrize("name", ["example1", "flat_cosymplectic", "sol"])
def test_streamed_checks_are_the_max_over_chunks(name, monkeypatch):
    spec = catalog.get_spec(name)
    pts = default_samples(spec, N, seed=4)
    got = run_suites(spec, "all", pts)
    want = _fold_slices(spec, pts)
    whole = _unchunked(monkeypatch, spec, "all", pts)
    assert json.dumps(got) == json.dumps(whole)  # bitwise: floats print exactly
    for suite, checks in want.items():
        if checks is None:
            assert got[suite] == whole[suite] and got[suite][0]["skipped"]
        else:
            assert json.dumps(got[suite]) == json.dumps(checks), suite
    if name == "sol":
        assert got["ts"][0]["reason"].startswith("NotTransSasakian: 'sol' has max(")


def test_ts_skip_reports_the_worst_chunk(monkeypatch):
    # |sigma| = 2|x3| here: points sorted by |x3| put the worst in the last chunk
    doc = {"name": "sol_warped", "coords": ["x1", "x2", "x3"],
           "frame": {"e1": ["exp(-x3^2)", "0", "0"], "e2": ["0", "exp(x3^2)", "0"],
                     "xi": ["0", "0", "1"]},
           "domain": [], "params": {}, "box": [[-1, 1], [-1, 1], [-1, 1]]}
    spec = load_manifold(doc)
    pts = default_samples(spec, N, seed=1)
    pts = pts[np.argsort(np.abs(pts[:, 2]))]
    got = run_suites(spec, ["ts"], pts)
    assert got == _unchunked(monkeypatch, spec, ["ts"], pts)
    first = run_suites(spec, ["ts"], pts[:E.CHUNK])
    assert got["ts"][0]["reason"] != first["ts"][0]["reason"]


def _singular_spec(tmp_path):
    doc = {"name": "sqrt_frame", "coords": ["x1", "x2", "x3"],
           "frame": {"e1": ["1", "0", "0"], "e2": ["0", "1", "0"],
                     "xi": ["0", "x3", "sqrt(x1)"]},
           "domain": [], "params": {}, "box": [[0.5, 1.5], [-1, 1], [-1, 1]]}
    path = tmp_path / "sqrt_frame.json"
    path.write_text(json.dumps(doc))
    return load_manifold(doc), str(path)


@pytest.mark.parametrize("singular", [
    {-2: -0.25},          # the only singular sample, in the last chunk
    {5: 0.0, -2: -0.25},  # 1/sqrt(0) in the first chunk, sqrt(-0.25) in the last
], ids=["last_chunk", "two_chunks"])
def test_domain_error_is_the_unchunked_one(singular, tmp_path, monkeypatch, capsys):
    spec, path = _singular_spec(tmp_path)
    pts = default_samples(spec, N, seed=0).copy()
    for i, x1 in singular.items():
        pts[i, 0] = x1
    with pytest.raises(E.DomainError) as whole:
        _unchunked(monkeypatch, spec, "all", pts)
    with pytest.raises(E.DomainError) as streamed:
        run_suites(spec, "all", pts)
    assert str(streamed.value) == str(whole.value)

    monkeypatch.setattr(cli, "default_samples", lambda spec, count, seed=0: pts)
    code = cli.main(["verify", path, "--suite", "all", "--samples", str(N), "--format", "json"])
    err = capsys.readouterr().err
    assert code == cli.EXIT_DOMAIN
    assert str(whole.value) in err


def test_every_chunk_block_is_served(shared_blocks):
    spec = catalog.get_spec("example1")
    pts = default_samples(spec, N, seed=2)
    run_suites(spec, "all", pts)
    blocks = list({id(b): b for b in shared_blocks}.values())
    assert len(blocks) == 4
    assert all(len(b.points) <= E.CHUNK for b in blocks)
    for b in blocks:
        assert b.table and b.missed == []


def test_request_of_one_chunk_is_one_block_on_the_callers_array(shared_blocks):
    spec = catalog.get_spec("example1")
    pts = default_samples(spec, E.CHUNK, seed=2)
    with E.shared(pts, spec.params, []) as outer:
        run_suites(spec, "all", pts)
    assert all(b is outer for b in shared_blocks)


def _traced_peak(spec, n):
    pts = default_samples(spec, n, seed=5)
    tracemalloc.start()
    try:
        run_suites(spec, "all", pts)
        return tracemalloc.get_traced_memory()[1], pts.nbytes
    finally:
        tracemalloc.stop()


def test_peak_memory_does_not_grow_with_the_sample_count():
    spec = catalog.get_spec("example1")
    run_suites(spec, "all", default_samples(spec, 30))  # symbolic build, untraced
    small, _ = _traced_peak(spec, 2 * E.CHUNK)
    large, points = _traced_peak(spec, 8 * E.CHUNK)
    assert large <= small + 2**20 + points


def test_library_sweeps_share_one_block(shared_blocks):
    for name in ("example1", "sol"):
        spec = catalog.get_spec(name)
        pts = default_samples(spec, 60, seed=3)
        if name == "example1":
            ts_identity_residuals_many(spec, pts)
        parallel_and_collinearity(spec, samples=pts)
        einstein_check(spec, samples=pts)
    assert len(shared_blocks) == 5
    for b in shared_blocks:
        assert b.table and b.missed == []


def test_kulkarni_nomizu_broadcast_matches_einsum():
    rng = np.random.default_rng(7)
    R = rng.normal(size=(50, 3, 3, 3, 3))
    S = rng.normal(size=(50, 3, 3))
    tau = rng.normal(size=50)
    gmat = np.broadcast_to(np.eye(3), S.shape)
    T = S - 0.5 * tau[:, None, None] * gmat
    kn = (np.einsum("njk,nil->nijkl", gmat, T) - np.einsum("nik,njl->nijkl", gmat, T)
          + np.einsum("njk,nil->nijkl", T, gmat) - np.einsum("nik,njl->nijkl", T, gmat))
    want = np.max(np.abs(R - kn), axis=(1, 2, 3, 4))
    assert np.array_equal(_kulkarni_nomizu_residual(R, S, tau), want)
    spec = catalog.get_spec("example1")
    pts = default_samples(spec, 20)
    assert np.max(_kulkarni_nomizu_residual(*curvature_values_many(spec, pts))) <= 1e-8
