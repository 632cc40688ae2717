"""Streamed requests: suites.run_suites over expr.CHUNK-point slices."""

import dataclasses
import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest

from np3kit import catalog, cli, suites
from np3kit import expr as E
from np3kit.cexpr import eval_forms, fold, residual
from np3kit.classify import einstein_check, ts_identity_forms
from np3kit.frame import (curvature_values_many, default_samples, kulkarni_nomizu_forms,
                          load_manifold, riemann)
from np3kit.npcore import spin_coefficients
from np3kit.suites import run_request, run_suites
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
    singular = int(np.count_nonzero(pts[:, 0] <= 0.0))  # sqrt(x1) and 1/sqrt(x1)
    assert streamed.value.count == whole.value.count == singular
    assert streamed.value.samples == whole.value.samples == N

    monkeypatch.setattr(cli, "default_samples", lambda spec, count, seed=0: pts)
    code = cli.main(["verify", path, "--suite", "all", "--samples", str(N), "--format", "json"])
    err = capsys.readouterr().err
    assert code == cli.EXIT_DOMAIN
    assert str(whole.value) in err


def test_domain_error_names_the_global_sample(tmp_path, monkeypatch, capsys):
    spec, path = _singular_spec(tmp_path)
    pts = default_samples(spec, N, seed=0).copy()
    pts[-2, 0] = -0.25  # the only singular sample, in the last chunk
    with pytest.raises(E.DomainError) as streamed:
        run_suites(spec, "all", pts)
    assert (streamed.value.index, streamed.value.point) == (N - 2, tuple(pts[-2].tolist()))

    monkeypatch.setattr(cli, "default_samples", lambda spec, count, seed=0: pts)
    code = cli.main(["verify", path, "--suite", "all", "--samples", str(N), "--format", "json"])
    err = capsys.readouterr().err
    assert code == cli.EXIT_DOMAIN
    assert err.strip() == (f"np3kit: domain error: sqrt of negative value "
                           f"at sample {N - 2}, point {tuple(pts[-2].tolist())}, "
                           f"1 of {N} samples singular")


@pytest.mark.parametrize("n,passes", [
    (N, [E.CHUNK] * 4),    # one tape, passed over each slice; the last overlaps
    (E.CHUNK, [E.CHUNK]),  # a request of one chunk is one pass
], ids=["chunked", "one_chunk"])
def test_every_chunk_is_one_pass_of_one_tape(n, passes, tapes):
    spec = catalog.get_spec("example1")
    pts = default_samples(spec, n, seed=2)
    tapes.clear()
    run_suites(spec, "all", pts)
    assert tapes == [passes]


def _request(spec, pts, unchunked=None):
    """run_request for all suites; one block over all points when
    ``unchunked`` is a monkeypatch."""
    if unchunked is None:
        return run_request(spec, "all", pts)
    with unchunked.context() as m:
        m.setattr(E, "CHUNK", 10 * N)
        return run_request(spec, "all", pts)


def test_a_sum_counts_the_overlapping_last_pass_once(monkeypatch):
    spec = catalog.get_spec("example1")
    pts = default_samples(spec, N, seed=6)
    alpha = spin_coefficients(spec).rho.im  # -exp(2 x3)/2: every term counts
    got = fold({}, {"alpha": alpha}, pts, spec.params)["alpha"]
    with monkeypatch.context() as m:
        m.setattr(E, "CHUNK", 10 * N)
        whole = fold({}, {"alpha": alpha}, pts, spec.params)["alpha"]
    assert whole == np.sum(eval_forms(alpha, pts, spec.params))
    # counting the overlap twice would add E.CHUNK - 5 points' worth
    assert abs(got - whole) <= 4 * math.ulp(whole)


def test_catalog_run_streams_as_it_runs_unchunked(monkeypatch):
    """Above CHUNK points only the means (and the spreads about them) may
    move by roundoff; verdicts, flags and every max_residual do not."""
    got = catalog.run("example1", N)
    with monkeypatch.context() as m:
        m.setattr(E, "CHUNK", 10 * N)
        whole = catalog.run("example1", N)
    for key in ("alpha_summary", "beta_summary"):
        assert got[key] == pytest.approx(whole[key], rel=1e-14, abs=0), key
        got[key] = whole[key]
    assert json.dumps(got) == json.dumps(whole)


def test_domain_error_in_the_overlap_is_the_unchunked_one(tmp_path, monkeypatch):
    spec, _ = _singular_spec(tmp_path)
    pts = default_samples(spec, N, seed=0).copy()
    i = 2 * E.CHUNK + 100  # read by the third pass and again by the last
    pts[i, 0] = -0.25
    with pytest.raises(E.DomainError) as whole:
        _request(spec, pts, monkeypatch)
    with pytest.raises(E.DomainError) as streamed:
        _request(spec, pts)
    for exc in (whole.value, streamed.value):
        assert (str(exc), exc.index, exc.point) == (
            "sqrt of negative value", i, tuple(pts[i].tolist()))


@pytest.mark.parametrize("at", [N - 2, 5], ids=["last_pass", "first_pass"])
def test_a_domain_error_compiles_one_tape(at, tmp_path, tapes):
    spec, _ = _singular_spec(tmp_path)
    pts = default_samples(spec, N, seed=0).copy()
    pts[at, 0] = -0.25
    tapes.clear()
    with pytest.raises(E.DomainError) as exc:
        run_suites(spec, "all", pts)
    assert exc.value.index == at
    # every pass of the one tape runs, and the error is raised after the last
    assert tapes == [[E.CHUNK] * 4]


def _error_peak_mb(count: int) -> float:
    """VmHWM of a fresh interpreter in which ``eval_batch`` of flat_radial's
    verify roots and ``log(x1)`` over ``count`` points raises DomainError at
    the last sample, the only singular one."""
    code = textwrap.dedent(f"""
        from np3kit import catalog, suites
        from np3kit import expr as E
        from np3kit.cexpr import residual
        from np3kit.classify import _gate_roots
        from np3kit.frame import default_samples
        spec = catalog.get_spec("flat_radial")
        roots = [residual(tree) for name in suites.SUITE_NAMES
                 for tree in suites._suite(name)(spec).values()]
        roots += [*_gate_roots(spec).values(), E.log(E.coord(1))]
        pts = default_samples(spec, {count}, seed=0).copy()
        pts[-1, 0] = 0.0
        try:
            E.eval_batch(roots, pts, spec.params)
        except E.DomainError as exc:
            assert exc.index == {count} - 1
        else:
            raise SystemExit("no DomainError")
        with open("/proc/self/status", encoding="ascii") as fh:
            print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
    """)
    src = str(pathlib.Path(E.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout) / 1024


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
def test_domain_error_memory_does_not_grow_with_the_sample_count():
    # a failing request holds one pass of tape slots, as a passing one does
    assert _error_peak_mb(20000) <= _error_peak_mb(5000) + 10


@pytest.mark.parametrize("name,streamed", [("flat_radial", 700), ("example1", 170)])
def test_a_streamed_tape_is_scheduled_for_fewer_slots(name, streamed, monkeypatch):
    spec = catalog.get_spec(name)
    run_suites(spec, "all", default_samples(spec, 30))  # the symbolic build, before counting
    many, one = default_samples(spec, N, seed=2), default_samples(spec, E.CHUNK, seed=2)
    compiled, real_init = [], E._Tape.__init__

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        compiled.append(self.slots)

    monkeypatch.setattr(E._Tape, "__init__", init)
    run_suites(spec, "all", many)
    run_suites(spec, "all", one)
    canonical = {"flat_radial": 1240, "example1": 180}[name]
    scheduled, single = compiled
    assert scheduled <= streamed < canonical  # several passes: the scheduled order
    assert single == canonical  # one pass: the canonical order


# ops and slots of each entry's verify tape (all suites, one pass): a change
# that builds a different DAG moves these, and one that shrinks it on purpose
# updates them
VERIFY_TAPES = {"c6": (357, 59), "example1": (1771, 180), "example2": (1751, 172),
                "flat_cosymplectic": (0, 2), "flat_radial": (12965, 1240), "h2xr": (210, 30),
                "kenmotsu": (263, 37), "nil3": (0, 4), "sasakian": (0, 5), "sol": (406, 55)}
# slots of the same tape scheduled for several passes: a change to the
# schedule moves these too
STREAMED_SLOTS = {"c6": 59, "example1": 159, "example2": 159, "flat_cosymplectic": 2,
                  "flat_radial": 580, "h2xr": 30, "kenmotsu": 36, "nil3": 4, "sasakian": 5,
                  "sol": 49}


@pytest.mark.parametrize("name", catalog.names())
def test_the_verify_dag_did_not_move(name, monkeypatch):
    spec = catalog.get_spec(name)
    one, many = default_samples(spec, 200, seed=1), default_samples(spec, E.CHUNK + 1, seed=1)
    compiled, real_init = [], E._Tape.__init__

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        compiled.append((len(self.code), self.slots))

    monkeypatch.setattr(E._Tape, "__init__", init)
    run_suites(spec, "all", one)
    run_suites(spec, "all", many)
    ops, slots = VERIFY_TAPES[name]
    assert compiled == [(ops, slots), (ops, STREAMED_SLOTS[name])]


# a digest of the whole compiled program of the one-pass and the streamed
# verify tape: a change to the compiler that emits another op order, slot
# reuse, operand or fault rank moves these
VERIFY_PROGRAMS = {"example1": ("b747c0341b59ec2d", "8a9713593579fa3f"),
                   "flat_radial": ("daab3275779b0d22", "3625475c31ef73c2")}


def _program_digest(tape) -> str:
    """Each op's routine, its out slot, its operands (a slot or a constant)
    and its ``number``, hashed.  Slots are numbered by first use (the
    coordinate columns, then each op's operands and output in run order), so
    the digest pins which values share a buffer, not where numpy put it."""
    names = {fn: op for table in (E._UNARY, E._BINARY) for op, fn in table.items()}
    names[np.true_divide] = "div-unchecked"
    slot = {}

    def ref(x):
        if isinstance(x, np.ndarray):
            return slot.setdefault(id(x), len(slot))
        return x if x is None else float(x).hex()

    for buf, _ in tape.coords:
        ref(buf)
    program = [(names[fn], ref(a), ref(b), ref(out)) for fn, out, a, b in tape.code]
    text = json.dumps([program, tape.number.tolist(), [ref(buf) for buf in tape.outputs]])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(VERIFY_PROGRAMS))
def test_the_verify_program_did_not_move(name, monkeypatch):
    spec = catalog.get_spec(name)
    one, many = default_samples(spec, 200, seed=1), default_samples(spec, E.CHUNK + 1, seed=1)
    digests, real_init = [], E._Tape.__init__

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        digests.append(_program_digest(self))

    monkeypatch.setattr(E._Tape, "__init__", init)
    run_suites(spec, "all", one)
    run_suites(spec, "all", many)
    assert tuple(digests) == VERIFY_PROGRAMS[name]


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


def test_library_sweeps_run_one_tape_each(tapes):
    for name in ("example1", "sol"):
        spec = catalog.get_spec(name)
        pts = default_samples(spec, 60, seed=3)
        tapes.clear()
        if name == "example1":
            eval_forms({k: residual(tree) for k, tree in ts_identity_forms(spec).items()},
                       pts, spec.params)
        parallel_and_collinearity(spec, samples=pts)
        einstein_check(spec, samples=pts)
        assert tapes == [[60]] * (3 if name == "example1" else 2)


@pytest.mark.parametrize("name", ["example1", "h2xr", "nil3", "sol"])
def test_scalar_convention_rejects_the_full_trace(name, monkeypatch):
    spec = catalog.get_spec(name)
    pts = default_samples(spec, 200, seed=1)

    def scalar_convention():
        return {c["name"]: c for c in run_suites(spec, ["kn"], pts)["kn"]}["scalar_convention"]

    assert not E._is_const(suites._kn(spec)["scalar_convention"], 0.0)  # not folded away
    assert scalar_convention()["pass"]
    data = riemann(spec)
    S = data.ricci
    full = dataclasses.replace(data, scalar=E.add(E.add(S[0][0], S[1][1]), S[2][2]))
    monkeypatch.setattr(suites, "riemann", lambda _: full)
    assert scalar_convention()["max_residual"] > 0.2  # off by |tau|, nil3's 0.25 the least


def test_kulkarni_nomizu_broadcast_matches_einsum():
    """The KN residual root, bitwise against an einsum reference built from
    the evaluated curvature."""
    for name in ("example1", "flat_radial", "sol"):
        spec = catalog.get_spec(name)
        pts = default_samples(spec, 50, seed=7)
        R, S, tau = curvature_values_many(spec, pts)
        gmat = np.broadcast_to(np.eye(3), S.shape)
        T = S - 0.5 * tau[:, None, None] * gmat
        kn = (np.einsum("njk,nil->nijkl", gmat, T) - np.einsum("nik,njl->nijkl", gmat, T)
              + np.einsum("njk,nil->nijkl", T, gmat) - np.einsum("nik,njl->nijkl", T, gmat))
        want = np.max(np.abs(R - kn), axis=(1, 2, 3, 4))
        got = eval_forms(residual(kulkarni_nomizu_forms(spec)), pts, spec.params)
        assert np.array_equal(got, want), name
        assert np.max(got) <= 1e-8, name
