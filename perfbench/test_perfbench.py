"""The benchmark's own tests: output checks with negative controls, and a
self-test that runs every workload at its smallest size.

Run from the root of the repository:

    python3 -m pytest -q perfbench
"""

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import validate  # noqa: E402
from np3kit import catalog, cli  # noqa: E402
from np3kit.frame import default_samples  # noqa: E402
from np3kit.npcore import spin_coefficients  # noqa: E402

WORKLOADS = ("verify_10k", "regression_cold", "session_points")


def _cli(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    return buf.getvalue()


@pytest.fixture(scope="module")
def verify_text():
    return _cli(["verify", "example1", "--suite", "all", "--samples", "100", "--seed", "4",
                 "--format", "json"])


def test_verify_check_accepts_real_output(verify_text):
    assert validate.check_verify(verify_text, "example1", 100, 4) is None


@pytest.mark.parametrize("corrupt", ["fail", "drop", "rename", "seed"])
def test_verify_check_rejects_corrupted_output(verify_text, corrupt):
    rep = json.loads(verify_text)
    if corrupt == "fail":
        rep["pass"] = False
    elif corrupt == "drop":
        rep["suites"]["bianchi"].pop()
    elif corrupt == "rename":
        rep["suites"]["kn"][0]["name"] = "torsion"
    else:
        rep["samples"]["seed"] = 5
    assert validate.check_verify(json.dumps(rep), "example1", 100, 4) is not None


def test_sweep_check():
    csv = _cli(["ektau", "--kappa", "0", "--tau", "0", "--sweep"])
    assert validate.check_sweep(csv) is None
    lines = csv.splitlines()
    assert validate.check_sweep("\n".join(lines[:-1])) is not None
    assert validate.check_sweep("\n".join(["k,t,u"] + lines[1:])) is not None
    assert validate.check_sweep("\n".join(lines[:-1] + ["1.0,2.0,x,0.0,0"])) is not None


def test_run_all_check():
    results = catalog.run_all(count=20, seed=2)
    assert validate.check_run_all(results) is None
    results["sol"] = dict(results["sol"], verdict="C6")
    assert validate.check_run_all(results) is not None
    results["sol"] = dict(results["sol"], verdict="NotTransSasakian", **{"pass": False})
    assert validate.check_run_all(results) is not None


def test_point_and_verdict_checks():
    spec = catalog.get_spec("example1")
    co = spin_coefficients(spec)
    pts = default_samples(spec, 4, seed=9)
    batched = {k: getattr(co, k).evaluate_many(pts, spec.params) for k in validate.SPIN_KEYS}
    single = co.evaluate(tuple(pts[2]), spec.params)
    assert validate.check_point(single, batched, 2) is None
    assert validate.check_point(single, batched, 1) is not None
    off = dict(single, rho=single["rho"] * (1 + 1e-9))
    assert validate.check_point(off, batched, 2) is not None
    assert validate.check_verdict("TransSasakian", "example1") is None
    assert validate.check_verdict("Sasakian", "example1") is not None


def test_corrupted_request_counts_as_failed():
    import child
    reqs = child.Requests()
    reqs.run(1, lambda: "ok", lambda out: None)
    reqs.run(1, lambda: "corrupted", lambda out: "output corrupted")
    reqs.run(1, lambda: 1 / 0, lambda out: None)
    assert len(reqs.times) == 3
    assert len(reqs.failures) == 2


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    return res


def _declared(key):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[key]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_test_end_to_end(workload):
    res = _result(_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                         "--trace", "0", "--tiny"))
    got = {name: m["unit"] for name, m in res["metrics"].items()}
    assert got == _declared("end_to_end")
    for m in res["metrics"].values():
        assert isinstance(m["value"], (int, float)) and m["value"] > 0


@pytest.fixture(scope="module")
def traced():
    return {w: _result(_bench("--workload", w, "--seed", "3", "--seconds", "1",
                              "--trace", "1", "--tiny"))
            for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_test_per_layer(traced, workload):
    res = traced[workload]
    got = {name: m["unit"] for name, m in res["metrics"].items()}
    assert got == _declared("per_layer")
    for m in res["metrics"].values():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
    assert os.path.isfile(os.path.join(HERE, "out", f"spans-{workload}-seed3.jsonl"))


def test_per_layer_counts(traced):
    metrics = {w: {k: m["value"] for k, m in r["metrics"].items()} for w, r in traced.items()}
    assert metrics["verify_10k"]["frame.riemann.nodes.flat_radial"] == 3274
    assert metrics["verify_10k"]["npcore.spin_coefficients.nodes.flat_radial"] == 366
    assert metrics["verify_10k"]["xi.rough_laplacian_xi.nodes.flat_radial"] == 2177
    assert metrics["verify_10k"]["frame.riemann.nodes.example1"] == 568
    assert metrics["verify_10k"]["frame.riemann.nodes.sol"] == 118
    assert metrics["regression_cold"]["cli.ektau_sweep.rows"] == validate.SWEEP_ROWS
    assert metrics["verify_10k"]["trace.coverage_frac"] >= 0.9


def test_counts_repeat_across_runs(traced):
    again = _result(_bench("--workload", "regression_cold", "--seed", "3", "--seconds", "1",
                           "--trace", "1", "--tiny"))["metrics"]
    first = traced["regression_cold"]["metrics"]
    for name, m in first.items():
        if m["unit"] in ("count", "lines") and not name.startswith("gc."):
            assert again[name]["value"] == m["value"], name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "session_points", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_inputs_follow_the_seed():
    import run
    assert run.round_configs("session_points", 7, 2, False, 0) == \
        run.round_configs("session_points", 7, 2, False, 0)
    assert run.round_configs("verify_10k", 7, 2, False, 0)[0]["seed"] != \
        run.round_configs("verify_10k", 8, 2, False, 0)[0]["seed"]
