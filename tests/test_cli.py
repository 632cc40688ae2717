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

from np3kit import cli
from np3kit.cli import main
from np3kit.frame import default_samples, spec_from_document


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spin_example1(capsys):
    code, out, _ = run_cli(capsys, "spin", "example1", "--at", "0,0,0", "--format", "json")
    assert code == 0
    rep = json.loads(out)
    rho = rep["values"]["rho"]
    assert rho[0] == pytest.approx(-1.0, abs=1e-12)
    assert rho[1] == pytest.approx(-0.5, abs=1e-12)
    assert rep["values"]["theta"] == pytest.approx(-1.0, abs=1e-12)
    assert rep["values"]["omega"] == pytest.approx(-0.5, abs=1e-12)


def test_spin_flat_all_zero(capsys):
    code, out, _ = run_cli(capsys, "spin", "flat_cosymplectic", "--at", "1,1,1",
                           "--format", "json")
    assert code == 0
    rep = json.loads(out)
    for name in ("kappa", "sigma", "rho", "beta_np", "epsilon_np"):
        assert rep["values"][name] == [0.0, 0.0] or \
            max(abs(v) for v in rep["values"][name]) < 1e-14


def test_spin_out_of_domain_exits_2(capsys):
    code, _, err = run_cli(capsys, "spin", "example2", "--at", "0,0,0")
    assert code == 2
    assert "domain" in err


def test_domain_error_names_the_sample(tmp_path, capsys):
    """A frame singular inside its box: the error names the first failing
    probe point of the frame check, by index and coordinates."""
    doc = {"name": "sqrt_e1", "coords": ["x1", "x2", "x3"],
           "frame": {"e1": ["sqrt(x1)", "0", "0"], "e2": ["0", "1", "0"],
                     "xi": ["0", "0", "1"]},
           "domain": [], "params": {}, "box": [[-1, 1], [-1, 1], [-1, 1]]}
    path = tmp_path / "sqrt_e1.json"
    path.write_text(json.dumps(doc))
    probes = default_samples(spec_from_document(doc), 8, seed=0)
    index = int(np.argmax(probes[:, 0] < 0.0))
    assert probes[index, 0] < 0.0
    code, _, err = run_cli(capsys, "verify", str(path))
    assert code == 2
    point = tuple(probes[index].tolist())
    singular = int(np.count_nonzero(probes[:, 0] < 0.0))
    assert err.strip() == (f"np3kit: domain error: sqrt of negative value "
                           f"at sample {index}, point {point}, "
                           f"{singular} of {len(probes)} samples singular")


def test_spin_bad_point_exits_3(capsys):
    code, _, _ = run_cli(capsys, "spin", "example1", "--at", "1,2")
    assert code == 3


def test_unknown_spec_exits_3(capsys):
    code, _, err = run_cli(capsys, "spin", "not_a_spec", "--at", "0,0,0")
    assert code == 3
    assert "catalog" in err


def test_bad_file_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "x"}')
    code, _, _ = run_cli(capsys, "classify", str(bad))
    assert code == 3


def test_a_malformed_document_exits_3(tmp_path, capsys):
    """A box pair of three numbers or of a string, a domain that is one
    string and a null frame component are input errors, not a failed
    verification (1) or a domain error (2)."""
    flat = {"name": "flat", "coords": ["x1", "x2", "x3"],
            "frame": {"e1": ["1", "0", "0"], "e2": ["0", "1", "0"], "xi": ["0", "0", "1"]}}
    for i, bad in enumerate(({"box": [[0, 1, 2], [0, 1], [0, 1]]},
                             {"box": [["a", 1], [0, 1], [0, 1]]}, {"domain": "x3"},
                             {"frame": dict(flat["frame"], e2=["0", None, "0"])})):
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps(dict(flat, **bad)))
        code, out, err = run_cli(capsys, "classify", str(path))
        assert (code, out) == (3, ""), bad
        assert err.startswith(f"np3kit: error: cannot load {path}"), bad
    # a path that cannot be read as UTF-8 text is an input error too
    undecodable = tmp_path / "undecodable.json"
    undecodable.write_bytes(b"\xff\xfe{")
    for path in (tmp_path, undecodable):
        code, out, err = run_cli(capsys, "verify", str(path))
        assert (code, out) == (3, ""), path
        assert err.startswith(f"np3kit: error: cannot load {path}: "), path


def test_classify_file_spec(tmp_path, capsys):
    doc = {
        "name": "file_spec",
        "coords": ["x1", "x2", "x3"],
        "frame": {"e1": ["1", "0", "0"], "e2": ["0", "1", "0"], "xi": ["0", "0", "1"]},
    }
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "classify", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)["classification"]["verdict"] == "Cosymplectic"


@pytest.mark.parametrize("name,verdict", [
    ("c6", "C6"), ("sol", "NotTransSasakian"), ("nil3", "AlphaSasakian"),
])
def test_classify_catalog_entries(capsys, name, verdict):
    code, out, _ = run_cli(capsys, "classify", name, "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["classification"]["verdict"] == verdict
    if name == "nil3":
        assert rep["classification"]["alpha_summary"][0] == pytest.approx(0.5, abs=1e-12)


def test_classify_verdict_is_data_not_exit_status(capsys):
    code, _, _ = run_cli(capsys, "classify", "sol")
    assert code == 0
    code, _, _ = run_cli(capsys, "classify", "sol", "--strict")
    assert code == 1


def test_classify_samples_floor(capsys):
    code, _, _ = run_cli(capsys, "classify", "example1", "--samples", "5")
    assert code == 3


@pytest.mark.parametrize("count", ["0", "-3"])
def test_verify_samples_floor(capsys, count):
    code, out, err = run_cli(capsys, "verify", "example1", "--samples", count,
                             "--format", "json")
    assert (code, out) == (3, "")
    assert err == "np3kit: error: --samples must be at least 1\n"  # no traceback


@pytest.mark.parametrize("argv", [
    ("verify", "sol", "--tol=inf"),
    ("verify", "sol", "--tol=nan"),
    ("verify", "sol", "--tol=-1e-8"),
    ("classify", "sol", "--tol=inf"),
    ("classify", "sol", "--tol=nan"),
    ("classify", "sol", "--tol=-1e-8"),
    ("classify", "sol", "--tol-const=inf"),
    ("classify", "sol", "--tol-const=nan"),
    ("classify", "sol", "--tol-const=-1e-6"),
], ids=" ".join)
def test_a_tolerance_that_is_not_finite_and_nonnegative_exits_3(capsys, argv):
    # a check must not pass because its tolerance was widened past every
    # residual, and a NaN tolerance would write NaN into the JSON
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    option, value = argv[-1].split("=")
    assert (code, out) == (3, "")
    assert err == f"np3kit: error: {option} must be finite and at least 0, got {float(value)!r}\n"


@pytest.mark.parametrize("argv", [
    ("spin", "example1", "--at=nan,0,0"),
    ("spin", "example1", "--at=0,inf,0"),
    ("spin", "example1", "--at=0,0,-inf"),
    ("ektau", "--tau=1", "--kappa=nan"),
    ("ektau", "--kappa=1", "--tau=inf"),
    ("ektau", "--kappa=1", "--tau=1", "--u=nan"),
    ("ektau", "--kappa=1", "--tau=1", "--u=-inf"),
    ("ektau", "--tau=0", "--sweep", "--kappa=inf"),
], ids=" ".join)
def test_a_numeric_input_that_is_not_finite_exits_3(capsys, argv):
    # a NaN or an infinity would otherwise be written into the report
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    option, value = argv[-1].split("=")
    bad = next(float(x) for x in value.split(",") if not math.isfinite(float(x)))
    assert (code, out) == (3, "")
    assert err == f"np3kit: error: {option} must be finite, got {bad!r}\n"


def test_a_zero_tolerance_is_an_input(capsys):
    code, _, err = run_cli(capsys, "classify", "sol", "--tol=0", "--tol-const=0")
    assert (code, err) == (0, "")


def test_verify_all_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "example1", "--suite", "all",
                           "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["pass"]
    assert set(rep["suites"]) == {"sachs", "bianchi", "kn", "ts", "xi"}


def test_verify_single_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "example2", "--suite", "sachs",
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["pass"]


def test_verify_ts_skipped_on_sol(capsys):
    code, out, _ = run_cli(capsys, "verify", "sol", "--suite", "ts", "--format", "json")
    assert code == 0
    rep = json.loads(out)
    check = rep["suites"]["ts"][0]
    assert check["skipped"] and "NotTransSasakian" in check["reason"]


def test_verify_fails_the_ts_skip_on_a_nan_gate(tmp_path, capsys, overflow_doc):
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(overflow_doc))
    code, out, _ = run_cli(capsys, "verify", str(path), "--suite", "ts")
    assert code == 1
    assert ("SKIP ts_suite: NotTransSasakian: 'overflow' has max(|kappa|,|sigma|) = nan"
            in out.splitlines()[-1])
    code, out, _ = run_cli(capsys, "verify", str(path), "--suite", "all", "--format", "json")
    assert code == 1
    assert json.loads(out)["suites"]["ts"][0]["pass"] is False


def test_a_nan_frame_determinant_exits_3(tmp_path, capsys, nan_det_doc):
    path = tmp_path / "nan_det.json"
    path.write_text(json.dumps(nan_det_doc))
    code, out, err = run_cli(capsys, "classify", str(path))
    assert (code, out) == (3, "")
    assert "|det frame| = nan" in err


def test_verify_deterministic_bytes(capsys):
    args = ("verify", "example1", "--suite", "all", "--seed", "7", "--format", "json")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_ektau_verdicts(capsys):
    code, out, _ = run_cli(capsys, "ektau", "--kappa", "1", "--tau", "1",
                           "--format", "json")
    assert code == 0
    rep = json.loads(out)["ektau"]
    assert rep["verdict"] == "forced_vertical"
    assert rep["vertical_alpha_beta"] == [1.0, 0.0]
    assert rep["obstruction"] == pytest.approx(-3.0, abs=1e-12)

    code, out, _ = run_cli(capsys, "ektau", "--kappa", "4", "--tau", "1",
                           "--format", "json")
    rep = json.loads(out)["ektau"]
    assert rep["verdict"] == "space_form_exception"
    assert rep["obstruction"] == 0.0

    code, out, _ = run_cli(capsys, "ektau", "--kappa", "-1", "--tau", "0",
                           "--format", "json")
    rep = json.loads(out)["ektau"]
    assert rep["verdict"] == "forced_vertical"
    assert rep["vertical_alpha_beta"] == [0.0, 0.0]


def test_ektau_table_prints_alpha_beta_as_a_pair(capsys):
    # (alpha, beta) = (1, 0) is a pair, not the complex number 1 + 0i
    code, out, _ = run_cli(capsys, "ektau", "--kappa", "1", "--tau", "1", "--u", "0.7")
    assert code == 0
    assert out.splitlines()[1:] == [
        "ektau:", "  kappa: 1", "  tau: 1", "  u: 0.7", "  obstruction: -1.24505",
        "  verdict: forced_vertical", "  vertical_alpha_beta: (1, 0)",
        "  sigma_bracket: 0.5", "  delta: -1.5"]
    # a spin report's values are [re, im] pairs, printed as complex numbers
    code, out, _ = run_cli(capsys, "spin", "example1", "--at", "0,0,0")
    assert code == 0
    assert out.splitlines()[4:6] == ["  rho          -1 - 0.5i", "  beta_np      -0 + 0i"]


def test_ektau_sweep_csv(capsys):
    code, out, _ = run_cli(capsys, "ektau", "--kappa", "0", "--tau", "0", "--sweep")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "kappa,tau,u,obstruction,expected_zero"
    assert len(lines) == 1 + 50 * 50 * 50
    # spot-check one row parses back
    k, t, u, val, flag = lines[1].split(",")
    assert math.isfinite(float(val))
    assert flag in ("0", "1")
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "459b54c328d74198bf4109392e86b52508409a1a443f78e6d44082744f99d419"
    assert len(out.encode()) == 9_765_609


def test_ektau_sweep_needs_no_point(capsys):
    # the grid is fixed, so --kappa and --tau are optional under --sweep
    code, out, err = run_cli(capsys, "ektau", "--sweep")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "459b54c328d74198bf4109392e86b52508409a1a443f78e6d44082744f99d419"


@pytest.mark.parametrize("given,missing", [("tau", "kappa"), ("kappa", "tau")])
def test_ektau_without_sweep_needs_kappa_and_tau(capsys, given, missing):
    code, out, err = run_cli(capsys, "ektau", f"--{given}", "1", "--format", "json")
    assert (code, out) == (3, "")
    assert err == f"np3kit: error: --{missing} is required unless --sweep is given\n"


class _Sink:
    """A stream that discards what it is given."""

    def write(self, text):
        return len(text)


def test_the_sweep_holds_one_kappa_block_of_floats(monkeypatch):
    # the grid's 125,000 obstructions as Python floats would take 3 MB alone
    monkeypatch.setattr(sys, "stdout", _Sink())
    tracemalloc.start()
    try:
        code = main(["ektau", "--kappa", "0", "--tau", "0", "--sweep"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= 3e6


def test_verify_runs_one_tape_pass(capsys, tapes):
    code, _, _ = run_cli(capsys, "verify", "flat_radial", "--suite", "all", "--samples", "200",
                         "--format", "json")
    assert code == 0
    # all suites are one tape, passed once over the samples; the only other
    # 200-point pass is the sampler's domain filter, before it
    assert tapes[-1] == [200]
    assert tapes.count([200]) == 2 and all(len(t) == 1 for t in tapes)


def test_a_request_does_not_load_openssl():
    # hashlib's _hashlib maps OpenSSL, about 3.5 MB of every process
    code = textwrap.dedent("""
        import contextlib, io, sys
        from np3kit import cli
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["verify", "example1", "--samples", "200", "--format", "json"]) == 0
            assert cli.main(["classify", "example1", "--format", "json"]) == 0
        print("_hashlib" in sys.modules)
    """)
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
