import hashlib
import json
import math

import pytest

from np3kit.cli import main


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


def test_threads_env_does_not_change_results(capsys, monkeypatch):
    args = ("verify", "c6", "--suite", "all", "--seed", "3", "--format", "json")
    code1, out1, _ = run_cli(capsys, *args)
    monkeypatch.setenv("NP3KIT_THREADS", "4")
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_threaded_verify_runs_in_the_callers_block(capsys, monkeypatch, shared_blocks):
    monkeypatch.setenv("NP3KIT_THREADS", "4")
    code, _, _ = run_cli(capsys, "verify", "flat_radial", "--suite", "all", "--samples", "200",
                         "--format", "json")
    assert code == 0
    block = shared_blocks[0]
    assert len(shared_blocks) == 1 + 5  # each worker's suite reused the caller's block
    assert all(b is block for b in shared_blocks)
    assert block.table and block.missed == []
