import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

from np3kit import catalog, suites
from np3kit.frame import default_samples, load_manifold, spec_to_document
from np3kit.suites import SUITE_NAMES, run_suite


def test_names_complete():
    expected = {"example1", "example2", "flat_cosymplectic", "c6", "flat_radial",
                "nil3", "sasakian", "kenmotsu", "h2xr", "sol"}
    assert set(catalog.names()) == expected


def test_unknown_entry():
    with pytest.raises(catalog.UnknownEntry):
        catalog.get("no_such_manifold")


def test_entries_serialize_and_reload():
    for name in catalog.names():
        spec = catalog.get_spec(name)
        doc = spec_to_document(spec)
        again = load_manifold(json.dumps(doc))
        assert spec_to_document(again) == doc


@pytest.mark.parametrize("name", catalog.names())
def test_every_entry_runs_green(name, tapes, monkeypatch):
    spec = catalog.get_spec(name)
    pts = default_samples(spec, 100)
    monkeypatch.setattr(catalog, "get_spec", lambda _: spec)
    monkeypatch.setattr(catalog, "default_samples", lambda *args: pts)
    tapes.clear()
    rep = catalog.run(name, count=100, seed=0)
    failing = [c["name"] for c in rep["checks"] if not c["pass"]]
    failing += [f"{s}:{c['name']}" for s, checks in rep["suites"].items()
                for c in checks if not c["pass"]]
    assert rep["pass"], failing
    # one pass of one tape served the suites and every whole-sample check;
    # the other tapes are the spot values, one point each
    assert tapes[0] == [100] and all(t == [1] for t in tapes[1:])


def _form_paths(tree, path=()):
    """The key path of every entry of every dict in a tree of forms."""
    if isinstance(tree, dict):
        for key, sub in tree.items():
            yield path + (key,)
            yield from _form_paths(sub, path + (key,))


def _without(tree, path):
    """``tree`` with the dict entry at ``path`` left out."""
    head, rest = path[0], path[1:]
    return {k: _without(v, rest) if rest and k == head else v
            for k, v in tree.items() if rest or k != head}


@pytest.mark.parametrize("name", catalog.names())
def test_suite_roots_cover_each_suite(name, monkeypatch):
    """Negative control for the forms each suite declares: its checks read
    every one of them, so a tree without any one form makes the suite raise
    on every entry where it runs."""
    spec = catalog.get_spec(name)
    pts = default_samples(spec, 20, seed=2)
    for suite in SUITE_NAMES:
        if run_suite(spec, suite, pts)[0].get("skipped"):
            continue  # ts on a spec that is not trans-Sasakian
        forms, checks = suites._SUITES[suite]
        paths = list(_form_paths(forms(spec)))
        assert paths, suite
        for path in paths:
            with monkeypatch.context() as m:
                m.setitem(suites._SUITES, suite,
                          (lambda s, path=path: _without(forms(s), path), checks))
                with pytest.raises(KeyError):
                    run_suite(spec, suite, pts)


def _peak_mb(count: int) -> float:
    """VmHWM of a fresh interpreter that runs catalog.run("flat_radial", count)."""
    code = textwrap.dedent(f"""
        from np3kit import catalog
        catalog.run("flat_radial", count={count})
        with open("/proc/self/status", encoding="ascii") as fh:
            print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
    """)
    src = str(pathlib.Path(catalog.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout) / 1024


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
def test_run_memory_does_not_grow_with_count():
    assert _peak_mb(20000) <= _peak_mb(2000) + 10


def test_run_is_deterministic():
    a = catalog.run("example1", count=50, seed=7)
    b = catalog.run("example1", count=50, seed=7)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
