import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

from np3kit import catalog, suites
from np3kit import expr as E
from np3kit.cexpr import CExpr
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


def _leaves(tree):
    """The leaves of a residual tree, in order (dicts by value, lists and tuples)."""
    if isinstance(tree, dict):
        tree = list(tree.values())
    if isinstance(tree, (list, tuple)):
        return [leaf for child in tree for leaf in _leaves(child)]
    return [tree]


def _replace(tree, index, fn, seen=None):
    """``tree`` with its ``index``-th leaf (in :func:`_leaves` order) replaced by
    ``fn(leaf)``; dicts keep their keys, lists and tuples become lists."""
    seen = [0] if seen is None else seen
    if isinstance(tree, dict):
        return dict(zip(tree, _replace(list(tree.values()), index, fn, seen)))
    if isinstance(tree, (list, tuple)):
        return [_replace(child, index, fn, seen) for child in tree]
    seen[0] += 1
    return fn(tree) if seen[0] - 1 == index else tree


def _perturbations(tree):
    """(label, leaf index, change) for one check's residual tree: 1e-6 added to
    its first and last leaf and to the imaginary part of its first complex
    leaf, and its first leaf made NaN."""
    leaves = _leaves(tree)
    out = [("first", 0, lambda f: f + 1e-6), ("last", len(leaves) - 1, lambda f: f + 1e-6),
           ("nan", 0, lambda f: f + float("nan"))]
    complex_at = [i for i, f in enumerate(leaves) if isinstance(f, CExpr)]
    if complex_at:
        out.append(("imag", complex_at[0], lambda f: CExpr(f.re, E.add(f.im, 1e-6))))
    return out


@pytest.mark.parametrize("name", catalog.names())
def test_suite_roots_cover_each_suite(name, monkeypatch):
    """Negative control for the residual tree each check declares: a change
    of 1e-6 to one of its leaves, or a NaN leaf, fails that check and no
    other, on every entry where the check runs."""
    spec = catalog.get_spec(name)
    pts = default_samples(spec, 20, seed=2)
    for suite in SUITE_NAMES:
        if run_suite(spec, suite, pts)[0].get("skipped"):
            continue  # ts on a spec that is not trans-Sasakian
        trees = suites._SUITES[suite](spec)
        for check, tree in trees.items():
            for label, index, fn in _perturbations(tree):
                changed = dict(trees, **{check: _replace(tree, index, fn)})
                with monkeypatch.context() as m:
                    m.setitem(suites._SUITES, suite, lambda s, changed=changed: changed)
                    failing = [c["name"] for c in run_suite(spec, suite, pts) if not c["pass"]]
                assert failing == [check], (suite, check, label)


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
    assert _peak_mb(100000) <= _peak_mb(2000) + 8


def test_run_is_deterministic():
    a = catalog.run("example1", count=50, seed=7)
    b = catalog.run("example1", count=50, seed=7)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
