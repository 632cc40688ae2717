import json

import pytest

from np3kit import catalog
from np3kit import expr as E
from np3kit.frame import default_samples, load_manifold, spec_to_document
from np3kit.suites import SUITE_NAMES, run_suite, suite_roots


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
def test_every_entry_runs_green(name, shared_blocks):
    rep = catalog.run(name, count=100, seed=0)
    failing = [c["name"] for c in rep["checks"] if not c["pass"]]
    failing += [f"{s}:{c['name']}" for s, checks in rep["suites"].items()
                for c in checks if not c["pass"]]
    assert rep["pass"], failing
    # one block served every full-size evaluation of the run
    block = shared_blocks[0]
    assert block.table and block.missed == []
    assert all(b is block for b in shared_blocks)


@pytest.mark.parametrize("name", catalog.names())
def test_suite_roots_cover_each_suite(name):
    spec = catalog.get_spec(name)
    pts = default_samples(spec, 40, seed=2)
    for suite in SUITE_NAMES:
        with E.shared(pts, spec.params, suite_roots(spec, [suite])) as block:
            run_suite(spec, suite, pts)
        assert block.table and block.missed == [], suite


def test_run_is_deterministic():
    a = catalog.run("example1", count=50, seed=7)
    b = catalog.run("example1", count=50, seed=7)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_run_all_threaded_matches_serial():
    serial = catalog.run_all(count=30, seed=1)
    threaded = catalog.run_all(count=30, seed=1, threads=4)
    assert json.dumps(serial, sort_keys=True) == json.dumps(threaded, sort_keys=True)
