import gc
import hashlib
import json
import math
import warnings
import weakref

import numpy as np
import pytest

from np3kit import catalog
from np3kit import expr as E
from np3kit.cexpr import eval_forms, residual
from np3kit.frame import (
    DegenerateFrame, SchemaError, connection_table, covariant_derivative,
    curvature_values_many, default_samples, kulkarni_nomizu_forms,
    load_manifold, riemann, spec_cached,
    spec_from_document, spec_hash, spec_to_document, structure_functions,
)

EXAMPLE1 = {
    "name": "example1",
    "coords": ["x1", "x2", "x3"],
    "frame": {
        "e1": ["exp(x3)", "0", "x2*exp(x3)"],
        "e2": ["0", "exp(x3)", "0"],
        "xi": ["0", "0", "1"],
    },
    "domain": [],
    "params": {},
    "box": [[-1, 1], [-1, 1], [-1, 1]],
}

FLAT = {
    "name": "flat",
    "coords": ["x1", "x2", "x3"],
    "frame": {"e1": ["1", "0", "0"], "e2": ["0", "1", "0"], "xi": ["0", "0", "1"]},
}

NIL3 = {
    "name": "nil3",
    "coords": ["x1", "x2", "x3"],
    "frame": {"e1": ["1", "0", "0"], "e2": ["0", "1", "x1"], "xi": ["0", "0", "1"]},
}

SOL = {
    "name": "sol",
    "coords": ["x1", "x2", "x3"],
    "frame": {"e1": ["exp(-x3)", "0", "0"], "e2": ["0", "exp(x3)", "0"], "xi": ["0", "0", "1"]},
}

EXAMPLE2 = {
    "name": "example2",
    "coords": ["x1", "x2", "x3"],
    "frame": {
        "e1": ["x3", "0", "x2*x3"],
        "e2": ["0", "x3", "0"],
        "xi": ["0", "0", "1"],
    },
    "domain": ["x3"],
    "box": [[-1, 1], [-1, 1], [0.5, 2.0]],
}


@pytest.fixture(scope="module")
def example1():
    return load_manifold(json.dumps(EXAMPLE1))


@pytest.fixture(scope="module")
def flat():
    return load_manifold(FLAT)


@pytest.fixture(scope="module")
def sol():
    return load_manifold(SOL)


def _ev(expr, point, params=None):
    """One expression at one point, as a batch of one."""
    return float(E.eval_batch([expr], [point], params)[0][0])


def test_load_example1_valid(example1):
    assert example1.name == "example1"
    assert len(example1.e1) == 3


def test_load_degenerate_frame_rejected():
    doc = dict(EXAMPLE1, name="degenerate")
    doc["frame"] = dict(doc["frame"], e2=doc["frame"]["e1"])
    with pytest.raises(DegenerateFrame):
        load_manifold(doc)


def test_a_nan_determinant_is_degenerate(nan_det_doc):
    with pytest.raises(DegenerateFrame, match="= nan"):
        load_manifold(nan_det_doc)


def test_an_overflowing_determinant_loads_without_a_warning(overflow_doc):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert load_manifold(overflow_doc).name == "overflow"


# documents that crashed, loaded a wrong spec or were accepted: a box pair
# of three numbers, of a string or with a NaN bound, a domain that is one
# string, not a list of them, a null or boolean frame component, each read
# as a parameter's name, and a boolean parameter value
MALFORMED = [
    {"box": [[0, 1, 2], [0, 1], [0, 1]]},
    {"box": [["a", 1], [0, 1], [0, 1]]},
    {"box": [[0, float("nan")], [0, 1], [0, 1]]},
    {"domain": "x3"},
    {"domain": [None]},
    {"frame": dict(FLAT["frame"], e2=["0", None, "0"])},
    {"frame": dict(FLAT["frame"], xi=["0", "0", True])},
    {"params": {"a": True}},
]


def test_load_schema_errors():
    with pytest.raises(SchemaError):
        load_manifold({"name": "x"})
    with pytest.raises(SchemaError):
        load_manifold(json.dumps({"name": "x", "coords": ["a", "b"], "frame": {}}))
    with pytest.raises(SchemaError):
        load_manifold("this is not json")
    with pytest.raises(E.ParseError):
        load_manifold({"name": "x", "coords": ["x1", "x2", "x3"],
                       "frame": {"e1": ["exp(2*", "0", "0"], "e2": ["0", "1", "0"],
                                 "xi": ["0", "0", "1"]}})
    for malformed in MALFORMED:
        with pytest.raises(SchemaError):
            load_manifold(dict(FLAT, **malformed))



def test_document_roundtrip(example1):
    doc = spec_to_document(example1)
    again = spec_from_document(doc)
    assert spec_to_document(again) == doc


def test_structure_functions_example1(example1):
    c = structure_functions(example1).c
    # [B1,B2] = x2 e^{x3} B2 - e^{2 x3} B3
    for x2, x3 in [(0.0, 0.0), (0.5, 0.3), (-1.0, 1.0)]:
        p = (0.2, x2, x3)
        assert _ev(c[0][1][0], p) == pytest.approx(0.0, abs=1e-12)
        assert _ev(c[0][1][1], p) == pytest.approx(x2 * math.exp(x3), rel=1e-12, abs=1e-12)
        assert _ev(c[0][1][2], p) == pytest.approx(-math.exp(2 * x3), rel=1e-12)
        # antisymmetry
        assert _ev(c[1][0][2], p) == pytest.approx(math.exp(2 * x3), rel=1e-12)


def test_structure_functions_flat(flat):
    c = structure_functions(flat).c
    p = (0.3, -0.2, 0.9)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                assert _ev(c[i][j][k], p) == 0.0


def test_structure_functions_nil3():
    spec = load_manifold(NIL3)
    c = structure_functions(spec).c
    p = (0.7, -0.1, 0.4)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                expected = {(0, 1, 2): 1.0, (1, 0, 2): -1.0}.get((i, j, k), 0.0)
                assert _ev(c[i][j][k], p) == pytest.approx(expected, abs=1e-12)


def test_connection_example1(example1):
    gamma = connection_table(example1).gamma
    # nabla_{B1} xi = -B1 + (1/2) e^{2 x3} B2
    for p in [(0.0, 0.0, 0.0), (0.4, -0.3, 0.6)]:
        x3 = p[2]
        assert _ev(gamma[0][2][0], p) == pytest.approx(-1.0, rel=1e-12)
        assert _ev(gamma[0][2][1], p) == pytest.approx(0.5 * math.exp(2 * x3), rel=1e-12)
        assert _ev(gamma[0][2][2], p) == pytest.approx(0.0, abs=1e-12)


def test_connection_flat(flat):
    gamma = connection_table(flat).gamma
    p = (1.0, 2.0, 3.0)
    assert all(_ev(gamma[i][j][k], p) == 0.0
               for i in range(3) for j in range(3) for k in range(3))


def test_connection_metric_compatible_and_torsion_free(example1):
    gamma = connection_table(example1).gamma
    c = structure_functions(example1).c
    pts = default_samples(example1, 25, seed=3)
    gam = eval_forms(gamma, pts, example1.params)
    cc = eval_forms(c, pts, example1.params)
    # antisymmetry in last two slots
    assert np.max(np.abs(gam + np.swapaxes(gam, 2, 3))) < 1e-10
    # torsion: Gamma[i][j][k] - Gamma[j][i][k] = c[i][j][k]
    torsion = gam - np.swapaxes(gam, 1, 2) - cc
    assert np.max(np.abs(torsion)) < 1e-9


def test_covariant_derivative_example2():
    spec = load_manifold(EXAMPLE2)
    zero = E.const(0.0)
    one = E.const(1.0)
    xi_w = (zero, zero, one)
    e1_w = (one, zero, zero)
    # nabla_xi xi = 0
    dxx = covariant_derivative(spec, xi_w, xi_w)
    p = (0.0, 0.0, 1.0)
    assert all(_ev(comp, p) == pytest.approx(0.0, abs=1e-12) for comp in dxx)
    # nabla_{B1} xi = -(1/x3) B1 + (1/2)(x3)^2 B2
    d1x = covariant_derivative(spec, e1_w, xi_w)
    for p in [(0.0, 0.0, 1.0), (0.3, 0.7, 2.0)]:
        x3 = p[2]
        assert _ev(d1x[0], p) == pytest.approx(-1.0 / x3, rel=1e-12)
        assert _ev(d1x[1], p) == pytest.approx(0.5 * x3**2, rel=1e-12)
        assert _ev(d1x[2], p) == pytest.approx(0.0, abs=1e-12)


def test_covariant_derivative_torsion_free_on_general_fields(example1):
    # nabla_X Y - nabla_Y X - [X, Y] = 0 for non-constant frame-component fields
    x1, x3 = E.Coord(1), E.Coord(3)
    X = (E.sin(x1), E.const(1.0), E.mul(x3, x3))
    Y = (E.exp(x3), E.sub(x1, 2.0), E.const(0.25))
    dxy = covariant_derivative(example1, X, Y)
    dyx = covariant_derivative(example1, Y, X)
    c = structure_functions(example1).c
    from np3kit.frame import frame_directional
    for p in [(0.1, -0.4, 0.2), (0.9, 0.5, -0.7)]:
        for m in range(3):
            bracket = 0.0
            for i in range(3):
                bracket += (_ev(X[i], p) * _ev(frame_directional(example1, Y[m], i), p)
                            - _ev(Y[i], p) * _ev(frame_directional(example1, X[m], i), p))
                for k in range(3):
                    bracket += _ev(X[i], p) * _ev(Y[k], p) * _ev(c[i][k][m], p)
            assert _ev(dxy[m], p) - _ev(dyx[m], p) - bracket == pytest.approx(0.0, abs=1e-9)


def test_riemann_flat(flat):
    (R,), (S,), (tau,) = curvature_values_many(flat, [(0.3, 0.1, -2.0)])
    assert np.max(np.abs(R)) == 0.0
    assert np.max(np.abs(S)) == 0.0
    assert tau == 0.0


def test_riemann_sol_ricci(sol):
    # Sol: S = -2 theta^3 (x) theta^3
    for p in [(0.0, 0.0, 0.0), (1.0, 1.0, 0.0), (0.2, -0.5, 0.8)]:
        _, (S,), (tau,) = curvature_values_many(sol, [p])
        expected = np.diag([0.0, 0.0, -2.0])
        assert np.max(np.abs(S - expected)) < 1e-10
        assert tau == pytest.approx(-1.0, rel=1e-12)


def test_riemann_symmetries_and_first_bianchi(example1):
    pts = default_samples(example1, 30, seed=5)
    R, S, _ = curvature_values_many(example1, pts)
    assert np.max(np.abs(R + np.swapaxes(R, 1, 2))) < 1e-9          # R_ijkl = -R_jikl
    assert np.max(np.abs(R + np.swapaxes(R, 3, 4))) < 1e-9          # R_ijkl = -R_ijlk
    assert np.max(np.abs(R - np.transpose(R, (0, 3, 4, 1, 2)))) < 1e-9  # pair symmetry
    bianchi1 = R + np.transpose(R, (0, 2, 3, 1, 4)) + np.transpose(R, (0, 3, 1, 2, 4))
    assert np.max(np.abs(bianchi1)) < 1e-9
    assert np.max(np.abs(S - np.swapaxes(S, 1, 2))) < 1e-12          # Ricci symmetric


def test_kulkarni_nomizu_forms_vanish_at_examples(example1, flat, sol):
    for spec, point, bound in ((flat, (0.7, -0.3, 0.1), 0.0), (example1, (0.0, 0.0, 0.0), 1e-9),
                               (sol, (0.0, 0.0, 0.0), 1e-9)):
        kn = residual(kulkarni_nomizu_forms(spec))
        assert eval_forms(kn, [point], spec.params)[0] <= bound, spec.name


def test_scalar_curvature_conventions_agree(example1):
    # half-trace convention equals S(del, delbar) + S(xi,xi)/2
    _, (S,), (tau,) = curvature_values_many(example1, [(0.3, 0.4, -0.2)])
    s_ddbar = 0.5 * (S[0, 0] + S[1, 1])
    assert tau == pytest.approx(s_ddbar + 0.5 * S[2, 2], rel=1e-12)


# ---------------------------------------------------------------------------
# the per-spec memo

def test_spec_cached_returns_the_identical_object():
    spec = load_manifold(EXAMPLE1)
    assert riemann(spec) is riemann(spec)
    assert connection_table(spec) is connection_table(spec)

    calls = []

    @spec_cached
    def build(spec):
        calls.append(spec)
        return object()

    assert build(spec) is build(spec)
    assert calls == [spec]


def test_spec_cached_entries_are_not_shared_between_specs():
    a, b = load_manifold(EXAMPLE1), load_manifold(EXAMPLE1)
    assert riemann(a) is not riemann(b)
    assert structure_functions(a) is not structure_functions(b)
    assert riemann(a) is riemann(a)


def test_spec_cached_memo_is_freed_with_its_spec():
    spec = load_manifold(EXAMPLE1)
    curvature = weakref.ref(riemann(spec))
    assert curvature() is not None
    del spec
    gc.collect()
    assert curvature() is None


def test_spec_hash_is_hashlibs_sha256_of_the_document():
    # spec_hash takes the interpreter's built-in SHA-256, not hashlib's
    aliased = spec_from_document({
        "name": "warped", "coords": ["u", "v", "w"],
        "frame": {"e1": ["exp(a*w)", "0", "0"], "e2": ["0", "exp(-a*w)", "0"],
                  "xi": ["0", "b*u", "1"]},
        "domain": ["1 - u^2"], "params": {"a": 0.5, "b": -2}, "box": [[-0.5, 0.5]] * 3})
    for spec in [catalog.get_spec(name) for name in catalog.names()] + [aliased]:
        doc = json.dumps(spec_to_document(spec), sort_keys=True)
        assert spec_hash(spec) == hashlib.sha256(doc.encode()).hexdigest()[:16], spec.name
