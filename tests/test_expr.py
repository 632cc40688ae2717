import functools
import math
import os
import pathlib
import random
import subprocess
import sys
import textwrap
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from np3kit import expr as E
from np3kit.cexpr import CExpr, c_const, eval_forms, residual
from np3kit.expr import (
    Binary, Const, Coord, DomainError, ParseError, Unary, UnboundParameter,
    differentiate, evaluate, evaluate_many, parse, simplify, unparse,
)


def test_parse_exp():
    ast = parse("exp(2*x3)")
    assert ast == Unary("exp", Binary("mul", Const(2.0), Coord(3)))


def test_parse_precedence():
    ast = parse("1/x3 + x3^2/2")
    assert ast == Binary(
        "add",
        Binary("div", Const(1.0), Coord(3)),
        Binary("div", Binary("pow", Coord(3), Const(2.0)), Const(2.0)),
    )


def test_parse_truncated_input_offset():
    with pytest.raises(ParseError) as exc:
        parse("exp(2*")
    assert exc.value.offset == 6


@pytest.mark.parametrize("text", ["", "   ", "1 +", "sin", "(x1", "1..2", "foo(x1)", "x1 @ x2"])
def test_parse_rejects_malformed(text):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert 0 <= exc.value.offset <= len(text)


def test_unknown_identifier_is_parameter():
    ast = parse("a*x1")
    assert evaluate(ast, (2.0, 0.0, 0.0), {"a": 3.0}) == 6.0
    with pytest.raises(UnboundParameter):
        evaluate(ast, (2.0, 0.0, 0.0))


def test_coordinate_aliases():
    ast = parse("r + x1", coord_names=["r", "s", "t"])
    assert ast == Binary("add", Coord(1), Coord(1))


def test_differentiate_examples():
    f = parse("exp(2*x3)")
    df = differentiate(f, 3)
    for z in (0.0, 0.3, -1.0):
        assert evaluate(df, (0, 0, z)) == pytest.approx(2 * math.exp(2 * z), rel=1e-12)

    assert differentiate(parse("x2"), 1) == Const(0.0)

    g = differentiate(parse("1/x3"), 3)
    for z in (1.0, 2.0, -0.5):
        assert evaluate(g, (0, 0, z)) == pytest.approx(-1.0 / z**2, rel=1e-12)


def test_differentiate_chain_and_power():
    f = parse("sin(x1^3)")
    df = differentiate(f, 1)
    x = 0.7
    assert evaluate(df, (x, 0, 0)) == pytest.approx(3 * x**2 * math.cos(x**3), rel=1e-12)

    g = parse("x1^x2")  # non-integer exponent route
    dg = differentiate(g, 1)
    x, y = 1.3, 0.7
    assert evaluate(dg, (x, y, 0)) == pytest.approx(y * x ** (y - 1), rel=1e-12)


def test_evaluate_examples():
    assert evaluate(parse("exp(2*x3)"), (0, 0, 0)) == 1.0
    assert evaluate(parse("1/x3"), (0, 0, 2)) == 0.5
    with pytest.raises(DomainError):
        evaluate(parse("1/x3"), (0, 0, 0))
    with pytest.raises(DomainError):
        evaluate(parse("log(x1)"), (0.0, 0, 0))
    with pytest.raises(DomainError):
        evaluate(parse("sqrt(x1)"), (-1.0, 0, 0))


def test_evaluate_many_matches_scalar():
    f = parse("exp(x1) * sin(x2) + x3^2")
    pts = np.array([[0.1, 0.2, 0.3], [1.0, -1.0, 2.0], [0.0, 0.0, 0.0]])
    vals = evaluate_many(f, pts)
    for p, v in zip(pts, vals):
        assert evaluate(f, tuple(p)) == pytest.approx(v, rel=1e-15)


def test_simplify_examples():
    assert simplify(Binary("add", Const(0.0), Coord(1))) == Coord(1)
    e = Unary("exp", Coord(3))
    assert simplify(Binary("mul", Const(1.0), e)) == e
    singular = Binary("div", Const(1.0), Coord(3))
    assert simplify(Binary("mul", Const(0.0), singular)) == Const(0.0)


def test_operator_overloads_build_same_ast():
    x1, x3 = Coord(1), Coord(3)
    written = E.exp(2 * x3) / x1 + x3**2
    parsed = parse("exp(2*x3)/x1 + x3^2")
    pts = np.array([[0.5, 0.0, 0.2], [1.5, 1.0, -0.4]])
    np.testing.assert_allclose(evaluate_many(written, pts), evaluate_many(parsed, pts), rtol=1e-15)


# ---------------------------------------------------------------------------
# random-expression generator shared by the property tests

_FUNCS = ["sin", "cos", "exp"]  # unconditionally smooth everywhere


def _random_expr(rng: random.Random, depth: int) -> E.Expr:
    if depth <= 0:
        return rng.choice([
            Const(round(rng.uniform(-2, 2), 3)),
            Coord(rng.randint(1, 3)),
        ])
    roll = rng.random()
    if roll < 0.25:
        return Unary(rng.choice(_FUNCS), _random_expr(rng, depth - 1))
    if roll < 0.32:
        # guarded log/sqrt: argument strictly positive everywhere
        inner = _random_expr(rng, depth - 2 if depth > 1 else 0)
        guarded = Binary("add", Binary("mul", inner, inner), Const(rng.uniform(0.5, 2.0)))
        return Unary(rng.choice(["log", "sqrt"]), guarded)
    if roll < 0.40:
        return Unary("neg", _random_expr(rng, depth - 1))
    if roll < 0.50:
        return Binary("pow", _random_expr(rng, depth - 1), Const(float(rng.randint(2, 4))))
    op = rng.choice(["add", "sub", "mul", "div"])
    return Binary(op, _random_expr(rng, depth - 1), _random_expr(rng, depth - 1))


def _central_diff(f, p, i, h):
    step = np.zeros(3)
    step[i - 1] = h
    return (evaluate(f, tuple(p + step)) - evaluate(f, tuple(p - step))) / (2 * h)


def _regular_point(f, rng, i=1, tries=60, h=1e-5):
    """A point where f is moderate and the central difference for x_i has
    converged to its O(h^2) regime (Richardson check between h and h/2)."""
    for _ in range(tries):
        p = np.array([rng.uniform(-1.5, 1.5) for _ in range(3)])
        try:
            v = evaluate(f, tuple(p))
            cd, cd2 = _central_diff(f, p, i, h), _central_diff(f, p, i, h / 2)
        except (DomainError, UnboundParameter, OverflowError):
            continue
        if not all(math.isfinite(t) for t in (v, cd, cd2)) or abs(v) > 1e3:
            continue
        if abs(cd - cd2) <= 2e-7 * (1 + abs(cd2)):
            return p
    return None


def test_derivative_matches_central_difference_on_1000_random_exprs():
    rng = random.Random(20250810)
    h = 1e-5
    checked = 0
    attempts = 0
    while checked < 1000:
        attempts += 1
        assert attempts < 20000, "generator kept producing degenerate expressions"
        f = _random_expr(rng, rng.randint(1, 6))
        i = rng.randint(1, 3)
        p = _regular_point(f, rng, i)
        if p is None:
            continue
        df = differentiate(f, i)
        try:
            exact = evaluate(df, tuple(p))
        except DomainError:
            continue
        if not math.isfinite(exact) or abs(exact) > 1e5:
            continue
        approx = _central_diff(f, p, i, h)
        assert abs(exact - approx) <= 1e-6 * (1 + abs(exact)), unparse(f)
        checked += 1


def test_simplify_preserves_evaluation_on_random_exprs():
    rng = random.Random(7)
    for _ in range(300):
        f = _random_expr(rng, rng.randint(1, 6))
        g = simplify(f)
        p = _regular_point(f, rng)
        if p is None:
            continue
        assert evaluate(g, tuple(p)) == pytest.approx(evaluate(f, tuple(p)), rel=1e-12, abs=1e-12)


# hypothesis strategy for raw ASTs (round-trip property)

_leaf = st.one_of(
    st.builds(Const, st.floats(min_value=-50, max_value=50, allow_nan=False).map(float)),
    st.builds(Coord, st.integers(min_value=1, max_value=3)),
    st.builds(E.Param, st.sampled_from(["a", "b2", "tau"])),
)

_ast = st.recursive(
    _leaf,
    lambda children: st.one_of(
        st.builds(Unary, st.sampled_from(list(E.FUNCTIONS)), children),
        st.builds(Binary, st.sampled_from(list(E.BINOPS)), children, children),
    ),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(_ast)
def test_parse_unparse_roundtrip(ast):
    assert parse(unparse(ast)) == ast


# ---------------------------------------------------------------------------
# the chunked tape against a direct recursive evaluator

_SIZES = (1, E.CHUNK - 1, E.CHUNK, E.CHUNK + 1, 3 * E.CHUNK + 5)
_REF_OPS = {"neg": np.negative, "sin": np.sin, "cos": np.cos, "tan": np.tan, "exp": np.exp,
            "log": np.log, "sqrt": np.sqrt, "add": np.add, "sub": np.subtract,
            "mul": np.multiply, "div": np.true_divide, "pow": np.power}


def _reference_eval(roots, pts):
    """All points at once, right operand before left, each node once: the
    order in which the unchunked evaluator ran its domain checks."""
    memo = {}

    def ev(e):
        if id(e) in memo:
            return memo[id(e)]
        if isinstance(e, Const):
            r = e.value
        elif isinstance(e, Coord):
            r = pts[:, e.index - 1]
        elif isinstance(e, Unary):
            u = ev(e.arg)
            if e.op == "log" and np.any(u <= 0.0):
                raise DomainError("log of non-positive value")
            if e.op == "sqrt" and np.any(u < 0.0):
                raise DomainError("sqrt of negative value")
            r = _REF_OPS[e.op](u)
        else:
            b = ev(e.right)
            a = ev(e.left)
            if e.op == "div" and np.any(b == 0.0):
                raise DomainError("division by zero")
            if e.op == "pow":
                frac = b != np.floor(b)
                if np.any((a < 0.0) & frac):
                    raise DomainError("negative base with non-integer exponent")
                if np.any((a == 0.0) & (b < 0.0)):
                    raise DomainError("zero base with negative exponent")
            r = _REF_OPS[e.op](a, b)
        memo[id(e)] = r
        return r

    with np.errstate(over="ignore", invalid="ignore"):
        return [np.broadcast_to(ev(f), (len(pts),)) for f in roots]


def _outcome(fn):
    try:
        return fn(), None
    except DomainError as exc:
        return None, str(exc)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from(_SIZES))
def test_tape_matches_recursive_evaluator(seed, n):
    rng = random.Random(seed)
    f, g = _random_expr(rng, rng.randint(1, 6)), _random_expr(rng, rng.randint(1, 6))
    roots = [f, g, Binary("mul", f, g), f]  # shared subterms and a repeated root
    pts = np.random.default_rng(seed).uniform(-1.5, 1.5, size=(n, 3))
    got, got_err = _outcome(lambda: E.eval_batch(roots, pts))
    want, want_err = _outcome(lambda: _reference_eval(roots, pts))
    assert got_err == want_err
    if want is not None:
        for a, b in zip(got, want):
            assert a.shape == (n,)
            np.testing.assert_allclose(a, b, rtol=1e-13, atol=0)


def _per_point(roots, pts, params):
    """The root columns, evaluated one point at a time."""
    rows = [E.eval_batch(roots, pts[i:i + 1], params) for i in range(len(pts))]
    return [np.array([row[j][0] for row in rows]) for j in range(len(roots))]


@pytest.mark.parametrize("n", (0, 1, E.CHUNK, 3 * E.CHUNK + 5))
def test_in_place_runner_edge_cases(n):
    x1, x2, x3 = Coord(1), Coord(2), Coord(3)
    early = E.mul(E.sin(x1), x3)  # x1 is dead after sin, so its slot is reused
    late = E.div(E.add(early, E.mul(x3, x3)), E.add(E.mul(x2, x2), 1.0))
    roots = [late, x2, Const(1.5), E.param("a"), x2, late]  # coordinate and constant roots
    params = {"a": -0.25}
    tape = E._Tape(roots, params, E.CHUNK)
    coord_bufs = [id(buf) for buf, _ in tape.coords]
    assert any(id(out) in coord_bufs for _, out, _, _ in tape.code)

    pts = np.random.default_rng(n).uniform(-2.0, 2.0, size=(n, 3))
    got = E.eval_batch(roots, pts, params)
    for a, b in zip(got, _per_point(roots, pts, params)):
        assert (a.dtype, a.shape) == (np.float64, (n,))
        assert a.tobytes() == b.tobytes()
    assert got[1] is got[4] and got[0] is got[5]  # a repeated root is one column


def test_in_place_runner_allocates_nothing_per_op():
    # a left fold evaluates right operands first, so its 600 terms are live at once
    x1, x2 = Coord(1), Coord(2)
    root = functools.reduce(E.add, [E.add(E.mul(x1, float(i)), x2) for i in range(2, 602)])
    tape = E._Tape([root], {}, E.CHUNK)
    assert len(tape.code) >= 1000
    pts = np.random.default_rng(0).uniform(-1.0, 1.0, size=(8 * E.CHUNK, 3))
    tracemalloc.start()
    try:
        for _ in tape.passes(pts):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20


def _random_forms(rng: random.Random, depth: int = 2):
    """A tree of forms: dicts and lists of Exprs, CExprs and tables of either."""
    def scalar():
        return _random_expr(rng, rng.randint(0, 4))

    def complex_scalar():
        return CExpr(scalar(), scalar())

    roll = rng.random()
    if depth > 0 and roll < 0.3:
        return {f"k{i}": _random_forms(rng, depth - 1) for i in range(rng.randint(1, 3))}
    if depth > 0 and roll < 0.5:
        return [_random_forms(rng, depth - 1) for _ in range(rng.randint(1, 3))]
    entry = rng.choice([scalar, complex_scalar])
    if roll < 0.75:
        return entry()
    shape = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]

    def table(dims):
        return tuple(table(dims[1:]) if len(dims) > 1 else entry() for _ in range(dims[0]))
    return table(shape)


def _per_leaf(node, pts):
    """The values eval_forms promises, one evaluate_many call per real leaf."""
    if isinstance(node, dict):
        return {k: _per_leaf(v, pts) for k, v in node.items()}
    if isinstance(node, list):
        return [_per_leaf(v, pts) for v in node]
    if isinstance(node, tuple):
        return np.stack([_per_leaf(v, pts) for v in node], axis=1)
    if isinstance(node, CExpr):
        return evaluate_many(node.re, pts) + 1j * evaluate_many(node.im, pts)
    return evaluate_many(node, pts)


def _assert_bitwise(got, want):
    assert type(got) is type(want)
    if isinstance(want, dict):
        assert list(got) == list(want)
        for k in want:
            _assert_bitwise(got[k], want[k])
    elif isinstance(want, list):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            _assert_bitwise(a, b)
    else:
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from((1, E.CHUNK + 1)))
def test_eval_forms_matches_per_leaf_evaluation(seed, n):
    rng = random.Random(seed)
    tree = _random_forms(rng)
    # a form that recurs (the same object) is read once and shared
    forms = {"tree": tree, "again": [tree], "more": [_random_forms(rng, 1)]}
    pts = np.random.default_rng(seed).uniform(-1.5, 1.5, size=(n, 3))
    with np.errstate(invalid="ignore"):  # 1j * inf, where a random form overflows
        got, got_err = _outcome(lambda: eval_forms(forms, pts))
        want, want_err = _outcome(lambda: _per_leaf(forms, pts))
    assert (got_err is None) == (want_err is None)
    if want is not None:
        _assert_bitwise(got, want)


def test_singular_point_in_last_chunk_raises():
    pts = np.ones((3 * E.CHUNK + 5, 3))
    pts[-1, 0] = 0.0
    with pytest.raises(DomainError, match="division by zero"):
        evaluate_many(parse("x2/x1"), pts)
    assert np.all(evaluate_many(parse("x2/x1"), pts[:-1]) == 1.0)


def test_first_failing_node_wins_across_chunks():
    # log fails only in the last chunk, 1/x2 in the first; log comes first
    # in evaluation order, so its error is the one raised
    pts = np.ones((2 * E.CHUNK, 3))
    pts[-1, 0] = 0.0
    pts[0, 1] = 0.0
    with pytest.raises(DomainError, match="log of non-positive value"):
        E.eval_batch([parse("log(x1)"), parse("1/x2")], pts)


@pytest.mark.parametrize("f,point,message", [
    (E.power(0.0, -1.0), (0, 0, 0), "zero base with negative exponent"),
    (E.power(-1.0, 0.5), (0, 0, 0), "negative base with non-integer exponent"),
    (E.log(0.0), (0, 0, 0), "log of non-positive value"),
    (E.div(Coord(1), 0.0), (1, 0, 0), "division by zero"),
    (parse("x1^-1"), (0, 0, 0), "zero base with negative exponent"),
    (parse("x1^0.5"), (-1, 0, 0), "negative base with non-integer exponent"),
    (parse("x1^-0.5"), (-1, 0, 0), "negative base with non-integer exponent"),
    (parse("x1^-0.5"), (0, 0, 0), "zero base with negative exponent"),
    (parse("x1^x2"), (-1, 0.5, 0), "negative base with non-integer exponent"),
    (parse("x1^x2"), (0, -2, 0), "zero base with negative exponent"),
    (parse("sqrt(x1)"), (-1, 0, 0), "sqrt of negative value"),
])
def test_domain_error_messages(f, point, message):
    with pytest.raises(DomainError) as exc:
        evaluate(f, point)
    assert str(exc.value) == message


def test_domain_error_names_the_first_failing_sample():
    pts = np.ones((2 * E.CHUNK + 3, 3))
    pts[[E.CHUNK + 7, -1], 0] = -1.0  # both in later chunks
    with pytest.raises(DomainError) as exc:
        evaluate_many(parse("sqrt(x1)"), pts)
    assert (exc.value.index, exc.value.point) == (E.CHUNK + 7, (-1.0, 1.0, 1.0))
    assert str(exc.value) == "sqrt of negative value"


def test_a_streamed_error_ranks_the_checks_of_one_op():
    # x1^x2 tests a negative base before a zero base, so over all points at
    # once the later sample's negative base is the error, not sample 5's zero
    n = 3 * E.CHUNK + 5
    pts = np.ones((n, 3))
    pts[5, :2] = 0.0, -2.0
    pts[2 * E.CHUNK + 9, :2] = -1.0, 0.5
    with pytest.raises(DomainError) as exc:
        evaluate_many(parse("x1^x2"), pts)
    assert str(exc.value) == "negative base with non-integer exponent"
    assert (exc.value.index, exc.value.point) == (2 * E.CHUNK + 9, (-1.0, 0.5, 1.0))


def test_a_streamed_error_is_named_in_the_canonical_order():
    n = 3 * E.CHUNK + 5
    x1, x2, x3 = Coord(1), Coord(2), Coord(3)
    deep = E.mul(E.div(1.0, x2), E.add(x1, x3))  # needs more slots than log(x1)
    roots = [E.log(x1), deep]
    pts = np.ones((n, 3))
    pts[0, 1] = 0.0  # 1/x2 fails in the first pass
    pts[-1, 0] = 0.0  # log(x1), first in the canonical order, in the last
    scheduled = E._Tape(roots, {}, E.CHUNK, scheduled=True)
    order = [fn for fn, _, _, _ in scheduled.code]
    assert order.index(E._div) < order.index(E._log)  # the scheduled walk reaches 1/x2 first
    _, _, bad = next(scheduled.passes(pts))  # a failing pass runs on and masks its sample
    assert np.flatnonzero(bad).tolist() == [0]
    with pytest.raises(DomainError) as exc:
        E.eval_batch(roots, pts)
    assert str(exc.value) == "log of non-positive value"
    assert (exc.value.index, exc.value.point) == (n - 1, (0.0, 1.0, 1.0))


def test_eval_batch_streams_on_the_one_pass_driver(tapes):
    n = 3 * E.CHUNK + 5
    pts = np.ones((n, 3))
    E.eval_batch([parse("sqrt(x1)")], pts)
    assert tapes == [[E.CHUNK] * 4]  # one tape; the last pass overlaps
    pts[-1, 0] = -1.0  # singular in the last pass
    tapes.clear()
    with pytest.raises(DomainError):
        E.eval_batch([parse("sqrt(x1)")], pts)
    assert tapes == [[E.CHUNK] * 4]  # the same tape and passes; the error comes after them


def test_evaluation_only_ops():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(50, 3)) * np.array([1.0, 1e-3, 1e3])
    x, y = Coord(1), Coord(2)
    re, im = pts[:, 0], pts[:, 1]
    got = eval_forms([E.absolute(x), E.maximum(x, y), E.cabs(x, y)], pts)
    assert np.array_equal(got[0], np.abs(re))
    assert np.array_equal(got[1], np.maximum(re, im))
    assert np.array_equal(got[2], np.abs(re + 1j * im))  # numpy's modulus, not hypot
    assert np.isnan(evaluate(E.maximum(x, float("nan")), (1.0, 0.0, 0.0)))
    assert E.cabs(Const(-2.0), 0.0) == Const(2.0)
    for node in (E.absolute(x), E.maximum(x, y), E.cabs(x, y)):
        with pytest.raises(ValueError, match="evaluation-only"):
            differentiate(node, 1)
        with pytest.raises(ValueError, match="evaluation-only"):
            unparse(node)


def test_residual_folds_to_one_root():
    x, y = Coord(1), Coord(2)
    pts = np.array([[3.0, -4.0, 0.0], [-0.5, 0.25, 1.0]])
    tree = {"a": [x, E.const(0.0), (y,)], "b": CExpr(x, y), "c": c_const(-1.5)}
    got = eval_forms(residual(tree), pts)
    assert np.array_equal(got, [5.0, 1.5])
    assert residual([E.const(0.0), c_const(0)]) == Const(0.0)
    assert residual([E.const(-2.0), c_const(1.0)]) == Const(2.0)
    assert np.isnan(evaluate(residual([x, E.const(float("nan"))]), (1.0, 0.0, 0.0)))


def test_constant_exponents_and_divisors():
    pts = np.array([[-2.0, 0.5, 4.0], [3.0, 2.0, 0.25]])
    np.testing.assert_array_equal(evaluate_many(parse("x1^3"), pts), [-8.0, 27.0])
    np.testing.assert_array_equal(evaluate_many(parse("x3^0.5"), pts), [2.0, 0.5])
    np.testing.assert_array_equal(evaluate_many(parse("x2^-1"), pts), [2.0, 0.5])
    np.testing.assert_array_equal(evaluate_many(parse("x1/4"), pts), [-0.5, 0.75])


def test_no_module_level_evaluation_cache():
    assert not hasattr(E, "_EVAL_SESSIONS")
    assert not hasattr(E, "_session_memo")


def test_point_evaluations_do_not_accumulate_memory():
    code = textwrap.dedent("""
        import tracemalloc
        from np3kit import catalog
        from np3kit.npcore import spin_coefficients
        spec = catalog.get_spec("example1")
        co = spin_coefficients(spec)
        co.evaluate((0.1, 0.2, 0.3), spec.params)
        tracemalloc.start()
        before = tracemalloc.get_traced_memory()[0]
        for i in range(2000):
            co.evaluate((0.1, 0.2, 0.3 + 1e-4 * i), spec.params)
        print(tracemalloc.get_traced_memory()[0] - before)
    """)
    src = str(pathlib.Path(E.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""  # nothing printed at interpreter exit either
    assert int(proc.stdout) < 256 * 1024


# ---------------------------------------------------------------------------
# the smart constructors and differentiate against reference copies of the
# rules they had before their type-dispatched fast paths


def _ref_add(a, b):
    a, b = E.as_expr(a), E.as_expr(b)
    if isinstance(a, Const) and isinstance(b, Const):
        return E._mk_const(a.value + b.value)
    if E._is_const(a, 0.0):
        return b
    if E._is_const(b, 0.0):
        return a
    return E._mk_binary("add", a, b)


def _ref_sub(a, b):
    a, b = E.as_expr(a), E.as_expr(b)
    if isinstance(a, Const) and isinstance(b, Const):
        return E._mk_const(a.value - b.value)
    if E._is_const(b, 0.0):
        return a
    if E._is_const(a, 0.0):
        return _ref_neg(b)
    return E._mk_binary("sub", a, b)


def _ref_mul(a, b):
    a, b = E.as_expr(a), E.as_expr(b)
    if isinstance(a, Const) and isinstance(b, Const):
        return E._mk_const(a.value * b.value)
    if E._is_const(a, 0.0) or E._is_const(b, 0.0):
        return E._ZERO
    if E._is_const(a, 1.0):
        return b
    if E._is_const(b, 1.0):
        return a
    if E._is_const(a, -1.0):
        return _ref_neg(b)
    if E._is_const(b, -1.0):
        return _ref_neg(a)
    return E._mk_binary("mul", a, b)


def _ref_div(a, b):
    a, b = E.as_expr(a), E.as_expr(b)
    if isinstance(a, Const) and isinstance(b, Const) and b.value != 0.0:
        return E._mk_const(a.value / b.value)
    if E._is_const(a, 0.0):
        return E._ZERO
    if E._is_const(b, 1.0):
        return a
    return E._mk_binary("div", a, b)


def _ref_power(a, b):
    a, b = E.as_expr(a), E.as_expr(b)
    if E._is_const(b, 1.0):
        return a
    if E._is_const(b, 0.0):
        return E._ONE
    if isinstance(a, Const) and isinstance(b, Const):
        try:
            v = math.pow(a.value, b.value)
        except (ValueError, OverflowError):
            return E._mk_binary("pow", a, b)
        return E._mk_const(v)
    return E._mk_binary("pow", a, b)


def _ref_neg(a):
    a = E.as_expr(a)
    if isinstance(a, Const):
        return E._mk_const(-a.value)
    if isinstance(a, Unary) and a.op == "neg":
        return a.arg
    return E._mk_unary("neg", a)


def _ref_func(name, arg):
    if name not in E.FUNCTIONS:
        raise ValueError(f"unknown function {name!r}")
    if name == "neg":
        return _ref_neg(arg)
    arg = E.as_expr(arg)
    if isinstance(arg, Const):
        try:
            return E._mk_const(getattr(math, name)(arg.value))
        except (ValueError, OverflowError):
            pass
    return E._mk_unary(name, arg)


_REF_BINARY = {E.add: _ref_add, E.sub: _ref_sub, E.mul: _ref_mul, E.div: _ref_div,
               E.power: _ref_power}


def _ref_diff(f, i, memo):
    """d f / d x_i by the rules differentiate had, recursively, through the
    reference constructors; ``memo`` maps id(node) to its derivative."""
    if id(f) in memo:
        return memo[id(f)]
    if isinstance(f, (Const, E.Param)):
        d = E._ZERO
    elif isinstance(f, Coord):
        d = E._ONE if f.index == i else E._ZERO
    elif isinstance(f, Unary):
        u, du = f.arg, _ref_diff(f.arg, i, memo)
        d = {"neg": lambda: _ref_neg(du),
             "sin": lambda: _ref_mul(_ref_func("cos", u), du),
             "cos": lambda: _ref_neg(_ref_mul(_ref_func("sin", u), du)),
             "tan": lambda: _ref_div(du, _ref_power(_ref_func("cos", u), 2)),
             "exp": lambda: _ref_mul(f, du),
             "log": lambda: _ref_div(du, u),
             "sqrt": lambda: _ref_div(du, _ref_mul(2.0, f))}[f.op]()
    else:
        a, b = f.left, f.right
        da, db = _ref_diff(a, i, memo), _ref_diff(b, i, memo)
        if f.op == "add":
            d = _ref_add(da, db)
        elif f.op == "sub":
            d = _ref_sub(da, db)
        elif f.op == "mul":
            d = _ref_add(_ref_mul(da, b), _ref_mul(a, db))
        elif f.op == "div":
            d = _ref_div(_ref_sub(_ref_mul(da, b), _ref_mul(a, db)), _ref_power(b, 2))
        elif isinstance(b, Const) and float(b.value).is_integer():
            n = b.value
            d = _ref_mul(_ref_mul(n, _ref_power(a, n - 1.0)), da)
        else:
            d = _ref_mul(f, _ref_add(_ref_mul(db, _ref_func("log", a)),
                                     _ref_mul(b, _ref_div(da, a))))
    memo[id(f)] = d
    return d


_X = [E.coord(1), E.coord(2), E.param("a")]
_OPERANDS = (
    E.const(0.0), E.const(-0.0), E.const(1.0), E.const(-1.0), E.const(2.5),
    E.const(float("nan")), E.const(float("inf")), E.const(float("-inf")),
    0, 1, -1, 3, True, False, 0.0, -0.0, 1.0, -1.0, 2.5, float("nan"), float("inf"),
    np.float64(0.0), np.float64(-1.0), np.float64(2.5),
    *_X, E.sin(_X[0]), E.neg(_X[1]), E.mul(_X[0], _X[2]), E.add(_X[1], 2.0),
    E.power(_X[0], 3.0), E.neg(E.const(2.0)),
    np.int64(2), "x1",  # not coercible: both raise TypeError
)


def _result_or_error(fn, *args):
    try:
        return fn(*args), None
    except (TypeError, ValueError) as exc:
        return None, type(exc)


def _check_binary(ctor, a, b):
    got, got_err = _result_or_error(ctor, a, b)
    want, want_err = _result_or_error(_REF_BINARY[ctor], a, b)
    assert got_err == want_err
    assert want_err is not None or got is want, (ctor.__name__, a, b, got, want)


def _check_unary(name, a):
    got, got_err = _result_or_error(E.func, name, a)
    want, want_err = _result_or_error(_ref_func, name, a)
    assert got_err == want_err
    assert want_err is not None or got is want, (name, a, got, want)


def test_every_nan_constant_is_one_node():
    nan = float("nan")
    assert E.const(nan) is E.const(float("nan")) is E.const(-nan) is E.add(E.const(nan), 1.0)
    before = len(E._INTERN)
    for _ in range(1000):
        E.add(E.const(nan), 1.0)  # folds to a NaN constant
    assert len(E._INTERN) == before


_CTORS = sorted(_REF_BINARY, key=lambda f: f.__name__)
_NAMES = [*E.FUNCTIONS, "cosh"]  # and one unknown function


def test_constructors_build_the_reference_nodes_on_every_pair():
    for ctor in _CTORS:
        for a in _OPERANDS:
            for b in _OPERANDS:
                _check_binary(ctor, a, b)
    for name in _NAMES:
        for a in _OPERANDS:
            _check_unary(name, a)


_operand = st.one_of(st.sampled_from(_OPERANDS), st.floats(), st.floats().map(E.const),
                     st.integers(min_value=-3, max_value=3))


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(_CTORS), _operand, _operand)
def test_binary_constructors_build_the_reference_nodes(ctor, a, b):
    _check_binary(ctor, a, b)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_NAMES), _operand)
def test_unary_constructors_build_the_reference_nodes(name, a):
    _check_unary(name, a)


def _random_dag(rng: random.Random, size: int) -> E.Expr:
    """A DAG built through the constructors: each new node combines nodes
    made before it, so subterms are shared.  Constants stay moderate, so no
    fold makes a NaN (a fresh node each time)."""
    nodes = [*_X, E.coord(3), *map(E.const, (0.0, 1.0, -1.0, 2.0, 0.5, -3.0))]
    for _ in range(size):
        roll, a, b = rng.random(), rng.choice(nodes), rng.choice(nodes)
        if roll < 0.3:
            node = E.func(rng.choice(E.FUNCTIONS), a)
        elif roll < 0.4:
            node = E.power(a, rng.choice((2.0, 3.0, -1.0, 0.5, b)))
        else:
            node = rng.choice((E.add, E.sub, E.mul, E.div))(a, b)
        if type(node) is not Const or abs(node.value) < 1e3:
            nodes.append(node)
    return E.add(nodes[-1], nodes[-2])


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=40))
def test_differentiate_builds_the_reference_nodes(seed, size):
    f = _random_dag(random.Random(seed), size)
    for i in (3, 1, 2):
        assert differentiate(f, i) is _ref_diff(f, i, {})


def test_repr_of_an_expression():
    x1 = E.coord(1)
    assert repr(x1 + 1) == "<Expr 'x1 + 1'>"
    assert repr(E.absolute(x1)) == "<Expr 'abs(x1)'>"
    assert repr(E.maximum(E.absolute(x1), E.cabs(x1, E.param("a")))) == \
        "<Expr 'max(abs(x1), cabs(x1, a))'>"
    with pytest.raises(ValueError, match="evaluation-only"):
        unparse(E.maximum(x1, E.coord(2)))
    deep = x1
    for _ in range(60):  # a tree of 2^60 leaves, as a DAG of 61 nodes
        deep = deep * deep + x1
    text = repr(deep)
    assert len(text) < 300 and "…" in text


def test_repr_of_a_residual_root_is_short():
    from np3kit import catalog, suites
    spec = catalog.get_spec("flat_radial")
    root = residual(suites._bianchi(spec)["bianchi_xi_component"])
    start = time.process_time()
    text = repr(root)
    assert time.process_time() - start < 1.0
    assert len(text) < 300 and text.startswith("<Expr 'cabs(") and "…" in text
