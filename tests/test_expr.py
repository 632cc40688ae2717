import math
import os
import pathlib
import random
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from np3kit import expr as E
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


def test_constant_exponents_and_divisors():
    pts = np.array([[-2.0, 0.5, 4.0], [3.0, 2.0, 0.25]])
    np.testing.assert_array_equal(evaluate_many(parse("x1^3"), pts), [-8.0, 27.0])
    np.testing.assert_array_equal(evaluate_many(parse("x3^0.5"), pts), [2.0, 0.5])
    np.testing.assert_array_equal(evaluate_many(parse("x2^-1"), pts), [2.0, 0.5])
    np.testing.assert_array_equal(evaluate_many(parse("x1/4"), pts), [-0.5, 0.75])


def test_shared_block_serves_its_roots():
    f, g = parse("exp(x1)*sin(x2)"), parse("x3^2 + 1")
    h = parse("exp(x1)*sin(x2)/(x3^2 + 1)")  # interned: contains f and g
    pts = np.random.default_rng(0).uniform(-1, 1, size=(E.CHUNK + 7, 3))
    (plain,) = E.eval_batch([h], pts)
    with E.shared(pts, None, [f, g]) as scope:
        (served,) = E.eval_batch([h], pts)
        assert scope.missed == [1]  # only the division was computed
        assert evaluate_many(f, pts) is scope.table[id(f)][1]
        assert scope.missed == [1]
        E.eval_batch([h], pts.copy())  # another array: not served, not counted
        E.eval_batch([h], pts, {"a": 1.0})  # other params: likewise
        assert scope.missed == [1]
        with E.shared(pts, {}, [h]) as inner:
            assert inner is scope
    np.testing.assert_array_equal(served, plain)
    with pytest.raises(ValueError):
        scope.table[id(f)][1][0] = 0.0  # columns are read-only


def test_shared_block_discards_a_failing_prefetch():
    pts = np.ones((10, 3))
    pts[3, 0] = 0.0
    with E.shared(pts, None, [parse("x2/x1"), parse("x2 + x3")]) as scope:
        assert scope.table == {}
        with pytest.raises(DomainError, match="division by zero"):
            evaluate_many(parse("x2/x1"), pts)
        np.testing.assert_array_equal(evaluate_many(parse("x2 + x3"), pts), 2.0)
    with E.shared(pts, None, [parse("a*x1")]) as scope:
        assert scope.table == {}
        with pytest.raises(UnboundParameter):
            evaluate_many(parse("a*x1"), pts)


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
