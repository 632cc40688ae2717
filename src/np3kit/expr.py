r"""Symbolic scalar expressions in three coordinates plus named parameters.

This is a deliberately small expression language: enough to write frame
components such as ``exp(2*x3)`` or ``1/x3 + x3^2/2``, differentiate them
exactly, and evaluate them fast at many points.  There is no equation
solving and no trig rewriting; downstream correctness checks are numeric,
so aggressive simplification buys nothing.

Grammar accepted by :func:`parse` (binary operators with the usual
precedence, ``^`` binds tightest and associates right)::

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' factor | power
    power   := atom ('^' factor)?
    atom    := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'

``x1``, ``x2``, ``x3`` are the coordinates (documents may declare aliases);
``sin cos tan exp log sqrt`` are the known functions; any other bare
identifier is a parameter, bound at evaluation time.

Construction goes through the smart constructors (:func:`add`, :func:`mul`,
...), which fold constants and apply the 0/1 identities.  In particular a
symbolic zero annihilates products outright, even when the other factor is
singular somewhere; every downstream evaluation is restricted to a
manifold's domain, where both sides agree.

Exponents: an integer exponent differentiates by the power rule (the
collected form of differentiating the repeated product), a non-integer
exponent via ``a^b = exp(b*log(a))``.

Expressions are immutable, hashable and freely shared.  All construction
paths intern nodes (hash-consing), so structurally equal subterms are the
*same* object, and repeated differentiation produces compact DAGs.  The
intern and derivative tables only ever deduplicate work; under concurrent
use they may recompute, never corrupt.

Evaluation (:func:`eval_batch`) compiles the distinct nodes of the
requested expressions into a tape and runs it over the points in chunks of
``CHUNK`` points: each distinct subterm is computed once per call, and
memory holds the result columns plus one chunk of the values still live.
Work shared *across* calls is the caller's to declare: a request opens
``with shared(points, params, roots):``, the union of its roots is
evaluated once, and later calls on the same points array read those
columns.  Nothing is cached past the block.  A request over many points
streams with :func:`map_chunks`: its roots compile into one tape, and its
body runs once per ``CHUNK``-point slice inside a block over that slice,
so the root columns and every temporary built from them stay one chunk
long.  Peak memory is then set by ``CHUNK`` and the width of the DAG (the
values live at once), not by the number of points.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Expr", "Const", "Coord", "Param", "Unary", "Binary",
    "ParseError", "DomainError", "UnboundParameter",
    "add", "sub", "mul", "div", "power", "neg", "func",
    "sin", "cos", "tan", "exp", "log", "sqrt",
    "const", "coord", "param", "as_expr",
    "parse", "unparse", "differentiate", "evaluate", "evaluate_many",
    "eval_batch", "shared", "Shared", "map_chunks", "CHUNK", "simplify",
]

FUNCTIONS = ("neg", "sin", "cos", "tan", "exp", "log", "sqrt")
BINOPS = ("add", "sub", "mul", "div", "pow")


class DomainError(ArithmeticError):
    """Evaluation hit a singularity (division by zero, log<=0, sqrt<0, ...)."""


class UnboundParameter(KeyError):
    """Expression references a parameter that was not supplied."""


@dataclass(frozen=True)
class ParseError(Exception):
    offset: int
    message: str
    expected: str = ""

    def __str__(self):
        hint = f" (expected {self.expected})" if self.expected else ""
        return f"parse error at offset {self.offset}: {self.message}{hint}"


class Expr:
    """Base class for AST nodes. Use the smart constructors, not subclasses."""

    __slots__ = ()

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __pow__(self, other):
        return power(self, other)

    def __neg__(self):
        return neg(self)

    def __repr__(self):
        return f"<Expr {unparse(self)!r}>"


@dataclass(frozen=True, repr=False)
class Const(Expr):
    value: float


@dataclass(frozen=True, repr=False)
class Coord(Expr):
    index: int  # 1..3


@dataclass(frozen=True, repr=False)
class Param(Expr):
    name: str


@dataclass(frozen=True, repr=False)
class Unary(Expr):
    op: str
    arg: Expr


@dataclass(frozen=True, repr=False)
class Binary(Expr):
    op: str
    left: Expr
    right: Expr


# --------------------------------------------------------------------------
# interning: one object per distinct structure

_INTERN: dict = {}


def _mk_const(v: float) -> Const:
    key = ("C", v)
    node = _INTERN.get(key)
    if node is None:
        node = _INTERN[key] = Const(v)
    return node


def _mk_coord(i: int) -> Coord:
    key = ("X", i)
    node = _INTERN.get(key)
    if node is None:
        node = _INTERN[key] = Coord(i)
    return node


def _mk_param(name: str) -> Param:
    key = ("P", name)
    node = _INTERN.get(key)
    if node is None:
        node = _INTERN[key] = Param(name)
    return node


def _mk_unary(op: str, arg: Expr) -> Unary:
    key = (op, id(arg))
    node = _INTERN.get(key)
    if node is None:
        node = _INTERN[key] = Unary(op, arg)
    return node


def _mk_binary(op: str, left: Expr, right: Expr) -> Binary:
    key = (op, id(left), id(right))
    node = _INTERN.get(key)
    if node is None:
        node = _INTERN[key] = Binary(op, left, right)
    return node


_ZERO = _mk_const(0.0)
_ONE = _mk_const(1.0)


def const(v) -> Const:
    return _mk_const(float(v))


def coord(i: int) -> Coord:
    if i not in (1, 2, 3):
        raise ValueError(f"coordinate index must be 1..3, got {i}")
    return _mk_coord(i)


def param(name: str) -> Param:
    return _mk_param(name)


def as_expr(v) -> Expr:
    if isinstance(v, Expr):
        return v
    if isinstance(v, (int, float)):
        return _mk_const(float(v))
    raise TypeError(f"cannot coerce {type(v).__name__} to Expr")


def _is_const(e: Expr, v=None) -> bool:
    return isinstance(e, Const) and (v is None or e.value == v)


def add(a, b) -> Expr:
    a, b = as_expr(a), as_expr(b)
    if isinstance(a, Const) and isinstance(b, Const):
        return _mk_const(a.value + b.value)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return _mk_binary("add", a, b)


def sub(a, b) -> Expr:
    a, b = as_expr(a), as_expr(b)
    if isinstance(a, Const) and isinstance(b, Const):
        return _mk_const(a.value - b.value)
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return neg(b)
    return _mk_binary("sub", a, b)


def mul(a, b) -> Expr:
    a, b = as_expr(a), as_expr(b)
    if isinstance(a, Const) and isinstance(b, Const):
        return _mk_const(a.value * b.value)
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return _ZERO  # symbolic zero annihilates, by convention
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    if _is_const(a, -1.0):
        return neg(b)
    if _is_const(b, -1.0):
        return neg(a)
    return _mk_binary("mul", a, b)


def div(a, b) -> Expr:
    a, b = as_expr(a), as_expr(b)
    if isinstance(a, Const) and isinstance(b, Const) and b.value != 0.0:
        return _mk_const(a.value / b.value)
    if _is_const(a, 0.0):
        return _ZERO
    if _is_const(b, 1.0):
        return a
    return _mk_binary("div", a, b)


def power(a, b) -> Expr:
    a, b = as_expr(a), as_expr(b)
    if _is_const(b, 1.0):
        return a
    if _is_const(b, 0.0):
        return _ONE
    if isinstance(a, Const) and isinstance(b, Const):
        try:
            v = math.pow(a.value, b.value)
        except (ValueError, OverflowError):
            return _mk_binary("pow", a, b)
        return _mk_const(v)
    return _mk_binary("pow", a, b)


def neg(a) -> Expr:
    a = as_expr(a)
    if isinstance(a, Const):
        return _mk_const(-a.value)
    if isinstance(a, Unary) and a.op == "neg":
        return a.arg
    return _mk_unary("neg", a)


def func(name: str, arg) -> Expr:
    if name not in FUNCTIONS:
        raise ValueError(f"unknown function {name!r}")
    if name == "neg":
        return neg(arg)
    arg = as_expr(arg)
    if isinstance(arg, Const):
        try:
            return _mk_const(getattr(math, name)(arg.value))
        except (ValueError, OverflowError):
            pass  # e.g. log(-1) or exp(huge): keep symbolic
    return _mk_unary(name, arg)


def sin(a) -> Expr:
    return func("sin", a)


def cos(a) -> Expr:
    return func("cos", a)


def tan(a) -> Expr:
    return func("tan", a)


def exp(a) -> Expr:
    return func("exp", a)


def log(a) -> Expr:
    return func("log", a)


def sqrt(a) -> Expr:
    return func("sqrt", a)


# --------------------------------------------------------------------------
# differentiation

# derivative cache across calls: the geometry pipeline differentiates many
# expressions sharing the same subterms.  Keys pin their node so ids stay valid.
_DIFF_CACHE: dict = {}


def differentiate(f: Expr, coord_index: int) -> Expr:
    """Exact symbolic d f / d x_i for i in {1,2,3}.

    Iterative post-order walk: derived curvature expressions form deep DAGs
    and must not be limited by the interpreter recursion limit.
    """
    if coord_index not in (1, 2, 3):
        raise ValueError(f"coordinate index must be 1..3, got {coord_index}")
    cache = _DIFF_CACHE

    def lookup(e):
        hit = cache.get((id(e), coord_index))
        return hit[1] if hit is not None else None

    stack = [f]
    while stack:
        e = stack[-1]
        if lookup(e) is not None:
            stack.pop()
            continue
        pending = [k for k in _children(e) if lookup(k) is None]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        cache[(id(e), coord_index)] = (e, _diff_node(e, coord_index, lookup))
    return lookup(f)


def _children(e: Expr):
    if isinstance(e, Unary):
        return (e.arg,)
    if isinstance(e, Binary):
        return (e.left, e.right)
    return ()


def _diff_node(e: Expr, i: int, d) -> Expr:
    if isinstance(e, Const) or isinstance(e, Param):
        return _ZERO
    if isinstance(e, Coord):
        return _ONE if e.index == i else _ZERO
    if isinstance(e, Unary):
        u, du = e.arg, d(e.arg)
        if e.op == "neg":
            return neg(du)
        if e.op == "sin":
            return mul(cos(u), du)
        if e.op == "cos":
            return neg(mul(sin(u), du))
        if e.op == "tan":
            return div(du, power(cos(u), 2))
        if e.op == "exp":
            return mul(e, du)
        if e.op == "log":
            return div(du, u)
        if e.op == "sqrt":
            return div(du, mul(2.0, e))
        raise AssertionError(e.op)
    assert isinstance(e, Binary)
    a, b = e.left, e.right
    if e.op == "add":
        return add(d(a), d(b))
    if e.op == "sub":
        return sub(d(a), d(b))
    if e.op == "mul":
        return add(mul(d(a), b), mul(a, d(b)))
    if e.op == "div":
        return div(sub(mul(d(a), b), mul(a, d(b))), power(b, 2))
    if e.op == "pow":
        if isinstance(b, Const) and float(b.value).is_integer():
            n = b.value
            return mul(mul(n, power(a, n - 1.0)), d(a))
        # general exponent: a^b = exp(b log a)
        return mul(e, add(mul(d(b), log(a)), mul(b, div(d(a), a))))
    raise AssertionError(e.op)


# --------------------------------------------------------------------------
# evaluation

# points per pass over a tape, and per slice of a streamed request: at 2,048
# points flat_radial's 1,377 live tape values take 22 MB
CHUNK = 2048


def evaluate(f: Expr, point, params=None) -> float:
    """IEEE double value of f at a 3-point, with domain checking."""
    out = evaluate_many(f, np.asarray([point], dtype=float), params)
    return float(out[0])


def evaluate_many(f: Expr, points: np.ndarray, params=None) -> np.ndarray:
    """Vectorized evaluation at an (N,3) array of points.

    Raises DomainError if *any* point hits a singularity; residual sweeps
    are expected to sample inside the manifold's domain.
    """
    return eval_batch([f], points, params)[0]


def eval_batch(exprs, points, params=None) -> list[np.ndarray]:
    """Evaluate many expressions over the same points, sharing their subterms.

    The distinct nodes reachable from ``exprs`` are compiled into one tape,
    which runs over the points in chunks of ``CHUNK``: each distinct
    subterm is computed once, and memory holds the result columns plus one
    chunk of the values still live.  Inside a :func:`shared` block on the
    same points array and params, expressions the block holds are read
    from it instead of computed.  Nothing is kept after the call returns.
    """
    pts = _points(points)
    params = params or {}
    scope = _SCOPE.get()
    if scope is not None and (scope.points is not pts or scope.params != params):
        scope = None
    tape = _Tape(exprs, params, scope.table if scope is not None else {})
    if scope is not None and tape.computed:
        scope.missed.append(tape.computed)
    return tape.run(pts)


def _points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("points must have shape (N, 3)")
    return pts


class Shared:
    """The root columns of one :func:`shared` block.

    ``missed`` gets one entry per ``eval_batch`` call the block served that
    still had to compute nodes: the number of nodes it computed.
    """

    def __init__(self, points, params, table):
        self.points = points
        self.params = params
        self.table = table  # id(root) -> (root, column); the root pins its id
        self.missed: list[int] = []


# The innermost open shared() block of the running thread or task.  A
# context variable, not a plain global, so that worker threads can run
# inside their caller's block through contextvars.copy_context().run.
_SCOPE: contextvars.ContextVar = contextvars.ContextVar("np3kit_shared", default=None)


@contextlib.contextmanager
def shared(points, params, roots):
    """Evaluate ``roots`` once and serve them to ``eval_batch`` inside the block.

    The union of ``roots`` (expressions, or a tape :func:`map_chunks`
    compiled from them) runs as one tape and only the root columns are
    kept.  ``eval_batch`` calls in the block on the same points array (the
    same object) and equal params read those columns as leaves of their
    own tapes.  The columns are dropped when the block exits.  A block
    opened on the points and params of the enclosing block reuses it.  A
    prefetch that raises DomainError or UnboundParameter is discarded:
    every call then computes what it needs and raises where it would
    without the block.
    """
    pts = _points(points)
    params = params or {}
    outer = _SCOPE.get()
    if outer is not None and outer.points is pts and outer.params == params:
        yield outer
        return
    scope = Shared(pts, params, _prefetch(pts, params, roots))
    token = _SCOPE.set(scope)
    try:
        yield scope
    finally:
        _SCOPE.reset(token)


def _prefetch(pts, params, roots) -> dict:
    """id(root) -> (root, read-only column), or {} if evaluation raises.

    A function of its own so that the tape, which can be large, is freed
    before the block's body runs.
    """
    try:
        tape = roots if isinstance(roots, _Tape) else _Tape(roots, params, {})
        cols = tape.run(pts)
    except (DomainError, UnboundParameter):
        return {}
    for col in cols:
        col.flags.writeable = False  # one column goes to many callers
    return {id(f): (f, col) for f, col in zip(tape.roots, cols)}


def map_chunks(fn, points, params, roots) -> list:
    """``fn(part)`` for each ``CHUNK``-point slice of ``points``, each call
    inside a :func:`shared` block over ``roots`` on that slice.

    The roots are compiled into one tape, which every slice reuses, so the
    root columns and whatever ``fn`` builds from them never grow past one
    chunk.  Points that fit in one chunk are passed as they are, the same
    array object, so blocks already open on them are reused.  Returns the
    results in order.  If a slice raises DomainError or UnboundParameter,
    the whole request runs again as one block over all points, which
    raises (or not) exactly as an unchunked request would.
    """
    pts = _points(points)
    roots = list(roots)
    if len(pts) > CHUNK:
        try:
            tape = _Tape(roots, params or {}, {})
            out = []
            for lo in range(0, len(pts), CHUNK):
                part = pts[lo:lo + CHUNK]
                with shared(part, params, tape):
                    out.append(fn(part))
            return out
        except (DomainError, UnboundParameter):
            pass  # which error, and where, is decided over all points
    with shared(pts, params, roots):
        return [fn(pts)]


def _log(u):
    if np.any(u <= 0.0):
        raise DomainError("log of non-positive value")
    return np.log(u)


def _sqrt(u):
    if np.any(u < 0.0):
        raise DomainError("sqrt of negative value")
    return np.sqrt(u)


def _div(a, b):
    if np.any(b == 0.0):
        raise DomainError("division by zero")
    return np.true_divide(a, b)


def _pow(a, b):
    frac = b != np.floor(b)
    if np.any((a < 0.0) & frac):
        raise DomainError("negative base with non-integer exponent")
    if np.any((a == 0.0) & (b < 0.0)):
        raise DomainError("zero base with negative exponent")
    return np.power(a, b)


_UNARY = {"neg": np.negative, "sin": np.sin, "cos": np.cos, "tan": np.tan,
          "exp": np.exp, "log": _log, "sqrt": _sqrt}
_BINARY = {"add": np.add, "sub": np.subtract, "mul": np.multiply, "div": _div, "pow": _pow}


class _Tape:
    """The distinct nodes reachable from some roots, as a straight-line program.

    Nodes are numbered in a depth-first post-order walk (right operand
    first), the order their domain checks run in.  Each value gets a slot,
    and a slot is reused once its value has had its last use, so a pass
    holds only live values; roots stay live to the end of the pass.
    Constants and parameters are Python floats; coordinates and table hits
    are leaves, sliced per chunk.
    """

    def __init__(self, exprs, params, table):
        self.roots = roots = list(exprs)
        num: dict[int, int] = {}  # id(node) -> value number
        hits, consts, coords = [], [], []  # (value, column | float | index)
        code = []  # (routine, out, a, b) over values; b is None for unary nodes
        for f in roots:
            stack = [f]
            while stack:
                e = stack[-1]
                key = id(e)
                if key in num:
                    stack.pop()
                    continue
                v = len(num)
                hit = table.get(key) if table else None
                kind = type(e)
                if hit is not None:
                    hits.append((v, hit[1]))
                elif kind is Binary:
                    a, b = num.get(id(e.left)), num.get(id(e.right))
                    if a is None or b is None:
                        if a is None:
                            stack.append(e.left)
                        if b is None:
                            stack.append(e.right)
                        continue
                    code.append((_BINARY[e.op], v, a, b))
                elif kind is Unary:
                    a = num.get(id(e.arg))
                    if a is None:
                        stack.append(e.arg)
                        continue
                    code.append((_UNARY[e.op], v, a, None))
                elif kind is Const:
                    consts.append((v, float(e.value)))
                elif kind is Coord:
                    coords.append((v, e.index - 1))
                else:
                    try:
                        consts.append((v, float(params[e.name])))
                    except KeyError:
                        raise UnboundParameter(e.name) from None
                stack.pop()
                num[key] = v
        self.computed = len(num) - len(hits)

        last = {}
        for pos, (_, _, a, b) in enumerate(code):
            last[a] = last[b] = pos
        for f in roots:
            last[num[id(f)]] = len(code)
        slot, free, fresh = {}, [], itertools.count()
        for v, _ in consts + coords + hits:
            slot[v] = next(fresh)
        self.code = []
        for pos, (fn, out, a, b) in enumerate(code):
            sa, sb = slot[a], None if b is None else slot[b]
            if last[a] == pos:
                free.append(sa)
            if b is not None and b != a and last[b] == pos:
                free.append(sb)
            slot[out] = so = free.pop() if free else next(fresh)
            self.code.append((fn, so, sa, sb))

        self.template = [None] * next(fresh)
        for v, value in consts:
            self.template[slot[v]] = value
        self.coords = [(slot[v], k) for v, k in coords]
        self.hits = [(slot[v], col) for v, col in hits]
        # a root read from the table is returned as it is, the others by slot
        held = dict(hits)
        self.outputs = [held.get(v, slot[v]) for v in (num[id(f)] for f in roots)]

    def run(self, pts: np.ndarray, chunk: int = CHUNK) -> list[np.ndarray]:
        n = len(pts)
        xyz = pts.T.copy()  # contiguous coordinate columns
        leaves = [(s, xyz[k]) for s, k in self.coords] + self.hits
        cols = {s: np.empty(n) for s in self.outputs if isinstance(s, int)}
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                for lo in range(0, n, chunk):
                    hi = lo + chunk
                    vals = self.template.copy()
                    for s, src in leaves:
                        vals[s] = src[lo:hi]
                    for fn, out, a, b in self.code:
                        vals[out] = fn(vals[a]) if b is None else fn(vals[a], vals[b])
                    for s, col in cols.items():
                        col[lo:hi] = vals[s]
        except DomainError:
            if chunk < n:
                self.run(pts, n)  # one pass raises at the first failing node
            raise
        return [cols[s] if isinstance(s, int) else s for s in self.outputs]


# --------------------------------------------------------------------------
# simplification / traversal

def simplify(f: Expr) -> Expr:
    """Rebuild bottom-up through the smart constructors.

    Constant folding plus the 0/1 identities only: semantics are preserved
    at every point where both sides are defined.
    """
    memo: dict[int, Expr] = {}

    def s(e: Expr) -> Expr:
        key = id(e)
        hit = memo.get(key)
        if hit is not None:
            return hit
        if isinstance(e, Unary):
            r = func(e.op, s(e.arg)) if e.op != "neg" else neg(s(e.arg))
        elif isinstance(e, Binary):
            ctor = {"add": add, "sub": sub, "mul": mul, "div": div, "pow": power}[e.op]
            r = ctor(s(e.left), s(e.right))
        else:
            r = e
        memo[key] = r
        return r

    return s(f)


# --------------------------------------------------------------------------
# parser

_COORD_TOKENS = {"x1": 1, "x2": 2, "x3": 3}
_FUNC_TOKENS = {"sin", "cos", "tan", "exp", "log", "sqrt"}


class _Lexer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tok = None  # (kind, value, offset)
        self._advance()

    def _advance(self):
        t, i = self.text, self.pos
        while i < len(t) and t[i].isspace():
            i += 1
        if i >= len(t):
            self.tok = ("eof", "", i)
            self.pos = i
            return
        c = t[i]
        if c.isdigit() or (c == "." and i + 1 < len(t) and t[i + 1].isdigit()):
            j = i
            while j < len(t) and (t[j].isdigit() or t[j] == "."):
                j += 1
            if j < len(t) and t[j] in "eE":
                k = j + 1
                if k < len(t) and t[k] in "+-":
                    k += 1
                if k < len(t) and t[k].isdigit():
                    j = k
                    while j < len(t) and t[j].isdigit():
                        j += 1
            lit = t[i:j]
            try:
                v = float(lit)
            except ValueError:
                raise ParseError(i, f"bad number literal {lit!r}", "number") from None
            self.tok = ("number", v, i)
            self.pos = j
            return
        if c.isalpha() or c == "_":
            j = i
            while j < len(t) and (t[j].isalnum() or t[j] == "_"):
                j += 1
            self.tok = ("ident", t[i:j], i)
            self.pos = j
            return
        if c in "+-*/^()":
            self.tok = (c, c, i)
            self.pos = i + 1
            return
        raise ParseError(i, f"unexpected character {c!r}")


class _Parser:
    def __init__(self, text: str, coord_names):
        self.lex = _Lexer(text)
        self.coords = dict(_COORD_TOKENS)
        if coord_names:
            for idx, name in enumerate(coord_names, start=1):
                self.coords[name] = idx

    def _eat(self, kind):
        tok = self.lex.tok
        if tok[0] != kind:
            raise ParseError(tok[2], f"unexpected {tok[0]} {tok[1]!r}", kind)
        self.lex._advance()
        return tok

    def parse(self) -> Expr:
        e = self.expr()
        tok = self.lex.tok
        if tok[0] != "eof":
            raise ParseError(tok[2], f"trailing input {tok[1]!r}", "end of input")
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.lex.tok[0] in ("+", "-"):
            op = self.lex.tok[0]
            self.lex._advance()
            rhs = self.term()
            e = _mk_binary("add" if op == "+" else "sub", e, rhs)
        return e

    def term(self) -> Expr:
        e = self.factor()
        while self.lex.tok[0] in ("*", "/"):
            op = self.lex.tok[0]
            self.lex._advance()
            rhs = self.factor()
            e = _mk_binary("mul" if op == "*" else "div", e, rhs)
        return e

    def factor(self) -> Expr:
        if self.lex.tok[0] == "-":
            self.lex._advance()
            # fold '-NUMBER' (immediately adjacent literal) into a constant
            if self.lex.tok[0] == "number":
                v = self.lex.tok[1]
                self.lex._advance()
                if self.lex.tok[0] == "^":  # exponent binds tighter: -2^x = -(2^x)
                    self.lex._advance()
                    return _mk_unary("neg", _mk_binary("pow", _mk_const(v), self.factor()))
                return _mk_const(-v)
            return _mk_unary("neg", self.factor())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.lex.tok[0] == "^":
            self.lex._advance()
            expo = self.factor()
            return _mk_binary("pow", base, expo)
        return base

    def atom(self) -> Expr:
        kind, value, offset = self.lex.tok
        if kind == "number":
            self.lex._advance()
            return _mk_const(value)
        if kind == "(":
            self.lex._advance()
            e = self.expr()
            self._eat(")")
            return e
        if kind == "ident":
            self.lex._advance()
            if self.lex.tok[0] == "(":
                if value not in _FUNC_TOKENS:
                    raise ParseError(offset, f"unknown function {value!r}",
                                     "one of " + ",".join(sorted(_FUNC_TOKENS)))
                self.lex._advance()
                arg = self.expr()
                self._eat(")")
                return _mk_unary(value, arg)
            if value in _FUNC_TOKENS:
                raise ParseError(offset, f"function {value!r} used without arguments", "'('")
            if value in self.coords:
                return _mk_coord(self.coords[value])
            return _mk_param(value)
        raise ParseError(offset, f"unexpected {kind} {value!r}", "number, identifier or '('")


def parse(text: str, coord_names=None) -> Expr:
    """Parse an expression string; raises ParseError with a byte offset."""
    if not text or not text.strip():
        raise ParseError(0, "empty input", "expression")
    return _Parser(text, coord_names).parse()


# --------------------------------------------------------------------------
# unparser

_PREC = {"add": 1, "sub": 1, "mul": 2, "div": 2, "neg": 3, "pow": 4}
_SYM = {"add": "+", "sub": "-", "mul": "*", "div": "/", "pow": "^"}


def _fmt_const(v: float) -> str:
    if float(v).is_integer() and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def unparse(e: Expr) -> str:
    """Render back to the grammar; parse(unparse(e)) is structurally e."""
    s, _ = _unparse(e)
    return s


def _unparse(e: Expr):
    """Returns (text, precedence-of-root)."""
    if isinstance(e, Const):
        return _fmt_const(e.value), (3 if e.value < 0 else 5)
    if isinstance(e, Coord):
        return f"x{e.index}", 5
    if isinstance(e, Param):
        return e.name, 5
    if isinstance(e, Unary):
        if e.op == "neg":
            s, p = _unparse(e.arg)
            # parens keep an explicit neg node distinct from a negative literal
            if p < _PREC["neg"] or isinstance(e.arg, Const):
                s = f"({s})"
            return f"-{s}", _PREC["neg"]
        s, _ = _unparse(e.arg)
        return f"{e.op}({s})", 5
    assert isinstance(e, Binary)
    p = _PREC[e.op]
    ls, lp = _unparse(e.left)
    rs, rp = _unparse(e.right)
    if e.op == "pow":
        # right-associative; left operand must be an atom-level item
        if lp < 5:
            ls = f"({ls})"
        if rp < _PREC["pow"] and rp != 3:  # unary minus is fine on the right
            rs = f"({rs})"
    else:
        if lp < p:
            ls = f"({ls})"
        # left-associative: a right child of equal precedence needs parens to
        # survive the round trip structurally (x1*(x2/x3) vs x1*x2/x3)
        if rp <= p:
            rs = f"({rs})"
    return f"{ls} {_SYM[e.op]} {rs}" if e.op in ("add", "sub") else f"{ls}{_SYM[e.op]}{rs}", p
