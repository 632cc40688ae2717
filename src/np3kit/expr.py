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

Three more ops exist for evaluation only, to take a check's residual on
the tape: :func:`absolute` (``abs``), :func:`maximum` (``max``, pointwise
and NaN-propagating) and :func:`cabs` (the modulus of ``re + i im``,
computed as numpy's complex ``abs``).  They have no derivative and no text
form.

Exponents: an integer exponent differentiates by the power rule (the
collected form of differentiating the repeated product), a non-integer
exponent via ``a^b = exp(b*log(a))``.

Expressions are immutable, hashable and freely shared.  All construction
paths intern nodes (hash-consing), so structurally equal subterms are the
*same* object, and repeated differentiation produces compact DAGs.  The
constructors dispatch on the exact type of each operand: only this module
makes nodes, and a number is coerced once.  :func:`differentiate` keeps
one row per node, the node and its derivatives by x1, x2 and x3 as each
is first asked for, so the three derivatives of a subterm share one entry.
The intern and derivative tables are module-global and never freed; they
only ever deduplicate work, and under concurrent use they may recompute,
never corrupt.

Evaluation has one driver, :func:`sweep`.  It compiles the distinct nodes
of the requested expressions into a tape for passes of ``min(CHUNK, N)``
points and hands the tape to a reduction.  Each tape slot owns one buffer
of that width, allocated once per tape, and each op is bound at compile
time to the buffers it reads and writes, so a pass copies in the coordinate
columns and calls numpy with ``out=``.  Passes step by the width, and the
last one ends at the last point, overlapping the pass before it, so every
pass runs the same bound program.  A reduction reads each pass's new points
off the root buffers: :func:`eval_batch` writes them into result columns,
``cexpr.fold`` keeps one max or sum per root.  A tape of one pass runs its
ops in the canonical order (the roots in order, each node after its
operands, the right one first).  A tape of more passes runs them in an
order that keeps fewer values live, so it needs fewer slots.  A domain
fault (a log of 0, say) is data: the op writes its values, the pass runs
on and masks the failing samples, which is how ``sampling.in_domain``
filters points, and after the last pass the fault at the earliest op in
the canonical order, and its first sample, is raised.  A request declares
everything it evaluates up front, as one tree of forms
(``cexpr.eval_forms``), so work shared across its checks is shared inside
one tape.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Expr", "Const", "Coord", "Param", "Unary", "Binary",
    "ParseError", "DomainError", "UnboundParameter",
    "add", "sub", "mul", "div", "power", "neg", "func",
    "sin", "cos", "tan", "exp", "log", "sqrt",
    "absolute", "maximum", "cabs",
    "const", "coord", "param", "as_expr",
    "parse", "unparse", "differentiate", "evaluate", "evaluate_many",
    "eval_batch", "sweep", "CHUNK", "simplify",
]

FUNCTIONS = ("neg", "sin", "cos", "tan", "exp", "log", "sqrt")
BINOPS = ("add", "sub", "mul", "div", "pow")


class DomainError(ArithmeticError):
    """Evaluation hit a singularity (division by zero, log<=0, sqrt<0, ...).

    ``index`` is the first failing sample among all the points evaluated,
    and ``point`` its coordinates.  A pass of :func:`sweep` records its
    failures and runs on; after the last pass the error, and the sample,
    that one unchunked pass in the canonical order names is raised.
    """

    index: int | None = None
    point: tuple | None = None


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


# ``repr`` renders at most this many nodes of an expression and at most
# this many characters of text; the rest is ``…``
REPR_NODES, REPR_CHARS = 40, 160


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
        text = _unparse(self, [REPR_NODES])[0]
        if len(text) > REPR_CHARS:
            text = text[:REPR_CHARS - 1] + "…"
        return f"<Expr {text!r}>"


@dataclass(frozen=True, repr=False, slots=True)
class Const(Expr):
    value: float


@dataclass(frozen=True, repr=False, slots=True)
class Coord(Expr):
    index: int  # 1..3


@dataclass(frozen=True, repr=False, slots=True)
class Param(Expr):
    name: str


@dataclass(frozen=True, repr=False, slots=True)
class Unary(Expr):
    op: str
    arg: Expr


@dataclass(frozen=True, repr=False, slots=True)
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
        if v != v:  # a NaN equals no NaN, not even itself: all are one node
            key = ("C", "nan")
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
_TWO = _mk_const(2.0)


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


# The constructors below are the inner loop of every symbolic build, so each
# tests ``type(x)`` once per operand and interns inline.  Only this module
# makes nodes, and only of these five types, so a value of any other type
# is a number (or an error) for :func:`as_expr`.
_NODE_TYPES = frozenset((Const, Coord, Param, Unary, Binary))


def add(a, b) -> Expr:
    ta, tb = type(a), type(b)
    if ta not in _NODE_TYPES or tb not in _NODE_TYPES:
        a, b = as_expr(a), as_expr(b)
        ta, tb = type(a), type(b)
    if ta is Const:
        if tb is Const:
            return _mk_const(a.value + b.value)
        if a.value == 0.0:
            return b
    elif tb is Const and b.value == 0.0:
        return a
    key = ("add", id(a), id(b))
    node = _INTERN.get(key)
    if node is None:
        node = _INTERN[key] = Binary("add", a, b)
    return node


def sub(a, b) -> Expr:
    ta, tb = type(a), type(b)
    if ta not in _NODE_TYPES or tb not in _NODE_TYPES:
        a, b = as_expr(a), as_expr(b)
        ta, tb = type(a), type(b)
    if tb is Const:
        if ta is Const:
            return _mk_const(a.value - b.value)
        if b.value == 0.0:
            return a
    elif ta is Const and a.value == 0.0:
        return neg(b)
    key = ("sub", id(a), id(b))
    node = _INTERN.get(key)
    if node is None:
        node = _INTERN[key] = Binary("sub", a, b)
    return node


def mul(a, b) -> Expr:
    ta, tb = type(a), type(b)
    if ta not in _NODE_TYPES or tb not in _NODE_TYPES:
        a, b = as_expr(a), as_expr(b)
        ta, tb = type(a), type(b)
    if ta is Const:
        if tb is Const:
            return _mk_const(a.value * b.value)
        v = a.value
        if v == 0.0:
            return _ZERO  # symbolic zero annihilates, by convention
        if v == 1.0:
            return b
        if v == -1.0:
            return neg(b)
    elif tb is Const:
        v = b.value
        if v == 0.0:
            return _ZERO
        if v == 1.0:
            return a
        if v == -1.0:
            return neg(a)
    key = ("mul", id(a), id(b))
    node = _INTERN.get(key)
    if node is None:
        node = _INTERN[key] = Binary("mul", a, b)
    return node


def div(a, b) -> Expr:
    ta, tb = type(a), type(b)
    if ta not in _NODE_TYPES or tb not in _NODE_TYPES:
        a, b = as_expr(a), as_expr(b)
        ta, tb = type(a), type(b)
    if ta is Const:
        if tb is Const and b.value != 0.0:
            return _mk_const(a.value / b.value)
        if a.value == 0.0:
            return _ZERO
    if tb is Const and b.value == 1.0:
        return a
    key = ("div", id(a), id(b))
    node = _INTERN.get(key)
    if node is None:
        node = _INTERN[key] = Binary("div", a, b)
    return node


def power(a, b) -> Expr:
    ta, tb = type(a), type(b)
    if ta not in _NODE_TYPES or tb not in _NODE_TYPES:
        a, b = as_expr(a), as_expr(b)
        ta, tb = type(a), type(b)
    if tb is Const:
        v = b.value
        if v == 1.0:
            return a
        if v == 0.0:
            return _ONE
        if ta is Const:
            try:
                return _mk_const(math.pow(a.value, v))
            except (ValueError, OverflowError):
                pass  # e.g. (-1)^0.5: keep symbolic
    key = ("pow", id(a), id(b))
    node = _INTERN.get(key)
    if node is None:
        node = _INTERN[key] = Binary("pow", a, b)
    return node


def neg(a) -> Expr:
    if type(a) not in _NODE_TYPES:
        a = as_expr(a)
    ta = type(a)
    if ta is Const:
        return _mk_const(-a.value)
    if ta is Unary and a.op == "neg":
        return a.arg
    key = ("neg", id(a))
    node = _INTERN.get(key)
    if node is None:
        node = _INTERN[key] = Unary("neg", a)
    return node


def func(name: str, arg) -> Expr:
    if name not in FUNCTIONS:
        raise ValueError(f"unknown function {name!r}")
    if name == "neg":
        return neg(arg)
    if type(arg) not in _NODE_TYPES:
        arg = as_expr(arg)
    if type(arg) is Const:
        try:
            return _mk_const(getattr(math, name)(arg.value))
        except (ValueError, OverflowError):
            pass  # e.g. log(-1) or exp(huge): keep symbolic
    key = (name, id(arg))
    node = _INTERN.get(key)
    if node is None:
        node = _INTERN[key] = Unary(name, arg)
    return node


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


# evaluation-only ops: a residual's modulus and its pointwise max.  These
# nodes belong to one request's residual roots, so they are not interned:
# they are freed with the roots.

EVAL_ONLY = ("abs", "max", "cabs")


def absolute(a) -> Expr:
    a = as_expr(a)
    if isinstance(a, Const):
        return _mk_const(abs(a.value))
    return Unary("abs", a)


def maximum(a, b) -> Expr:
    a, b = as_expr(a), as_expr(b)
    if isinstance(a, Const) and isinstance(b, Const):
        return _mk_const(float(np.maximum(a.value, b.value)))
    return Binary("max", a, b)


def cabs(re, im) -> Expr:
    """|re + i im|, bitwise as numpy's complex ``abs`` of the evaluated parts."""
    re, im = as_expr(re), as_expr(im)
    if _is_const(im, 0.0):
        return absolute(re)
    if _is_const(re, 0.0):
        return absolute(im)
    if isinstance(re, Const) and isinstance(im, Const):
        return _mk_const(float(_cabs(np.array([re.value]), im.value)[0]))
    return Binary("cabs", re, im)


# --------------------------------------------------------------------------
# differentiation

# derivatives across calls, one row per node: ``_DIFF_CACHE[id(node)] =
# [node, d/dx1, d/dx2, d/dx3]``, a coordinate's entry None until it is
# asked for.  The geometry pipeline differentiates many expressions sharing
# the same subterms, often by all three coordinates; the row pins its node,
# so the id key stays valid.  Like ``_INTERN`` it is never freed.
_DIFF_CACHE: dict = {}


def differentiate(f: Expr, coord_index: int) -> Expr:
    """Exact symbolic d f / d x_i for i in {1,2,3}.

    Iterative post-order walk: derived curvature expressions form deep DAGs
    and must not be limited by the interpreter recursion limit.
    """
    if coord_index not in (1, 2, 3):
        raise ValueError(f"coordinate index must be 1..3, got {coord_index}")
    i, cache = coord_index, _DIFF_CACHE
    row = cache.get(id(f))
    if row is not None and row[i] is not None:
        return row[i]
    stack = [f]
    while stack:
        e = stack[-1]
        row = cache.get(id(e))
        if row is None:  # a row, once made, is never replaced
            row = cache.setdefault(id(e), [e, None, None, None])
        elif row[i] is not None:
            stack.pop()
            continue
        kind = type(e)
        if kind is Binary:
            ra, rb = cache.get(id(e.left)), cache.get(id(e.right))
            da, db = ra and ra[i], rb and rb[i]
            if da is None or db is None:  # the right operand first
                if da is None:
                    stack.append(e.left)
                if db is None:
                    stack.append(e.right)
                continue
            row[i] = _diff_binary(e, da, db)
        elif kind is Unary:
            ra = cache.get(id(e.arg))
            du = ra and ra[i]
            if du is None:
                stack.append(e.arg)
                continue
            row[i] = _diff_unary(e, du)
        elif kind is Coord:
            row[i] = _ONE if e.index == i else _ZERO
        else:  # a constant or a parameter
            row[i] = _ZERO
        stack.pop()
    return cache[id(f)][i]


def _diff_unary(e: Unary, du: Expr) -> Expr:
    op, u = e.op, e.arg
    if op == "neg":
        return neg(du)
    if op == "sin":
        return mul(cos(u), du)
    if op == "cos":
        return neg(mul(sin(u), du))
    if op == "tan":
        return div(du, power(cos(u), _TWO))
    if op == "exp":
        return mul(e, du)
    if op == "log":
        return div(du, u)
    if op == "sqrt":
        return div(du, mul(_TWO, e))
    raise ValueError(f"{op!r} is an evaluation-only op and has no derivative")


def _diff_binary(e: Binary, da: Expr, db: Expr) -> Expr:
    op, a, b = e.op, e.left, e.right
    if op == "mul":
        return add(mul(da, b), mul(a, db))
    if op == "add":
        return add(da, db)
    if op == "sub":
        return sub(da, db)
    if op == "div":
        return div(sub(mul(da, b), mul(a, db)), power(b, _TWO))
    if op == "pow":
        if type(b) is Const and float(b.value).is_integer():
            n = b.value
            return mul(mul(n, power(a, n - 1.0)), da)
        # general exponent: a^b = exp(b log a)
        return mul(e, add(mul(db, log(a)), mul(b, div(da, a))))
    raise ValueError(f"{op!r} is an evaluation-only op and has no derivative")


# --------------------------------------------------------------------------
# evaluation

# points per pass over a tape, and per slice of a streamed request: at 2,048
# points the 1,019 slots of flat_radial's scheduled verify tape take 16.7 MB
# (its canonical order needs 1,499 slots, 24.6 MB)
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

    One :func:`sweep` that writes each pass's new points into the root
    columns: each distinct subterm is computed once, memory holds the
    columns plus one pass of tape slots, and a repeated root is one column.
    """
    def columns(tape, pts):
        cols = {id(buf): (buf, np.empty(len(pts))) for buf in tape.outputs}
        for lo, new, _ in tape.passes(pts):
            for buf, col in cols.values():
                col[lo:lo + tape.width - new] = buf[new:]
        return [cols[id(buf)][1] for buf in tape.outputs]

    return sweep(exprs, points, params, columns)


def sweep(exprs, points, params, reduce):
    """``reduce(tape, pts)`` over one tape of the distinct nodes reachable
    from ``exprs``, compiled for passes of ``min(CHUNK, N)`` points (see
    :meth:`_Tape.passes`)."""
    pts, roots, params = np.asarray(points, dtype=float), list(exprs), params or {}
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("points must have shape (N, 3)")
    n = len(pts)
    width = min(CHUNK, n)
    # only a tape of several passes is scheduled for fewer slots: scheduling
    # every tape cost 0.022 CPU s more of compile per ``catalog.run_all``
    return reduce(_Tape(roots, params, width, scheduled=n > width), pts)


def _check(result, *checks):
    """``result`` unless one of ``checks``, (mask, message) pairs in the
    order an op tests them, holds somewhere.  Then DomainError(message)
    names the first such sample (``index``) and the check's ``rank``, and
    ``bad`` masks every failing sample.  An op takes its masks before it
    writes, since its output may be an operand's buffer."""
    for rank, (mask, message) in enumerate(checks):
        if mask.any():
            exc = DomainError(message)
            exc.index, exc.rank = int(np.argmax(mask)), rank
            exc.bad = np.logical_or.reduce([m for m, _ in checks])
            raise exc
    return result


# the masks come from ufuncs, so an op on constants alone has one too
def _log(u, out=None):
    bad = np.less_equal(u, 0.0)
    return _check(np.log(u, out=out), (bad, "log of non-positive value"))


def _sqrt(u, out=None):
    bad = np.less(u, 0.0)
    return _check(np.sqrt(u, out=out), (bad, "sqrt of negative value"))


def _div(a, b, out=None):
    bad = np.equal(b, 0.0)
    return _check(np.true_divide(a, b, out=out), (bad, "division by zero"))


def _pow(a, b, out=None):
    negative = np.less(a, 0.0) & np.not_equal(b, np.floor(b))
    zero = np.equal(a, 0.0) & np.less(b, 0.0)
    return _check(np.power(a, b, out=out), (negative, "negative base with non-integer exponent"),
                  (zero, "zero base with negative exponent"))


def _cabs(re, im, out=None):
    return np.abs(re + 1j * im, out=out)


_UNARY = {"neg": np.negative, "sin": np.sin, "cos": np.cos, "tan": np.tan,
          "exp": np.exp, "log": _log, "sqrt": _sqrt, "abs": np.abs}
_BINARY = {"add": np.add, "sub": np.subtract, "mul": np.multiply, "div": _div, "pow": _pow,
           "max": np.maximum, "cabs": _cabs}


class _Tape:
    """The distinct nodes reachable from some roots, as a straight-line program
    that runs in place, ``width`` points a pass.

    Nodes are numbered in a depth-first post-order walk (right operand
    first), the canonical order.  The ops run in that order unless the tape
    is ``scheduled``: then :func:`_schedule` reorders them to keep fewer
    values live.  Each value other than a constant gets a
    slot, and a slot is reused once its value has had its last use, so the
    slots (``slots`` of them) hold only live values; roots stay live to the
    end of the pass.  Every slot owns one buffer of ``width`` points,
    allocated once.  Each op is bound at compile time to what it reads, a
    constant's float or an operand slot's buffer, and to the buffer it
    writes, so a pass copies the coordinate columns into their buffers and
    calls each routine with ``out=``, allocating nothing per op.  A root
    that is a constant gets a buffer filled once.
    """

    def __init__(self, exprs, params, width: int, scheduled: bool = False):
        roots = list(exprs)
        num: dict[int, int] = {}  # id(node) -> value number
        leaves, coords = {}, []  # value -> float; (value, column)
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
                kind = type(e)
                if kind is Binary:
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
                    leaves[v] = float(e.value)
                elif kind is Coord:
                    coords.append((v, e.index - 1))
                else:
                    try:
                        leaves[v] = float(params[e.name])
                    except KeyError:
                        raise UnboundParameter(e.name) from None
                stack.pop()
                num[key] = v
        outputs = [num[id(f)] for f in roots]
        if scheduled:
            code = _schedule(code, len(num), [v for v, _ in coords], outputs)
        del num
        # the ops' value numbers, which rise along the canonical order
        self.number = np.array([v for _, v, _, _ in code], dtype=np.int64)

        last = {}
        for pos, (_, _, a, b) in enumerate(code):
            last[a] = last[b] = pos
        for v in outputs:
            last[v] = len(code)
        fresh, free = itertools.count(), []
        held = dict(leaves)  # value -> what its readers get: a float or a slot number
        for v, _ in coords:
            held[v] = next(fresh)
        pinned = {v: next(fresh) for v in dict.fromkeys(outputs) if v in leaves}  # constant roots
        for pos, (fn, out, a, b) in enumerate(code):
            ra, rb = held[a], held.get(b)
            if type(ra) is int and last[a] == pos:
                free.append(ra)
            if type(rb) is int and b != a and last[b] == pos:
                free.append(rb)
            held[out] = so = free.pop() if free else next(fresh)
            code[pos] = (fn, so, ra, rb)
        outputs = [pinned[v] if v in pinned else held[v] for v in outputs]
        fills = [(s, leaves[v]) for v, s in pinned.items()]
        coords = [(held[v], k) for v, k in coords]
        size = next(fresh)
        del held, pinned, last, leaves

        # all buffers in one burst after the compile tables are freed, and the
        # code rebound in place: where the buffers land in the heap decides
        # how much freed heap glibc keeps after a request (its RSS growth);
        # one (slots, width) block, or buffers made during the walk, kept more
        bufs = [np.empty(width) for _ in range(size)]
        for s, value in fills:
            bufs[s].fill(value)
        for pos, (fn, so, ra, rb) in enumerate(code):
            code[pos] = (fn, bufs[so], bufs[ra] if type(ra) is int else ra,
                         bufs[rb] if type(rb) is int else rb)
        self.code, self.width, self.slots = code, width, size
        self.coords = [(bufs[s], k) for s, k in coords]
        self.outputs = [bufs[s] for s in outputs]

    def passes(self, pts: np.ndarray):
        """Run over ``pts`` (no points, or at least ``width``) one pass at a
        time, yielding ``(lo, new, bad)`` after each: the pass read the
        ``width`` points from ``lo - new`` on, those from ``lo`` on are its
        own, and ``bad`` masks the points read where a checked op failed.
        Passes step by ``width``, and the last one ends at the last point,
        overlapping the pass before it.  The root buffers (``outputs``) hold
        a pass's values until the next pass.

        A failed check does not stop the pass: its op has written its values
        (a NaN or an infinity) before it raised, and the ops after it run on.
        After the last pass the failure that one canonical pass over all of
        ``pts`` names is raised, with its sample's index in ``pts`` and its
        point: the one at the earliest op in the canonical order, then at its
        earlier check (``_pow`` tests a negative base first), then at the
        earliest sample.
        """
        n, width, code = len(pts), self.width, self.code
        first = None  # the error to raise
        for lo in range(0, n, width or 1):
            start = min(lo, n - width)
            for buf, k in self.coords:
                buf[:] = pts[start:start + width, k]
            bad = np.zeros(width, dtype=bool)
            ops = iter(code)
            with np.errstate(all="ignore"):
                while True:
                    try:
                        for fn, out, a, b in ops:
                            if b is None:
                                fn(a, out=out)
                            else:
                                fn(a, b, out=out)
                        break
                    except DomainError as exc:  # resume after the op that raised
                        bad |= exc.bad
                        exc.index += start
                        op = self.number[len(code) - operator.length_hint(ops) - 1]
                        exc.key = (op, exc.rank, exc.index)
                        if first is None or exc.key < first.key:
                            first = exc
            yield lo, lo - start, bad
        if first is not None:
            first.point = tuple(pts[first.index].tolist())
            raise first


def _schedule(code, count: int, coords, outputs) -> list:
    """``code``, ops over ``count`` values in the canonical order, reordered
    so that fewer values are live at once (Sethi & Ullman, *J. ACM* 17(4),
    1970).

    Each value gets the number of slots its evaluation needs: a coordinate
    (one of ``coords``) 1, a constant or parameter 0, a unary op as many as
    its operand but at least 1, a binary op one more than its operands when
    their numbers tie and the larger number otherwise.  The walk visits the
    distinct ``outputs`` from the largest number down (a tie keeps their
    order) and, at a binary op whose operands are both pending, the operand
    with the larger number first (on a tie the right one, as canonically).
    """
    need = [0] * count
    for v in coords:
        need[v] = 1
    for _, v, a, b in code:
        if b is None:
            need[v] = need[a] or 1
        else:
            na, nb = need[a], need[b]
            need[v] = na + 1 if na == nb else na if na > nb else nb
    pending = {op[1]: op for op in code}  # value -> its op, until the op is placed
    order = []
    for root in sorted(dict.fromkeys(outputs), key=need.__getitem__, reverse=True):
        stack = [root]
        while stack:
            v = stack.pop()
            if v < 0:  # its operands are placed
                order.append(pending.pop(~v))
                continue
            op = pending.get(v)
            if op is None:  # a leaf, or placed already
                continue
            stack.append(~v)
            _, _, a, b = op  # the operand pushed last is visited first
            if b is None:
                stack.append(a)
            elif need[a] > need[b]:
                stack += b, a
            else:
                stack += a, b
    return order


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


def _unparse(e: Expr, budget: list | None = None):
    """Returns (text, precedence-of-root).

    With a ``budget`` (a one-item list: the nodes left to render), renders
    the evaluation-only ops as calls and each subterm past the budget as
    ``…``, so the text is short however large the DAG; that is ``repr``'s.
    """
    if budget is not None:
        if budget[0] <= 0:
            return "…", 5
        budget[0] -= 1
        if isinstance(e, (Unary, Binary)) and e.op in EVAL_ONLY:
            args = (e.arg,) if isinstance(e, Unary) else (e.left, e.right)
            return f"{e.op}({', '.join(_unparse(k, budget)[0] for k in args)})", 5
    elif isinstance(e, (Unary, Binary)) and e.op in EVAL_ONLY:
        raise ValueError(f"{e.op!r} is an evaluation-only op and has no text form")
    if isinstance(e, Const):
        return _fmt_const(e.value), (3 if e.value < 0 else 5)
    if isinstance(e, Coord):
        return f"x{e.index}", 5
    if isinstance(e, Param):
        return e.name, 5
    if isinstance(e, Unary):
        if e.op == "neg":
            s, p = _unparse(e.arg, budget)
            # parens keep an explicit neg node distinct from a negative literal
            if p < _PREC["neg"] or isinstance(e.arg, Const):
                s = f"({s})"
            return f"-{s}", _PREC["neg"]
        s, _ = _unparse(e.arg, budget)
        return f"{e.op}({s})", 5
    assert isinstance(e, Binary)
    p = _PREC[e.op]
    ls, lp = _unparse(e.left, budget)
    rs, rp = _unparse(e.right, budget)
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
