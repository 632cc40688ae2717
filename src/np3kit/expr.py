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
...), which fold constants and apply the 0/1 identities; :func:`parse`
builds through them too.  In particular a symbolic zero annihilates
products outright, even when the other factor is singular somewhere; every
downstream evaluation is restricted to a manifold's domain, where both
sides agree.  By the same convention three exact cancellations of one node
``a`` fold: ``a - a`` and ``a + (-a)`` to 0 and ``a/a`` to 1.  They drop
the domain checks inside ``a``, and they read 0 (or 1) even where ``a``
evaluates to ±inf or NaN.

Three more ops exist for evaluation only, to take a check's residual on
the tape: :func:`absolute` (``abs``), :func:`maximum` (``max``, pointwise
and NaN-propagating) and :func:`cabs` (the modulus of ``re + i im``,
computed as numpy's complex ``abs``).  They have no derivative and no text
form.

Exponents: an integer exponent differentiates by the power rule (the
collected form of differentiating the repeated product), a non-integer
exponent via ``a^b = exp(b*log(a))``.  A quotient ``e = a/b``
differentiates as ``(a' - e*b')/b``, the reverse-mode rule of Griewank &
Walther (*Evaluating Derivatives*, 2nd ed., SIAM 2008): three nodes that
reuse ``e``, where ``(a'b - ab')/b^2`` takes five and squares ``b``, which
can underflow to a false division by zero.

Expressions are immutable and freely shared.  The constructors intern
every node they make (hash-consing), so structurally equal subterms are
the *same* object: a node is its own identity, and ``==`` and ``hash`` are
``object``'s, O(1) however large the DAG.  The intern table is keyed by
the op and its operand nodes themselves, not their ids, so a key holds its
operands and can never name a recycled id.  The constructors dispatch on
the exact type of each operand: only this module makes nodes, and a number
is coerced once.  A node carries its own derivatives: :func:`differentiate`
builds its row whole, its derivatives by x1, x2 and x3 in one visit, so a
DAG is walked once for all three, and repeated differentiation produces
compact DAGs.  The intern table is module-global and never freed, and a
row lives as long as its node; both only ever deduplicate work, and under
concurrent use they may recompute, never corrupt.

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
operands, the right one first).  A tape of more passes pulls each value's
derivatives right after it, which keeps fewer values live, so it needs
fewer slots.  A domain fault (a log of 0, say) is data: the op writes its
values, the pass runs on and masks the failing samples, which is how
``sampling.in_domain`` filters points, and after the last pass the fault at
the earliest op in the canonical order, and its first sample, is raised.
A request declares everything it evaluates up front, as one tree of forms
(``cexpr.eval_forms``), so work its checks share is shared in one tape.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Expr", "Const", "Coord", "Param", "Unary", "Binary",
    "ParseError", "DomainError", "UnboundParameter",
    "add", "sub", "mul", "div", "power", "neg", "func",
    "sin", "cos", "tan", "exp", "log", "sqrt",
    "absolute", "maximum", "cabs",
    "const", "coord", "param", "as_expr",
    "parse", "unparse", "differentiate", "eval_batch", "sweep", "CHUNK",
]

FUNCTIONS = ("neg", "sin", "cos", "tan", "exp", "log", "sqrt")


class DomainError(ArithmeticError):
    """Evaluation hit a singularity (division by zero, log<=0, sqrt<0, ...).

    ``index`` is the first failing sample among all the points evaluated,
    and ``point`` its coordinates.  A pass of :func:`sweep` records its
    failures and runs on; after the last pass the error, and the sample,
    that one unchunked pass in the canonical order names is raised, with
    ``count``, how many of the ``samples`` points evaluated failed a check.
    """

    index: int | None = None
    point: tuple | None = None
    count: int | None = None
    samples: int | None = None


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


# ``eq=False``: interning makes identity the structural equality.  ``d`` is
# the node's derivative row, ``(None, d/dx1, d/dx2, d/dx3)``.
@dataclass(frozen=True, repr=False, slots=True, eq=False)
class Const(Expr):
    value: float
    d: tuple | None = field(default=None, init=False)


@dataclass(frozen=True, repr=False, slots=True, eq=False)
class Coord(Expr):
    index: int  # 1..3
    d: tuple | None = field(default=None, init=False)


@dataclass(frozen=True, repr=False, slots=True, eq=False)
class Param(Expr):
    name: str
    d: tuple | None = field(default=None, init=False)


@dataclass(frozen=True, repr=False, slots=True, eq=False)
class Unary(Expr):
    op: str
    arg: Expr
    d: tuple | None = field(default=None, init=False)


@dataclass(frozen=True, repr=False, slots=True, eq=False)
class Binary(Expr):
    op: str
    left: Expr
    right: Expr
    d: tuple | None = field(default=None, init=False)


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
    """``a + b``, folded: constants add, ``0 + b`` is ``b``, and ``a + (-a)``
    and ``(-a) + a`` are 0 for one node ``a``, whatever ``a`` evaluates to
    (±inf too), and with ``a``'s domain checks dropped, as ``mul`` drops
    them for a symbolic zero."""
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
    if (ta is Unary and a.op == "neg" and a.arg is b
            or tb is Unary and b.op == "neg" and b.arg is a):
        return _ZERO
    key = ("add", a, b)
    node = _INTERN.get(key)
    if node is None:
        node = _INTERN[key] = Binary("add", a, b)
    return node


def sub(a, b) -> Expr:
    """``a - b``, folded: constants subtract, ``a - 0`` is ``a``, ``0 - b`` is
    ``-b``, and ``a - a`` is 0 for one node ``a``, whatever ``a`` evaluates
    to (±inf too), and with ``a``'s domain checks dropped, as ``mul`` drops
    them for a symbolic zero.  Two constants fold by IEEE arithmetic first,
    so ``inf - inf`` is NaN."""
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
    elif a is b:
        return _ZERO
    key = ("sub", a, b)
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
    key = ("mul", a, b)
    node = _INTERN.get(key)
    if node is None:
        node = _INTERN[key] = Binary("mul", a, b)
    return node


def div(a, b) -> Expr:
    """``a / b``, folded: constants divide unless ``b`` is 0, ``0/b`` is 0,
    ``a/1`` is ``a``, and ``a/a`` is 1 for one node ``a``, whatever ``a``
    evaluates to (0 and ±inf too), and with ``a``'s domain checks dropped,
    as ``mul`` drops them for a symbolic zero."""
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
    if a is b:
        return _ONE
    key = ("div", a, b)
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
    key = ("pow", a, b)
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
    key = ("neg", a)
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
    key = (name, arg)
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

def differentiate(f: Expr, coord_index: int) -> Expr:
    """Exact symbolic d f / d x_i for i in {1,2,3}.

    Iterative post-order walk: derived curvature expressions form deep DAGs
    and must not be limited by the interpreter recursion limit.  Each node
    the walk visits gets its whole row ``d``, its derivatives by x1, x2 and
    x3 at once, as a forward sweep carries a value with all of its tangents:
    the geometry pipeline asks for all three of each expression it
    differentiates, and many expressions share subterms.
    """
    if coord_index not in (1, 2, 3):
        raise ValueError(f"coordinate index must be 1..3, got {coord_index}")
    stack = [f]
    while stack:
        e = stack[-1]
        if e.d is not None:
            stack.pop()
            continue
        kind = type(e)
        if kind is Binary:
            ra, rb = e.left.d, e.right.d
            if ra is None or rb is None:  # the right operand first
                if ra is None:
                    stack.append(e.left)
                if rb is None:
                    stack.append(e.right)
                continue
            row = (None, _diff_binary(e, ra[1], rb[1]), _diff_binary(e, ra[2], rb[2]),
                   _diff_binary(e, ra[3], rb[3]))
        elif kind is Unary:
            ra = e.arg.d
            if ra is None:
                stack.append(e.arg)
                continue
            row = (None, _diff_unary(e, ra[1]), _diff_unary(e, ra[2]), _diff_unary(e, ra[3]))
        elif kind is Coord:
            row = (None, *(_ONE if e.index == i else _ZERO for i in (1, 2, 3)))
        else:  # a constant or a parameter
            row = (None, _ZERO, _ZERO, _ZERO)
        object.__setattr__(e, "d", row)  # the one write to a frozen node
        stack.pop()
    return f.d[coord_index]


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
        return div(sub(da, mul(e, db)), b)  # reuses the quotient e = a/b
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
# points the 580 slots of flat_radial's scheduled verify tape take 9.5 MB
# (its canonical order needs 1,240 slots, 20.3 MB)
CHUNK = 2048


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
    # every tape cost 0.022 CPU s more per warm ``run_all(100)`` + ``sol_obstruction``
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
    is ``scheduled``: then :func:`_schedule` pulls each value's derivatives
    right after it, to keep fewer values live.  Only the first
    division by a value, in run order, tests its divisor for zero, and a
    fault there is ranked as the canonically first of those divisions: the
    others fail on the same samples, so they divide unchecked.  Each value
    other than a constant gets a slot, and a slot is reused once its value
    has had its last use, so the slots (``slots`` of them) hold only live
    values; roots stay live to the end of the pass.  Every slot owns one
    buffer of ``width`` points, allocated once.  Each op is bound at
    compile time to what it reads, a constant's float or an operand slot's
    buffer, and to the buffer it writes, so a pass copies the coordinate
    columns into their buffers and calls each routine with ``out=``,
    allocating nothing per op.  A root that is a constant gets a buffer
    filled once.
    """

    def __init__(self, exprs, params, width: int, scheduled: bool = False):
        roots = list(exprs)
        num = {}  # node -> value number
        held = []  # value -> a leaf's float, else None; then what its readers get
        coords, code = [], []  # (value, column); (routine, out, a, b), b None if unary
        rows = []  # value -> its node's derivative row, for the schedule
        for f in roots:
            stack = [f]
            while stack:
                e = stack[-1]
                if e in num:
                    stack.pop()
                    continue
                v, leaf = len(held), None
                kind = type(e)
                if kind is Binary:
                    a, b = num.get(e.left), num.get(e.right)
                    if a is None or b is None:
                        if a is None:
                            stack.append(e.left)
                        if b is None:
                            stack.append(e.right)
                        continue
                    code.append((_BINARY[e.op], v, a, b))
                elif kind is Unary:
                    a = num.get(e.arg)
                    if a is None:
                        stack.append(e.arg)
                        continue
                    code.append((_UNARY[e.op], v, a, None))
                elif kind is Const:
                    leaf = float(e.value)
                elif kind is Coord:
                    coords.append((v, e.index - 1))
                else:
                    try:
                        leaf = float(params[e.name])
                    except KeyError:
                        raise UnboundParameter(e.name) from None
                stack.pop()
                num[e] = v
                held.append(leaf)
                if scheduled:
                    rows.append(e.d)
        count, outputs = len(held), [num[f] for f in roots]
        if scheduled:  # the values of each value's derivatives by x1, x2, x3, or None
            get = num.get
            tangents = [() if r is None else (get(r[1]), get(r[2]), get(r[3])) for r in rows]
            code = _schedule(code, count, outputs, tangents)
        del num, rows
        # the ops' value numbers, which rise along the canonical order: a
        # fault's rank among the faults of a pass
        self.number = number = np.array([v for _, v, _, _ in code], dtype=np.int64)

        last = [0] * count  # value -> the position of its last reader
        for pos, (_, _, a, b) in enumerate(code):
            last[a] = pos
            if b is not None:
                last[b] = pos
        for v in outputs:
            last[v] = len(code)
        fresh, free = itertools.count(), []
        for v, _ in coords:
            held[v] = next(fresh)
        pinned = {v: next(fresh) for v in dict.fromkeys(outputs) if type(held[v]) is float}
        checked = {}  # divisor value -> the position of the one division that tests it
        for pos, (fn, out, a, b) in enumerate(code):
            if fn is _div:  # a later division by b fails where the first one does
                first = checked.setdefault(b, pos)
                if first != pos:
                    fn = np.true_divide
                    number[first] = min(number[first], out)
            ra = held[a]
            if type(ra) is int and last[a] == pos:
                free.append(ra)
            rb = None if b is None else held[b]
            if type(rb) is int and b != a and last[b] == pos:
                free.append(rb)
            held[out] = so = free.pop() if free else next(fresh)
            code[pos] = (fn, so, ra, rb)
        outputs = [pinned[v] if v in pinned else held[v] for v in outputs]
        fills = [(s, held[v]) for v, s in pinned.items()]  # constant roots
        coords = [(held[v], k) for v, k in coords]
        size = next(fresh)
        del held, pinned, last, checked, number

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
        earliest sample.  Its ``count`` is of the failing points, each
        counted in the pass that owns it.
        """
        n, width, code = len(pts), self.width, self.code
        first, count = None, 0  # the error to raise; the failing points
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
            new = lo - start
            count += int(np.count_nonzero(bad[new:]))
            yield lo, new, bad
        if first is not None:
            first.point = tuple(pts[first.index].tolist())
            first.count, first.samples = count, n
            raise first


def _schedule(code, count: int, outputs, tangents) -> list:
    """``code``, ops over ``count`` values in the canonical order, with each
    op's derivatives by x1, x2, x3 (``tangents[v]``, None where one is not
    on the tape) pulled right after it, as a forward sweep carries a value
    with its tangents (Griewank & Walther, *Evaluating Derivatives*, 2nd
    ed., ch. 3): the two share operands, so those die sooner and fewer
    values are live at once.  A tangent over an op the walk is still under,
    whose operands are still being placed, is left to the walk that reaches
    it later.  So a tape with no derivative of its values on it keeps the
    canonical order: the distinct ``outputs`` in order, the right operand
    first.
    """
    pending = [None] * count  # value -> its op, until the op is placed
    for op in code:
        pending[op[1]] = op
    under = bytearray(count)  # 1 while an op's operands are being placed
    order = []
    for root in dict.fromkeys(outputs):
        stack = [root]
        while stack:
            v = stack.pop()
            if v < 0:  # its operands are placed
                v = ~v
                order.append(pending[v])
                pending[v] = None
                under[v] = 0
                # the last pushed, by x3, is visited first; a tangent that is
                # v itself (d/dx exp(x) is exp(x)) is placed already
                for t in tangents[v]:
                    if t is not None and pending[t] is not None and not _waits(t, pending, under):
                        stack.append(t)
                continue
            op = pending[v]
            if op is None:  # a leaf, or placed already
                continue
            under[v] = 1
            stack.append(~v)
            _, _, a, b = op  # the right operand, pushed last, is visited first
            stack.append(a)
            if b is not None:
                stack.append(b)
    return order


def _waits(t, pending, under) -> bool:
    """Whether an op the walk is under is among the pending ops of ``t``."""
    stack, seen = [t], set()
    while stack:
        v = stack.pop()
        op = pending[v]
        if op is None or v in seen:
            continue
        if under[v]:
            return True
        seen.add(v)
        stack.append(op[2])
        if op[3] is not None:
            stack.append(op[3])
    return False


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
            e = add(e, rhs) if op == "+" else sub(e, rhs)
        return e

    def term(self) -> Expr:
        e = self.factor()
        while self.lex.tok[0] in ("*", "/"):
            op = self.lex.tok[0]
            self.lex._advance()
            rhs = self.factor()
            e = mul(e, rhs) if op == "*" else div(e, rhs)
        return e

    def factor(self) -> Expr:
        if self.lex.tok[0] == "-":
            self.lex._advance()
            return neg(self.factor())  # -2 is a constant, -2^x is -(2^x)
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.lex.tok[0] == "^":
            self.lex._advance()
            expo = self.factor()
            return power(base, expo)
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
                return func(value, arg)
            if value in _FUNC_TOKENS:
                raise ParseError(offset, f"function {value!r} used without arguments", "'('")
            if value in self.coords:
                return _mk_coord(self.coords[value])
            return _mk_param(value)
        raise ParseError(offset, f"unexpected {kind} {value!r}", "number, identifier or '('")


def parse(text: str, coord_names=None) -> Expr:
    """Parse an expression string; raises ParseError with a byte offset.

    The parser builds through the smart constructors, so parsed text folds
    as constructed text does: ``0*log(x1)`` parses to ``0``, and its domain
    check goes with it, as :func:`mul` drops it.
    """
    if not text or not text.strip():
        raise ParseError(0, "empty input", "expression")
    return _Parser(text, coord_names).parse()


# --------------------------------------------------------------------------
# unparser

_PREC = {"add": 1, "sub": 1, "mul": 2, "div": 2, "neg": 3, "pow": 4}
_SYM = {"add": "+", "sub": "-", "mul": "*", "div": "/", "pow": "^"}


def _fmt_const(v: float) -> str:
    if v != v:  # parses back to the one NaN node
        return "(1e999 - 1e999)"
    if math.isinf(v):
        return "1e999" if v > 0 else "-1e999"
    if float(v).is_integer() and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def unparse(e: Expr) -> str:
    """Render back to the grammar: ``parse(unparse(e)) is e`` for every
    constructor-made node."""
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
            if p < _PREC["neg"]:
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
