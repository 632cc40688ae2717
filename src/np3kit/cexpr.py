"""Complex-valued symbolic scalars, trees of forms, and residual roots.

The metric of an orthonormal frame extends complex-BILINEARLY (not
sesquilinearly) to the complexified tangent space; that convention is what
makes g(D, D) = 0 and g(D, Dbar) = 1 for D = (e1 - i e2)/sqrt(2).  All
arithmetic here is plain complex-bilinear algebra over the real Expr layer.

The geometry layers evaluate through :func:`eval_forms`.  A sweep names
everything it evaluates once, as a tree of forms: dicts and lists of
``Expr``, ``CExpr`` and tables (nested tuples) of them.  The distinct
leaves compile into one tape, and the same tree comes back with arrays in
place of forms.

A check is declared as such a tree too: the differences that vanish when
its identity holds.  :func:`residual` turns the tree into one real root,
the pointwise max of |leaf|, so the modulus and the max over the leaves
run on the tape and a check's values are one column.  :func:`fold` streams
named roots and keeps one max, or one sum, per root.  Both evaluate on
``expr.sweep``, the one pass driver: ``eval_forms`` through
``expr.eval_batch``, ``fold`` as a reduction of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expr as E
from .expr import Expr

__all__ = ["CExpr", "c_const", "as_cexpr", "eval_forms", "fold", "residual"]


@dataclass(frozen=True, slots=True)
class CExpr:
    re: Expr
    im: Expr

    def conj(self) -> "CExpr":
        return CExpr(self.re, E.neg(self.im))

    def __add__(self, other):
        o = as_cexpr(other)
        return CExpr(E.add(self.re, o.re), E.add(self.im, o.im))

    __radd__ = __add__

    def __sub__(self, other):
        o = as_cexpr(other)
        return CExpr(E.sub(self.re, o.re), E.sub(self.im, o.im))

    def __rsub__(self, other):
        return as_cexpr(other) - self

    def __mul__(self, other):
        o = as_cexpr(other)
        return CExpr(
            E.sub(E.mul(self.re, o.re), E.mul(self.im, o.im)),
            E.add(E.mul(self.re, o.im), E.mul(self.im, o.re)),
        )

    __rmul__ = __mul__

    def __neg__(self):
        return CExpr(E.neg(self.re), E.neg(self.im))

    def abs2(self) -> Expr:
        """|z|^2 as a real expression."""
        return E.add(E.mul(self.re, self.re), E.mul(self.im, self.im))

    def evaluate_many(self, points, params=None) -> np.ndarray:
        return eval_forms(self, points, params)


def eval_forms(forms, points, params=None):
    """The values of a tree of forms at (N,3) points, from one tape.

    ``forms`` nests dicts and lists, which keep their shape.  Its leaves
    become arrays: an ``Expr`` an (N,) column, a ``CExpr`` an (N,) complex
    column whose parts are its ``re`` and ``im`` columns bit for bit, and a
    nested tuple of them (a table) one (N, *shape) array, complex if its
    entries are.  The distinct nodes under all leaves are computed once, in
    one ``expr.eval_batch`` call, and a form that occurs more than once (the
    same object) gets one array, shared by all its places.
    """
    cols = E.eval_batch(_leaves(forms), points, params)
    return _values(forms, iter(cols), {})


def fold(maxima: dict, sums: dict, points, params=None) -> dict:
    """{name: float}: the max over ``points`` of each real root in ``maxima``
    (a NaN stays NaN) and the sum of each in ``sums``.

    One ``expr.sweep`` that reads each pass's new points off the root
    buffers, so nothing grows past one pass.  A sum is the ``math.fsum`` of
    each pass's ``np.sum``, so one pass sums as ``np.mean`` does.
    """
    m = len(maxima)

    def reduce(tape, pts):
        hi, parts = np.full(m, -np.inf), [[] for _ in sums]
        for _, new, bad in tape.passes(pts):
            if bad.any():  # NaNs and infinities, and the sweep raises after its last pass
                continue
            cols = [buf[new:] for buf in tape.outputs]
            hi = np.maximum(hi, [np.max(col) for col in cols[:m]])
            for part, col in zip(parts, cols[m:]):
                part.append(np.sum(col))
        return dict(zip([*maxima, *sums], [*hi.tolist(), *map(math.fsum, parts)]))

    return E.sweep([*maxima.values(), *sums.values()], points, params, reduce)


def residual(tree) -> Expr:
    """The pointwise max of |leaf| over a tree of forms, as one real root.

    A real leaf contributes ``abs``, a ``CExpr`` the ``cabs`` of its parts
    (numpy's complex modulus).  Exact zeros are dropped and constants
    folded; an empty or all-zero tree is the constant 0.  The max nests to
    the right, so the tape holds one running max, not every leaf at once.
    """
    terms, consts, seen = [], [], set()
    for leaf in _forms(tree):
        key = (id(leaf.re), id(leaf.im)) if isinstance(leaf, CExpr) else id(leaf)
        if key not in seen:
            seen.add(key)
            term = E.cabs(leaf.re, leaf.im) if isinstance(leaf, CExpr) else E.absolute(leaf)
            (consts if isinstance(term, E.Const) else terms).append(term)
    root = E.const(0.0)
    for c in consts:
        root = E.maximum(c, root)
    if terms:
        root = terms.pop() if E._is_const(root, 0.0) else root
        for term in reversed(terms):
            root = E.maximum(term, root)
    return root


def _forms(node):
    """The ``Expr`` and ``CExpr`` leaves of a tree of forms, in order."""
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, (list, tuple)):
        for child in node:
            yield from _forms(child)
    else:
        yield node


def _table(node: tuple):
    """(shape, entries) of a nested tuple, its entries in row-major order."""
    shape, entries = [], [node]
    while isinstance(entries[0], tuple):
        shape.append(len(entries[0]))
        entries = [x for t in entries for x in t]
    return shape, entries


def _leaves(forms) -> list:
    """The real expressions of the distinct forms in a tree, in order."""
    out, seen = [], set()
    for form in _forms(forms):
        if id(form) not in seen:
            seen.add(id(form))
            out += (form.re, form.im) if isinstance(form, CExpr) else (form,)
    return out


def _values(node, cols, memo: dict):
    """``node`` with each form replaced by its values, read from ``cols`` in
    the order of :func:`_leaves`; ``memo`` holds the forms already read."""
    if isinstance(node, dict):
        return {k: _values(v, cols, memo) for k, v in node.items()}
    if isinstance(node, list):
        return [_values(v, cols, memo) for v in node]
    key = id(node)
    if key not in memo:
        if isinstance(node, tuple):
            shape, entries = _table(node)
            memo[key] = np.stack([_values(x, cols, memo) for x in entries],
                                 axis=-1).reshape(-1, *shape)
        elif isinstance(node, CExpr):
            # not re + 1j*im, which makes an infinite im a NaN re and flips signed zeros
            re, im = next(cols), next(cols)
            memo[key] = z = np.empty(len(re), complex)
            z.real, z.imag = re, im
        else:
            memo[key] = next(cols)
    return memo[key]


def c_const(z) -> CExpr:
    z = complex(z)
    return CExpr(E.const(z.real), E.const(z.imag))


def as_cexpr(v) -> CExpr:
    if isinstance(v, CExpr):
        return v
    if isinstance(v, Expr):
        return CExpr(v, E.const(0.0))
    if isinstance(v, complex):
        return c_const(v)
    if isinstance(v, (int, float)):
        return CExpr(E.const(v), E.const(0.0))
    raise TypeError(f"cannot coerce {type(v).__name__} to CExpr")
