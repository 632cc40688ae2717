"""Complex-valued symbolic scalars: pairs of real expressions.

The metric of an orthonormal frame extends complex-BILINEARLY (not
sesquilinearly) to the complexified tangent space; that convention is what
makes g(D, D) = 0 and g(D, Dbar) = 1 for D = (e1 - i e2)/sqrt(2).  All
arithmetic here is plain complex-bilinear algebra over the real Expr layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expr as E
from .expr import Expr

__all__ = ["CExpr", "c_const", "as_cexpr", "parts", "eval_parts"]


@dataclass(frozen=True)
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

    def evaluate(self, point, params=None) -> complex:
        ((re, im),) = eval_parts([self], np.asarray([point], dtype=float), params)
        return complex(re[0], im[0])

    def evaluate_many(self, points, params=None) -> np.ndarray:
        ((re, im),) = eval_parts([self], points, params)
        return re + 1j * im


def parts(zs) -> list[Expr]:
    """The real expressions behind complex ones: re, im, re, im, ..."""
    return [x for z in zs for x in (z.re, z.im)]


def eval_parts(zs, points, params=None) -> list[tuple[np.ndarray, np.ndarray]]:
    """(re, im) value columns of several complex expressions, from one eval_batch."""
    cols = E.eval_batch(parts(zs), points, params)
    return list(zip(cols[0::2], cols[1::2]))


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
