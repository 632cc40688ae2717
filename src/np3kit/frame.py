r"""Orthonormal-frame geometry of a 3-manifold given by symbolic vector fields.

A manifold is specified by three vector fields (e1, e2, xi) with symbolic
coordinate components; the Riemannian metric is *defined* by declaring this
frame orthonormal (there is no independent metric input).  Everything else
is derived:

  * Lie brackets [E_i, E_j], re-expressed in the frame by a symbolic 3x3
    solve (adjugate over determinant),
  * the Levi-Civita connection in the orthonormal-frame reduction
    Gamma_ijk = (c_ijk - c_jki + c_kij)/2  with  c_ijk = g([E_i,E_j], E_k),
  * the full Riemann tensor, Ricci tensor and scalar curvature.

Index conventions: frames are 0-indexed internally, (0, 1, 2) = (e1, e2, xi).
Gamma[i][j][k] = g(nabla_{E_i} E_j, E_k), R[i][j][k][l] = g(R(E_i,E_j)E_k, E_l),
Ricci S[j][k] = sum_i R[i][j][k][i].  The scalar curvature is stored in the
half-trace normalization tau = tr(S)/2, which is also what
S(D, Dbar) + S(xi,xi)/2 computes in the complex frame.

Orientation is fixed: (e1, e2, xi) is positively oriented.  Reversing it
flips the sign of the twist.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import expr as E
from .expr import Expr
from .sampling import sample_box

__all__ = [
    "ManifoldSpec", "StructureFunctions", "ConnectionTable", "CurvatureData",
    "SchemaError", "DegenerateFrame",
    "load_manifold", "spec_from_document", "spec_to_document",
    "structure_functions", "connection_table", "covariant_derivative",
    "riemann", "kulkarni_nomizu_residual",
    "frame_matrix", "frame_directional", "default_samples", "spec_hash",
]

DET_THRESHOLD = 1e-8
DEFAULT_BOX = ((-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0))


class SchemaError(ValueError):
    """Manifold document does not match the expected schema."""


class DegenerateFrame(ValueError):
    """|det F| below threshold at a probe point: fields do not form a frame."""


@dataclass(eq=False)
class ManifoldSpec:
    name: str
    coords: tuple[str, str, str]
    e1: tuple[Expr, Expr, Expr]
    e2: tuple[Expr, Expr, Expr]
    xi: tuple[Expr, Expr, Expr]
    domain: tuple[Expr, ...] = ()
    params: dict = field(default_factory=dict)
    box: tuple = DEFAULT_BOX
    document: dict | None = None
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def frame(self):
        return (self.e1, self.e2, self.xi)


@dataclass(frozen=True)
class StructureFunctions:
    """c[i][j][k] with [E_i, E_j] = sum_k c[i][j][k] E_k; antisymmetric in (i, j)."""
    c: tuple


@dataclass(frozen=True)
class ConnectionTable:
    """gamma[i][j][k] = g(nabla_{E_i} E_j, E_k); antisymmetric in (j, k)."""
    gamma: tuple


@dataclass(frozen=True)
class CurvatureData:
    riemann: tuple   # R[i][j][k][l]
    ricci: tuple     # S[j][k]
    scalar: Expr     # tr(S)/2


# --------------------------------------------------------------------------
# document handling

_REQUIRED_KEYS = ("name", "coords", "frame")


def load_manifold(document) -> ManifoldSpec:
    """Build a ManifoldSpec from a JSON document (text or dict).

    Validates the schema, parses every expression, and checks frame
    non-degeneracy (|det F| > 1e-8) at 8 probe points of the domain.
    """
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"not valid JSON: {exc}") from None
    spec = spec_from_document(document)
    _check_nondegenerate(spec)
    return spec


def spec_from_document(doc: dict) -> ManifoldSpec:
    if not isinstance(doc, dict):
        raise SchemaError("document must be a JSON object")
    for key in _REQUIRED_KEYS:
        if key not in doc:
            raise SchemaError(f"missing required key {key!r}")
    name = doc["name"]
    if not isinstance(name, str) or not name:
        raise SchemaError("'name' must be a non-empty string")
    coords = doc["coords"]
    if (not isinstance(coords, (list, tuple)) or len(coords) != 3
            or not all(isinstance(c, str) for c in coords)):
        raise SchemaError("'coords' must be three coordinate names")
    frame_doc = doc["frame"]
    if not isinstance(frame_doc, dict) or set(frame_doc) != {"e1", "e2", "xi"}:
        raise SchemaError("'frame' must have exactly the keys e1, e2, xi")
    params = doc.get("params", {})
    if not isinstance(params, dict) or not all(
            isinstance(k, str) and isinstance(v, (int, float)) for k, v in params.items()):
        raise SchemaError("'params' must map names to numbers")

    def parse_field(key):
        comps = frame_doc[key]
        if not isinstance(comps, (list, tuple)) or len(comps) != 3:
            raise SchemaError(f"frame field {key!r} must have 3 component expressions")
        return tuple(E.parse(str(c), coord_names=coords) for c in comps)

    e1, e2, xi = parse_field("e1"), parse_field("e2"), parse_field("xi")
    domain = tuple(E.parse(str(d), coord_names=coords) for d in doc.get("domain", []))
    box = doc.get("box", DEFAULT_BOX)
    box = tuple((float(lo), float(hi)) for lo, hi in box)
    if len(box) != 3 or any(hi <= lo for lo, hi in box):
        raise SchemaError("'box' must be three (lo, hi) pairs with lo < hi")
    return ManifoldSpec(name=name, coords=tuple(coords), e1=e1, e2=e2, xi=xi,
                        domain=domain, params=dict(params), box=box, document=doc)


def spec_to_document(spec: ManifoldSpec) -> dict:
    """Serialize back to the manifold-spec document format."""
    return {
        "name": spec.name,
        "coords": list(spec.coords),
        "frame": {
            "e1": [E.unparse(c) for c in spec.e1],
            "e2": [E.unparse(c) for c in spec.e2],
            "xi": [E.unparse(c) for c in spec.xi],
        },
        "domain": [E.unparse(d) for d in spec.domain],
        "params": dict(spec.params),
        "box": [list(b) for b in spec.box],
    }


def spec_hash(spec: ManifoldSpec) -> str:
    import hashlib
    doc = json.dumps(spec_to_document(spec), sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()[:16]


def default_samples(spec: ManifoldSpec, count: int, seed: int = 0) -> np.ndarray:
    return sample_box(spec.box, count, seed=seed, domain=spec.domain, params=spec.params)


def _check_nondegenerate(spec: ManifoldSpec, probes: int = 8):
    pts = default_samples(spec, probes, seed=0)
    dets = np.linalg.det(eval_table_many(frame_matrix(spec), pts, spec.params, 2))
    worst = float(np.min(np.abs(dets)))
    if worst <= DET_THRESHOLD:
        raise DegenerateFrame(
            f"|det frame| = {worst:.3e} <= {DET_THRESHOLD} at a probe point of {spec.name!r}")


# --------------------------------------------------------------------------
# symbolic 3x3 linear algebra

def _det3(M):
    def m(i, j):
        return M[i][j]
    return (m(0, 0) * (m(1, 1) * m(2, 2) - m(1, 2) * m(2, 1))
            - m(0, 1) * (m(1, 0) * m(2, 2) - m(1, 2) * m(2, 0))
            + m(0, 2) * (m(1, 0) * m(2, 1) - m(1, 1) * m(2, 0)))


def _inv3(M):
    """Adjugate over determinant; entries are Exprs."""
    d = _det3(M)

    def cof(i, j):
        r = [k for k in range(3) if k != i]
        c = [k for k in range(3) if k != j]
        minor = M[r[0]][c[0]] * M[r[1]][c[1]] - M[r[0]][c[1]] * M[r[1]][c[0]]
        return minor if (i + j) % 2 == 0 else E.neg(minor)

    return [[E.div(cof(j, i), d) for j in range(3)] for i in range(3)], d


# --------------------------------------------------------------------------
# geometry cache

def frame_matrix(spec: ManifoldSpec):
    """Rows = coordinate components of (e1, e2, xi)."""
    return (spec.e1, spec.e2, spec.xi)


def _frame_inverse(spec):
    g = spec._cache
    if "finv" not in g:
        F = [list(row) for row in frame_matrix(spec)]
        g["finv"], g["det"] = _inv3(F)
    return g["finv"]


def frame_directional(spec: ManifoldSpec, f: Expr, i: int) -> Expr:
    """E_i(f) = sum_l F[i][l] df/dx_l for frame index i in 0..2."""
    F = frame_matrix(spec)
    out = E.const(0.0)
    for l in range(3):
        out = E.add(out, E.mul(F[i][l], E.differentiate(f, l + 1)))
    return out


def structure_functions(spec: ManifoldSpec) -> StructureFunctions:
    g = spec._cache
    if "struct" in g:
        return g["struct"]
    F = frame_matrix(spec)
    finv = _frame_inverse(spec)
    c = [[[E.const(0.0)] * 3 for _ in range(3)] for _ in range(3)]
    for i in range(3):
        for j in range(i + 1, 3):
            # coordinate components of [E_i, E_j]
            comps = []
            for l in range(3):
                term = E.const(0.0)
                for m in range(3):
                    term = E.add(term, E.sub(
                        E.mul(F[i][m], E.differentiate(F[j][l], m + 1)),
                        E.mul(F[j][m], E.differentiate(F[i][l], m + 1))))
                comps.append(term)
            # back to frame components: a_k = sum_l comps_l * finv[l][k]
            for k in range(3):
                a = E.const(0.0)
                for l in range(3):
                    a = E.add(a, E.mul(comps[l], finv[l][k]))
                c[i][j][k] = a
                c[j][i][k] = E.neg(a)
    out = StructureFunctions(tuple(tuple(tuple(row) for row in plane) for plane in c))
    g["struct"] = out
    return out


def connection_table(spec: ManifoldSpec) -> ConnectionTable:
    g = spec._cache
    if "conn" in g:
        return g["conn"]
    c = structure_functions(spec).c
    gamma = [[[None] * 3 for _ in range(3)] for _ in range(3)]
    half = E.const(0.5)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                # Koszul reduction for an orthonormal frame
                gamma[i][j][k] = E.mul(half, E.add(E.sub(c[i][j][k], c[j][k][i]), c[k][i][j]))
    out = ConnectionTable(tuple(tuple(tuple(row) for row in plane) for plane in gamma))
    g["conn"] = out
    return out


def covariant_derivative(spec: ManifoldSpec, X, Y):
    """nabla_X Y for frame-component fields X, Y (triples of Exprs).

    (nabla_X Y)^j = sum_i X^i E_i(Y^j) + sum_{i,k} X^i Y^k Gamma[i][k][j]
    """
    gamma = connection_table(spec).gamma
    out = []
    for j in range(3):
        acc = E.const(0.0)
        for i in range(3):
            acc = E.add(acc, E.mul(X[i], frame_directional(spec, Y[j], i)))
            for k in range(3):
                acc = E.add(acc, E.mul(E.mul(X[i], Y[k]), gamma[i][k][j]))
        out.append(acc)
    return tuple(out)


def riemann(spec: ManifoldSpec) -> CurvatureData:
    g = spec._cache
    if "curv" in g:
        return g["curv"]
    gamma = connection_table(spec).gamma
    c = structure_functions(spec).c
    # E_i(Gamma[j][k][l]) table
    dgamma = [[[[frame_directional(spec, gamma[j][k][l], i) for l in range(3)]
                for k in range(3)] for j in range(3)] for i in range(3)]
    R = [[[[None] * 3 for _ in range(3)] for _ in range(3)] for _ in range(3)]
    for i in range(3):
        for j in range(3):
            for k in range(3):
                for l in range(3):
                    acc = E.sub(dgamma[i][j][k][l], dgamma[j][i][k][l])
                    for m in range(3):
                        acc = E.add(acc, E.mul(gamma[j][k][m], gamma[i][m][l]))
                        acc = E.sub(acc, E.mul(gamma[i][k][m], gamma[j][m][l]))
                        acc = E.sub(acc, E.mul(c[i][j][m], gamma[m][k][l]))
                    R[i][j][k][l] = acc
    S = [[None] * 3 for _ in range(3)]
    for j in range(3):
        for k in range(3):
            acc = E.const(0.0)
            for i in range(3):
                acc = E.add(acc, R[i][j][k][i])
            S[j][k] = acc
    scalar = E.mul(0.5, E.add(E.add(S[0][0], S[1][1]), S[2][2]))
    out = CurvatureData(
        tuple(tuple(tuple(tuple(r) for r in plane) for plane in block) for block in R),
        tuple(tuple(row) for row in S),
        scalar,
    )
    g["curv"] = out
    return out


def _flatten(table, depth):
    if depth == 0:
        return [table]
    out = []
    for t in table:
        out.extend(_flatten(t, depth - 1))
    return out


def eval_table_many(table, points, params, depth) -> np.ndarray:
    """Evaluate a nested tuple of Exprs at (N,3) points -> array (N, *shape)."""
    flat = _flatten(table, depth)
    cols = E.eval_batch(flat, points, params)
    n = len(np.asarray(points))
    shape = []
    t = table
    for _ in range(depth):
        shape.append(len(t))
        t = t[0]
    return np.stack(cols, axis=-1).reshape(n, *shape)


def curvature_roots(spec: ManifoldSpec) -> list:
    """The 81 Riemann, 9 Ricci and 1 scalar expressions, flattened in order."""
    data = riemann(spec)
    return _flatten(data.riemann, 4) + _flatten(data.ricci, 2) + [data.scalar]


def curvature_values_many(spec: ManifoldSpec, points):
    """(R, S, tau) numeric arrays at (N,3) points: shapes (N,3,3,3,3), (N,3,3), (N,)."""
    cols = E.eval_batch(curvature_roots(spec), points, spec.params)
    n = len(np.asarray(points))
    R = np.stack(cols[:81], axis=-1).reshape(n, 3, 3, 3, 3)
    S = np.stack(cols[81:90], axis=-1).reshape(n, 3, 3)
    tau = cols[90]
    return R, S, tau


def curvature_values(spec: ManifoldSpec, point):
    """(R, S, tau) as numeric arrays at one point."""
    R, S, tau = curvature_values_many(spec, np.asarray([point], dtype=float))
    return R[0], S[0], tau[0]


def kulkarni_nomizu_residual_many(spec: ManifoldSpec, points) -> np.ndarray:
    """Per-point max over all 81 index tuples of |R - g (*) (S - (tau/2) g)|.

    (T1 (*) T2)(X,Y,Z,W) = T1(Y,Z)T2(X,W) - T1(X,Z)T2(Y,W)
                         + T2(Y,Z)T1(X,W) - T2(X,Z)T1(Y,W);
    in three dimensions the curvature tensor is exactly g (*) (S - (tau/2) g)
    with tau the half-trace scalar.
    """
    return _kulkarni_nomizu_residual(*curvature_values_many(spec, points))


def _kulkarni_nomizu_residual(R, S, tau) -> np.ndarray:
    """:func:`kulkarni_nomizu_residual_many` from evaluated curvature arrays.

    g is the identity in frame components, so each term of g (*) T is a
    broadcast product of T by exact zeros and ones, with no index summed.
    """
    g = np.eye(3)
    T = S - 0.5 * tau[:, None, None] * g
    kn = (g[None, None, :, :, None] * T[:, :, None, None, :]
          - g[None, :, None, :, None] * T[:, None, :, None, :]
          + T[:, None, :, :, None] * g[None, :, None, None, :]
          - T[:, :, None, :, None] * g[None, None, :, None, :])
    return np.max(np.abs(R - kn), axis=(1, 2, 3, 4))


def kulkarni_nomizu_residual(spec: ManifoldSpec, point) -> float:
    return float(kulkarni_nomizu_residual_many(spec, np.asarray([point], dtype=float))[0])
