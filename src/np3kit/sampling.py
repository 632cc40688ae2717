"""Deterministic low-discrepancy sample points inside a coordinate box.

A Halton sequence (bases 2, 3, 5) with a seed-derived Cranley-Patterson
rotation: the same (seed, count, box) always yields the same points, which
is what makes verification reports reproducible byte for byte.
"""

from __future__ import annotations

import numpy as np

from . import expr as E

__all__ = ["halton_points", "sample_box", "in_domain", "InsufficientSamples"]

_BASES = (2, 3, 5)


class InsufficientSamples(RuntimeError):
    """Too few sample points survived the domain predicates."""


def _van_der_corput(n: int, base: int, start: int = 1) -> np.ndarray:
    """Radical inverses of start .. start+n-1, one digit of every index per step.

    The digit weights f and the sums x are formed by the same operations,
    in the same order, as for one index at a time, so the values are
    bit-identical to the scalar loop; finished indices add 0.0.
    """
    k = np.arange(start, start + n, dtype=np.int64)
    x = np.zeros(n)
    f = 1.0
    while np.any(k > 0):
        f /= base
        k, r = np.divmod(k, base)
        x += r * f
    return x


def _seed_shift(seed: int) -> np.ndarray:
    # splitmix64-style scramble; only determinism matters here
    z = (seed + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    shifts = []
    for _ in range(3):
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & 0xFFFFFFFFFFFFFFFF
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB & 0xFFFFFFFFFFFFFFFF
        z = z ^ (z >> 31)
        shifts.append((z % (2**53)) / 2**53)
    return np.array(shifts)


def halton_points(count: int, seed: int = 0) -> np.ndarray:
    """(count, 3) array in the open unit cube."""
    u = np.column_stack([_van_der_corput(count, b) for b in _BASES])
    return (u + _seed_shift(seed)) % 1.0


def sample_box(box, count: int, seed: int = 0, domain=None, params=None,
               min_fraction: float = 0.5) -> np.ndarray:
    """Low-discrepancy points in `box` = [(lo,hi)]*3, filtered by domain predicates.

    Oversamples, keeps the points :func:`in_domain`, and returns exactly
    `count` of them (deterministically); `count` is at least 1.
    """
    if count < 1:
        raise ValueError(f"sample count must be at least 1, got {count}")
    box = np.asarray(box, dtype=float)
    if box.shape != (3, 2):
        raise ValueError("box must be [(lo, hi), (lo, hi), (lo, hi)]")
    for factor in (1, 2, 4, 8) if domain else (1,):
        u = halton_points(max(8, count * factor), seed)
        pts = box[:, 0] + u * (box[:, 1] - box[:, 0])
        if domain:
            pts = pts[in_domain(domain, pts, params)]
        if len(pts) >= count:
            return pts[:count]
    raise InsufficientSamples(
        f"requested {count} points in box, only {len(pts)} satisfy the domain")


def in_domain(domain, pts, params=None) -> np.ndarray:
    """The mask of the (N,3) ``pts`` where every predicate in ``domain`` is
    finite and > 0, from one sweep of them all.  A domain fault (``log(x3)``
    at x3 <= 0, say) masks its samples; the mask answers its DomainError."""
    def mask(tape, pts):
        ok = np.empty(len(pts), dtype=bool)
        try:
            for lo, new, bad in tape.passes(pts):
                own = ok[lo:lo + tape.width - new]
                np.logical_not(bad[new:], out=own)
                for buf in tape.outputs:
                    own &= np.isfinite(buf[new:]) & (buf[new:] > 0.0)
        except E.DomainError:
            pass
        return ok

    return E.sweep(domain, pts, params, mask)
