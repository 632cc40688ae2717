"""Deterministic report assembly and rendering.

A report is a plain dict; the JSON rendering is byte-stable for a fixed
(spec, seed, tolerance, version): keys are sorted, floats go through
repr, and wall-clock timing is withheld unless explicitly requested
(otherwise two identical runs could never be byte-identical).
"""

from __future__ import annotations

import json

from . import __version__ as _version
from .frame import ManifoldSpec, spec_hash

__all__ = ["base_report", "render_json", "render_table"]


def base_report(spec: ManifoldSpec | None = None, *, seed=None, count=None,
                tol=None, timing=None) -> dict:
    rep = {"tool": {"name": "np3kit", "version": _version}, "timing": timing}
    if spec is not None:
        rep["spec"] = {"name": spec.name, "hash": spec_hash(spec),
                       "box": [list(b) for b in spec.box]}
    if seed is not None or count is not None:
        rep["samples"] = {"seed": seed, "count": count}
    if tol is not None:
        rep["tolerance"] = tol
    return rep


def render_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2)


def _fmt(value):
    if isinstance(value, float):
        return f"{value:.3e}" if (value != 0 and abs(value) < 1e-2) else f"{value:.6g}"
    if isinstance(value, list) and len(value) == 2 and all(isinstance(x, (int, float)) for x in value):
        return f"({_fmt(value[0])}, {_fmt(value[1])})"
    return str(value)


def _fmt_value(value):
    """A ``values`` entry: a [re, im] pair as a complex number, else :func:`_fmt`."""
    if isinstance(value, list):
        re_, im_ = value
        sign = "+" if im_ >= 0 else "-"
        return f"{re_:.12g} {sign} {abs(im_):.12g}i"
    return _fmt(value)


def render_table(report: dict) -> str:
    lines = []
    tool = report.get("tool", {})
    head = f"np3kit {tool.get('version', '')}".strip()
    if "spec" in report:
        head += f"  spec={report['spec']['name']} ({report['spec']['hash'][:8]})"
    if "samples" in report:
        head += f"  seed={report['samples']['seed']} n={report['samples']['count']}"
    lines.append(head)
    if "point" in report:
        lines.append(f"at point {tuple(report['point'])}")
    for key, value in report.items():
        if key in ("tool", "spec", "samples", "timing", "checks", "suites",
                   "classification", "point", "values"):
            continue
        if isinstance(value, dict):
            lines.append(f"{key}:")
            for k, v in value.items():
                lines.append(f"  {k}: {_fmt(v)}")
        else:
            lines.append(f"{key}: {_fmt(value)}")
    if "values" in report:
        for name, value in report["values"].items():
            lines.append(f"  {name:12s} {_fmt_value(value)}")
    if "classification" in report:
        cls = report["classification"]
        lines.append(f"verdict: {cls['verdict']}")
        lines.append(f"  alpha mean={_fmt(cls['alpha_summary'][0])} "
                     f"dev={_fmt(cls['alpha_summary'][1])}")
        lines.append(f"  beta  mean={_fmt(cls['beta_summary'][0])} "
                     f"dev={_fmt(cls['beta_summary'][1])}")
        for name, value in cls.get("residuals", {}).items():
            lines.append(f"  {name}: {_fmt(value)}")
    for suite, checks in (report.get("suites") or {}).items():
        lines.append(f"[{suite}]")
        for chk in checks:
            lines.append("  " + _fmt_check(chk))
    for chk in report.get("checks") or []:
        lines.append(_fmt_check(chk))
    if report.get("timing"):
        lines.append(f"elapsed: {report['timing']['seconds']:.3f}s")
    return "\n".join(lines)


def _fmt_check(chk: dict) -> str:
    status = "PASS" if chk.get("pass") else "FAIL"
    if chk.get("skipped"):
        return f"SKIP {chk['name']}: {chk.get('reason', '')}"
    if "max_residual" in chk:
        return (f"{status} {chk['name']}: max_residual={chk['max_residual']:.3e}"
                f" tol={chk['tolerance']:.1e}")
    if "expected" in chk:
        return f"{status} {chk['name']}: expected={chk['expected']} got={chk.get('got')}"
    return f"{status} {chk['name']}"
