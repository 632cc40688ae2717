"""Command-line surface: spin, classify, verify, ektau.

Exit codes: 0 run ok, 1 verification failure (or --strict verdict), 2
domain or numeric error, 3 input error.  Classification verdicts are data,
not exit status, unless --strict is given.

A SPEC argument is either a path to a manifold-spec JSON document or the
name of a built-in catalog entry.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from itertools import chain, repeat

import numpy as np

from . import catalog
from .classify import (DEFAULT_COUNT, DEFAULT_TOL, DEFAULT_TOL_CONST, MIN_SAMPLES,
                       classify)
from .ektau import ektau_params, rigidity_obstruction, rigidity_sweep
from .expr import DomainError, ParseError, UnboundParameter
from .frame import (DegenerateFrame, ManifoldSpec, SchemaError,
                    default_samples, load_manifold)
from .npcore import spin_coefficients
from .report import base_report, render_json, render_table
from .sampling import InsufficientSamples, in_domain
from .suites import SUITE_NAMES, run_suites, suite_passed

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_DOMAIN = 2
EXIT_INPUT = 3


class _CliError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def _load_spec(ref: str) -> ManifoldSpec:
    if os.path.exists(ref):
        try:
            with open(ref, "r", encoding="utf-8") as fh:
                return load_manifold(fh.read())
        except (OSError, UnicodeDecodeError, SchemaError, ParseError, DegenerateFrame) as exc:
            # a directory or unreadable bytes are bad input, not a failed verification
            raise _CliError(EXIT_INPUT, f"cannot load {ref}: {exc}") from exc
    try:
        return catalog.get_spec(ref)
    except catalog.UnknownEntry:
        raise _CliError(
            EXIT_INPUT,
            f"{ref!r} is neither a file nor a catalog entry "
            f"(catalog: {', '.join(catalog.names())})") from None


def _emit(report, fmt, stream=None):
    text = render_json(report) if fmt == "json" else render_table(report)
    print(text, file=stream if stream is not None else sys.stdout)


def _check_finite(option, value, low=-math.inf):
    """Exit 3 unless ``value`` is finite (a NaN would reach the report) and >= ``low``."""
    if not (math.isfinite(value) and value >= low):
        bound = "" if low == -math.inf else f" and at least {low:g}"
        raise _CliError(EXIT_INPUT, f"{option} must be finite{bound}, got {value!r}")


def cmd_spin(args) -> int:
    spec = _load_spec(args.spec)
    try:
        point = tuple(float(x) for x in args.at.split(","))
    except ValueError:
        raise _CliError(EXIT_INPUT, f"--at expects x,y,z, got {args.at!r}") from None
    if len(point) != 3:
        raise _CliError(EXIT_INPUT, "--at expects exactly three coordinates")
    for x in point:
        _check_finite("--at", x)
    if not in_domain(spec.domain, np.asarray([point]), spec.params)[0]:
        raise _CliError(EXIT_DOMAIN, f"point {point} violates the domain of {spec.name!r}")
    t0 = time.perf_counter()
    vals = spin_coefficients(spec).evaluate(point, spec.params)
    elapsed = time.perf_counter() - t0
    report = base_report(spec, timing={"seconds": elapsed} if args.timing else None)
    report["point"] = list(point)
    report["values"] = {k: [v.real, v.imag] for k, v in vals.items()}
    report["values"]["theta"] = vals["rho"].real  # the expansion and the twist
    report["values"]["omega"] = vals["rho"].imag
    _emit(report, args.format)
    return EXIT_OK


def cmd_classify(args) -> int:
    spec = _load_spec(args.spec)
    if args.samples < MIN_SAMPLES:
        raise _CliError(EXIT_INPUT, f"--samples must be at least {MIN_SAMPLES}")
    _check_finite("--tol", args.tol, 0.0)
    _check_finite("--tol-const", args.tol_const, 0.0)
    t0 = time.perf_counter()
    pts = default_samples(spec, args.samples, seed=args.seed)
    cls = classify(spec, samples=pts, tol=args.tol, tol_const=args.tol_const)
    elapsed = time.perf_counter() - t0
    report = base_report(spec, seed=args.seed, count=args.samples, tol=args.tol,
                         timing={"seconds": elapsed} if args.timing else None)
    report["classification"] = {
        "verdict": cls.verdict,
        "alpha_summary": list(cls.alpha_summary),
        "beta_summary": list(cls.beta_summary),
        "residuals": cls.residuals,
        "tol_const": cls.tol_const,
    }
    _emit(report, args.format)
    if args.strict and cls.verdict == "NotTransSasakian":
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def cmd_verify(args) -> int:
    spec = _load_spec(args.spec)
    if args.samples < 1:
        raise _CliError(EXIT_INPUT, "--samples must be at least 1")
    _check_finite("--tol", args.tol, 0.0)
    suites = list(SUITE_NAMES) if args.suite == "all" else [args.suite]
    t0 = time.perf_counter()
    pts = default_samples(spec, args.samples, seed=args.seed)
    results = run_suites(spec, suites, pts, tol=args.tol)
    elapsed = time.perf_counter() - t0
    ok = suite_passed(results)
    report = base_report(spec, seed=args.seed, count=args.samples, tol=args.tol,
                         timing={"seconds": elapsed} if args.timing else None)
    report["suites"] = results
    report["pass"] = ok
    _emit(report, args.format)
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def cmd_ektau(args) -> int:
    for option in ("kappa", "tau", "u"):
        value = getattr(args, option)
        if value is not None:
            _check_finite(f"--{option}", value)
        elif not args.sweep:  # the sweep's grid is fixed
            raise _CliError(EXIT_INPUT, f"--{option} is required unless --sweep is given")
    if args.sweep:
        kappas = np.linspace(-4.0, 4.0, 50)
        taus = np.linspace(-2.0, 2.0, 50)
        us = np.linspace(0.0, np.pi, 52)[1:-1]
        obstruction, expected_zero = rigidity_sweep(kappas, taus, us)
        kappas_s, taus_s, us_s = ([repr(v) for v in a.tolist()] for a in (kappas, taus, us))
        middles = [f",{t},{u}," for t in taus_s for u in us_s]  # a row's (tau, u), once
        flag = (",0\n", ",1\n").__getitem__
        rows = len(middles)
        writer = sys.stdout
        writer.write("kappa,tau,u,obstruction,expected_zero\n")
        # one block per kappa: 2,500 rows, about 200 KB
        for k, obs_k, zero_k in zip(kappas_s, obstruction.reshape(-1, rows),
                                    expected_zero.reshape(-1, rows)):
            writer.write("".join(chain.from_iterable(zip(
                repeat(k), middles, map(repr, obs_k.tolist()), map(flag, zero_k.tolist())))))
        return EXIT_OK
    params = ektau_params(args.kappa, args.tau)
    rep = rigidity_obstruction(params, args.u)
    report = base_report(None)
    report["ektau"] = {
        "kappa": params.kappa,
        "tau": params.tau,
        "u": args.u,
        "obstruction": rep.obstruction_value,
        "verdict": rep.verdict,
        "vertical_alpha_beta": list(rep.implied_alpha_beta),
    }
    if params.tau != 0.0:
        report["ektau"]["sigma_bracket"] = params.sigma_bracket
        report["ektau"]["delta"] = params.delta
    _emit(report, args.format)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="np3kit",
        description="spin coefficients, structure classification and identity "
                    "verification for 3-manifolds given by orthonormal frames")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, sampled=True):
        p.add_argument("--format", choices=("table", "json"), default="table")
        p.add_argument("--timing", action="store_true",
                       help="include wall-clock timing (breaks byte-stable output)")
        if sampled:
            p.add_argument("--samples", type=int, default=DEFAULT_COUNT)
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--tol", type=float, default=DEFAULT_TOL)

    p = sub.add_parser("spin", help="spin coefficients at a point")
    p.add_argument("spec", help="manifold-spec JSON file or catalog entry name")
    p.add_argument("--at", required=True, metavar="X,Y,Z")
    common(p, sampled=False)
    p.set_defaults(func=cmd_spin)

    p = sub.add_parser("classify", help="structure classification over samples")
    p.add_argument("spec")
    p.add_argument("--tol-const", type=float, default=DEFAULT_TOL_CONST)
    p.add_argument("--strict", action="store_true",
                   help="exit 1 when the verdict is NotTransSasakian")
    common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify", help="identity residual suites")
    p.add_argument("spec")
    p.add_argument("--suite", choices=SUITE_NAMES + ("all",), default="all")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("ektau", help="rigidity obstruction for the fibered geometries")
    ignored = "--sweep checks that a given value is finite, then ignores it"
    p.add_argument("--kappa", type=float, help=f"required unless --sweep is given; {ignored}")
    p.add_argument("--tau", type=float, help=f"required unless --sweep is given; {ignored}")
    p.add_argument("--u", type=float, default=1.5707963267948966,
                   help=f"tilt angle of the candidate (default pi/2); {ignored}")
    p.add_argument("--sweep", action="store_true",
                   help="the fixed 50x50x50 (kappa, tau, u) grid as CSV")
    common(p, sampled=False)
    p.set_defaults(func=cmd_ektau)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"np3kit: error: {exc}", file=sys.stderr)
        return exc.code
    except (SchemaError, ParseError, DegenerateFrame) as exc:
        print(f"np3kit: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (DomainError, UnboundParameter, InsufficientSamples) as exc:
        # a DomainError names the first sample where evaluation broke, and
        # how many samples broke
        where = "" if getattr(exc, "point", None) is None else (
            f" at sample {exc.index}, point {exc.point}, "
            f"{exc.count} of {exc.samples} samples singular")
        print(f"np3kit: domain error: {exc}{where}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
