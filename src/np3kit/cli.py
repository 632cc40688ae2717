"""Command-line surface: spin, classify, verify, ektau.

Exit codes: 0 run ok, 1 verification failure (or --strict verdict), 2
domain or numeric error, 3 input error.  Classification verdicts are data,
not exit status, unless --strict is given.

A SPEC argument is either a path to a manifold-spec JSON document or the
name of a built-in catalog entry.  NP3KIT_THREADS caps the worker threads
that run the suites of each chunk of a verify request.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import catalog
from .classify import classify
from .ektau import ektau_params, rigidity_obstruction, rigidity_sweep
from .expr import DomainError, ParseError, UnboundParameter
from .frame import (DegenerateFrame, ManifoldSpec, SchemaError,
                    default_samples, load_manifold)
from .npcore import kinematics, spin_coefficients
from .report import base_report, render_json, render_table
from .sampling import InsufficientSamples
from .suites import SUITE_NAMES, run_suites, suite_passed

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_DOMAIN = 2
EXIT_INPUT = 3


class _CliError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def _threads() -> int:
    try:
        return max(1, int(os.environ.get("NP3KIT_THREADS", "1")))
    except ValueError:
        return 1


def _load_spec(ref: str) -> ManifoldSpec:
    if os.path.exists(ref):
        try:
            with open(ref, "r", encoding="utf-8") as fh:
                return load_manifold(fh.read())
        except (SchemaError, ParseError, DegenerateFrame) as exc:
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


def _in_domain(spec: ManifoldSpec, point) -> bool:
    from . import expr as E
    for pred in spec.domain:
        try:
            if E.evaluate(pred, point, spec.params) <= 0.0:
                return False
        except DomainError:
            return False
    return True


def cmd_spin(args) -> int:
    spec = _load_spec(args.spec)
    try:
        point = tuple(float(x) for x in args.at.split(","))
    except ValueError:
        raise _CliError(EXIT_INPUT, f"--at expects x,y,z, got {args.at!r}") from None
    if len(point) != 3:
        raise _CliError(EXIT_INPUT, "--at expects exactly three coordinates")
    if not _in_domain(spec, point):
        raise _CliError(EXIT_DOMAIN, f"point {point} violates the domain of {spec.name!r}")
    t0 = time.perf_counter()
    try:
        co = spin_coefficients(spec)
        vals = co.evaluate(point, spec.params)
        kin = kinematics(co)
        from . import expr as E
        theta = E.evaluate(kin.theta, point, spec.params)
        omega = E.evaluate(kin.omega, point, spec.params)
    except (DomainError, UnboundParameter) as exc:
        raise _CliError(EXIT_DOMAIN, str(exc)) from exc
    elapsed = time.perf_counter() - t0
    report = base_report(spec, timing={"seconds": elapsed} if args.timing else None)
    report["point"] = list(point)
    report["values"] = {k: [v.real, v.imag] for k, v in vals.items()}
    report["values"]["theta"] = theta
    report["values"]["omega"] = omega
    _emit(report, args.format)
    return EXIT_OK


def cmd_classify(args) -> int:
    spec = _load_spec(args.spec)
    if args.samples < 20:
        raise _CliError(EXIT_INPUT, "--samples must be at least 20")
    t0 = time.perf_counter()
    try:
        pts = default_samples(spec, args.samples, seed=args.seed)
        cls = classify(spec, samples=pts, tol=args.tol, tol_const=args.tol_const)
    except InsufficientSamples as exc:
        raise _CliError(EXIT_DOMAIN, str(exc)) from exc
    except (DomainError, UnboundParameter) as exc:
        raise _CliError(EXIT_DOMAIN, str(exc)) from exc
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
    suites = list(SUITE_NAMES) if args.suite == "all" else [args.suite]
    t0 = time.perf_counter()
    try:
        pts = default_samples(spec, args.samples, seed=args.seed)
        results = run_suites(spec, suites, pts, tol=args.tol, threads=_threads())
    except InsufficientSamples as exc:
        raise _CliError(EXIT_DOMAIN, str(exc)) from exc
    except (DomainError, UnboundParameter) as exc:
        raise _CliError(EXIT_DOMAIN, str(exc)) from exc
    elapsed = time.perf_counter() - t0
    ok = suite_passed(results)
    report = base_report(spec, seed=args.seed, count=args.samples, tol=args.tol,
                         timing={"seconds": elapsed} if args.timing else None)
    report["suites"] = results
    report["pass"] = ok
    _emit(report, args.format)
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def cmd_ektau(args) -> int:
    params = ektau_params(args.kappa, args.tau)
    if args.sweep:
        kappas = np.linspace(-4.0, 4.0, 50)
        taus = np.linspace(-2.0, 2.0, 50)
        us = np.linspace(0.0, np.pi, 52)[1:-1]
        obstruction, expected_zero = rigidity_sweep(kappas, taus, us)
        kappas_s, taus_s, us_s = ([repr(v) for v in a.tolist()] for a in (kappas, taus, us))
        writer = sys.stdout
        writer.write("kappa,tau,u,obstruction,expected_zero\n")
        # one block per kappa: 2,500 rows, about 150 KB
        for k, obs_k, zero_k in zip(kappas_s, obstruction.tolist(), expected_zero.tolist()):
            writer.write("".join(
                f"{k},{t},{u},{o!r},{int(z)}\n"
                for t, obs_kt, zero_kt in zip(taus_s, obs_k, zero_k)
                for u, o, z in zip(us_s, obs_kt, zero_kt)))
        return EXIT_OK
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
            p.add_argument("--samples", type=int, default=100)
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--tol", type=float, default=1e-8)

    p = sub.add_parser("spin", help="spin coefficients at a point")
    p.add_argument("spec", help="manifold-spec JSON file or catalog entry name")
    p.add_argument("--at", required=True, metavar="X,Y,Z")
    common(p, sampled=False)
    p.set_defaults(func=cmd_spin)

    p = sub.add_parser("classify", help="structure classification over samples")
    p.add_argument("spec")
    p.add_argument("--tol-const", type=float, default=1e-6)
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
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--u", type=float, default=1.5707963267948966,
                   help="tilt angle of the candidate (default pi/2)")
    p.add_argument("--sweep", action="store_true", help="50x50x50 grid as CSV")
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
        print(f"np3kit: domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
