"""One benchmark child process: cold start, set-up, requests, report.

Run by ``run.py`` as ``python3 perfbench/child.py '<json config>'`` with
``PYTHONPATH`` pointing at the checkout's ``src``.  The config names the
workload, its seed and size, and the trace level:

* 0: plain requests, the only mode whose times are end-to-end metrics;
* 1: the same requests replayed under the span recorder;
* 2: as 1, and the peak traced memory of each suite evaluation.

The child prints one JSON object on its last stdout line.  Program output
(the CLI's JSON report, the sweep CSV) is captured in memory and checked by
``validate``; a request that raises or fails its check counts as failed.
"""

import time

import np3kit  # noqa: F401  (cold import: the time to get here is set-up)
import np3kit.cli  # noqa: F401

# CPU seconds this process has used to get here, interpreter start-up included
READY_CPU = time.process_time()

import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
import traceback  # noqa: E402
import weakref  # noqa: E402

import numpy as np  # noqa: E402

from np3kit import catalog, cli, ektau, expr, frame, npcore, report, suites, xi  # noqa: E402

import spans  # noqa: E402
import validate  # noqa: E402

CLASSIFY = sys.modules["np3kit.classify"]  # the package re-exports a function of that name


def _status_mb(field: str) -> float:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"{field} not in /proc/self/status")


@contextlib.contextmanager
def _no_span(name, extra=None):
    yield None


class Requests:
    """Times requests and records their outcome; opens the request root span.

    ``times`` are CPU seconds of this process (user + system), ``walls`` wall
    seconds.  The process is single-threaded, so on an idle machine the two
    agree; on a shared host, wall time also counts the periods in which the
    host ran other tenants instead of this process.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.times: list = []
        self.walls: list = []
        self.points: list = []
        self.failures: list = []

    def run(self, points, fn, check):
        """Time ``fn()``, then run ``check(result)`` untimed."""
        rid = len(self.times)
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            if self.tracer is None:
                out = fn()
            else:
                with self.tracer.request_span(rid):
                    out = fn()
        except Exception as exc:  # a failed request is data, not the end of the run
            out, reason = None, f"{type(exc).__name__}: {exc}"
        else:
            reason = None
        self.times.append(time.process_time() - c0)
        self.walls.append(time.perf_counter() - t0)
        self.points.append(points)
        if reason is None:
            reason = check(out)
        if reason is not None:
            self.failures.append(f"request {rid}: {reason}")


# --------------------------------------------------------------------------
# workloads

def verify_cli(cfg, reqs, span):
    """One `np3kit verify` request through the CLI entry point."""
    entry, n, seed = cfg["entry"], cfg["samples"], cfg["seed"]
    argv = ["verify", entry, "--suite", "all", "--samples", str(n), "--seed", str(seed),
            "--format", "json"]

    def request():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    reqs.run(n, request, lambda out: (f"exit code {out[0]}" if out[0] != 0
                                      else validate.check_verify(out[1], entry, n, seed)))


def verify_replay(cfg, reqs, span):
    """The same request as `verify_cli`, one public stage at a time.

    The stages are built in dependency order before any suite runs, each
    suite is first called on an 8-point array (its build) and then at full
    size in CLI order (its evaluation, sharing the evaluation memo), and
    the report is rendered as the CLI renders it.
    """
    entry, n, seed = cfg["entry"], cfg["samples"], cfg["seed"]

    def request():
        with span("cli.verify"):
            spec = catalog.get_spec(entry)
            pts = frame.default_samples(spec, n, seed=seed)
            frame.structure_functions(spec)
            frame.connection_table(spec)
            frame.riemann(spec)
            npcore.spin_coefficients(spec)
            for name in suites.SUITE_NAMES:
                suites.run_suite(spec, name, pts[:8].copy())
            frame.curvature_values_many(spec, pts)
            results = {name: suites.run_suite(spec, name, pts) for name in suites.SUITE_NAMES}
            rep = report.base_report(spec, seed=seed, count=n, tol=suites.DEFAULT_TOL)
            rep["suites"] = results
            rep["pass"] = suites.suite_passed(results)
            return report.render_json(rep)

    reqs.run(n, request, lambda text: validate.check_verify(text, entry, n, seed))


def regression(cfg, reqs, span):
    """One maintainer's regression pass: catalog, Sol obstruction, rigidity CSV."""
    count, seed = cfg["count"], cfg["seed"]
    rows = []

    def request():
        with span("catalog.run_all"):
            results = catalog.run_all(count=count, seed=seed)
        sol = ektau.sol_obstruction()
        buf = io.StringIO()
        with span("cli.ektau_sweep"):
            with contextlib.redirect_stdout(buf):
                code = cli.main(["ektau", "--kappa", "0", "--tau", "0", "--sweep"])
        return results, sol, code, buf.getvalue()

    def check(out):
        results, sol, code, csv = out
        rows.append(csv.count("\n") - 1)
        return (validate.check_run_all(results) or validate.check_sol(sol)
                or (f"ektau exit code {code}" if code != 0 else None)
                or validate.check_sweep(csv))

    # sample points verified per pass: every catalog entry, plus the Sol sweep
    reqs.run(count * len(catalog.names()) + 50, request, check)
    return {"cli.ektau_sweep.rows": rows[0] if rows else 0}


def session_setup(cfg):
    """Load every spec, build its spin coefficients, plan and pre-check the requests.

    Requests come in blocks of ten: nine `SpinCoefficients.evaluate` calls,
    one per entry other than the block's classify entry, in seeded order,
    then one `classify` over 200 fresh samples.  The classify entry cycles
    through a seeded permutation, so every entry is evaluated and
    classified equally often.  Each entry's points are drawn once, and
    their batched values, the reference for the one-point calls, are
    computed here.
    """
    rng = random.Random(cfg["seed"])
    names = catalog.names()
    specs = {n: catalog.get_spec(n) for n in names}
    coeffs = {n: npcore.spin_coefficients(specs[n]) for n in names}
    blocks = -(-cfg["requests"] // 10)
    order = names[:]
    rng.shuffle(order)
    plan, n_eval = [], dict.fromkeys(names, 0)
    for b in range(blocks):
        target = order[b % len(order)]
        others = [n for n in names if n != target]
        rng.shuffle(others)
        for n in others:
            plan.append(("evaluate", n, n_eval[n]))
            n_eval[n] += 1
        plan.append(("classify", target, rng.randrange(2**31)))
    points, batched = {}, {}
    for n in names:
        pts = frame.default_samples(specs[n], n_eval[n], seed=cfg["seed"])
        points[n] = [tuple(float(x) for x in row) for row in pts]
        batched[n] = {k: getattr(coeffs[n], k).evaluate_many(pts, specs[n].params)
                      for k in validate.SPIN_KEYS}
    return specs, coeffs, plan, points, batched


def session(reqs, state):
    specs, coeffs, plan, points, batched = state
    for kind, entry, arg in plan:
        spec = specs[entry]
        if kind == "evaluate":
            point = points[entry][arg]
            reqs.run(1, lambda: coeffs[entry].evaluate(point, spec.params),
                     lambda out: validate.check_point(out, batched[entry], arg))
        else:
            def request():
                pts = frame.default_samples(spec, 200, seed=arg)
                return CLASSIFY.classify(spec, samples=pts).verdict
            reqs.run(200, request, lambda verdict: validate.check_verdict(verdict, entry))


# --------------------------------------------------------------------------
# tracing

def install(tracer, memory):
    """Wrap the public layer functions; returns the (original, wrapper) pairs."""
    pairs = []

    def put(original, wrapper):
        spans.replace_everywhere(original, wrapper)
        pairs.append((original, wrapper))

    for mod, attr, name in (
            (frame, "load_manifold", "frame.load_manifold"),
            (frame, "default_samples", "sampling.default_samples"),
            (frame, "structure_functions", "frame.structure_functions"),
            (frame, "connection_table", "frame.connection_table"),
            (frame, "riemann", "frame.riemann"),
            (frame, "curvature_values_many", "frame.curvature_values_many"),
            (npcore, "spin_coefficients", "npcore.spin_coefficients"),
            (CLASSIFY, "classify", "classify.classify"),
            (xi, "parallel_and_collinearity", "xi.parallel_and_collinearity"),
            (ektau, "sol_obstruction", "ektau.sol_obstruction"),
            (ektau, "rigidity_sweep", "ektau.rigidity_sweep"),
            (report, "render_json", "report.render_json"),
            (expr, "differentiate", "expr.differentiate")):
        original = getattr(mod, attr)
        put(original, tracer.wrap(original, name))

    original = expr.eval_batch
    put(original, tracer.wrap(original, "expr.eval_batch",
                              lambda a, k: {"n": len(a[1] if len(a) > 1 else k["points"])}))
    original = catalog.run
    put(original, tracer.wrap(original, lambda name, *a, **k: f"catalog.run.{name}"))

    # a suite's first call on a spec builds its forms; later calls evaluate
    called = weakref.WeakKeyDictionary()
    original_suite = suites.run_suite

    def run_suite(spec, name, *args, **kwargs):
        done = called.setdefault(spec, set())
        phase = "eval" if name in done else "build"
        done.add(name)
        with tracer.span(f"suites.{name}.{phase}") as rec:
            if not (memory and phase == "eval"):
                return original_suite(spec, name, *args, **kwargs)
            tracemalloc.start()
            try:
                return original_suite(spec, name, *args, **kwargs)
            finally:
                rec[5] = {"peak_mb": tracemalloc.get_traced_memory()[1] / 2**20}
                tracemalloc.stop()
    put(original_suite, run_suite)

    evaluate = npcore.SpinCoefficients.evaluate
    npcore.SpinCoefficients.evaluate = tracer.wrap(evaluate, "npcore.SpinCoefficients.evaluate")
    pairs.append((evaluate, None))
    return pairs


def uninstall(pairs):
    for original, wrapper in pairs:
        if wrapper is None:
            npcore.SpinCoefficients.evaluate = original
        else:
            spans.replace_everywhere(wrapper, original)


def count_nodes(roots) -> int:
    """Distinct DAG nodes reachable from ``roots`` through the public node fields."""
    seen, stack = set(), list(roots)
    while stack:
        e = stack.pop()
        if id(e) in seen:
            continue
        seen.add(id(e))
        if isinstance(e, expr.Unary):
            stack.append(e.arg)
        elif isinstance(e, expr.Binary):
            stack.extend((e.left, e.right))
    return len(seen)


def _flat(table):
    return [x for t in table for x in _flat(t)] if isinstance(table, tuple) else [table]


def stage_nodes() -> dict:
    """Node counts of each public stage object, for every catalog entry."""
    out = {}
    for name in catalog.names():
        spec = catalog.get_spec(name)
        curv = frame.riemann(spec)
        co = npcore.spin_coefficients(spec)
        lap = xi.rough_laplacian_xi(spec)
        div = xi.divergence_xi(spec)
        roots = {
            "frame.structure_functions": _flat(frame.structure_functions(spec).c),
            "frame.connection_table": _flat(frame.connection_table(spec).gamma),
            "frame.riemann": _flat(curv.riemann) + _flat(curv.ricci) + [curv.scalar],
            "npcore.spin_coefficients": [x for k in validate.SPIN_KEYS
                                         for x in (getattr(co, k).re, getattr(co, k).im)],
            "xi.rough_laplacian_xi": list(lap.generic) + list(lap.np_closed),
            "xi.divergence_xi": [div.direct, div.np_form],
        }
        for stage, rs in roots.items():
            out[f"{stage}.nodes.{name}"] = count_nodes(rs)
    return out


# --------------------------------------------------------------------------

def main(cfg) -> dict:
    src = os.path.realpath(cfg["src"])
    if not os.path.realpath(np3kit.__file__).startswith(src + os.sep):
        raise RuntimeError(f"np3kit imported from {np3kit.__file__}, not from {src}")
    level = cfg["trace"]
    tracer = spans.Tracer() if level else None
    span = tracer.span if tracer else _no_span
    pairs = []
    if tracer:
        pairs = install(tracer, memory=level == 2)
        gc.callbacks.append(tracer.gc_callback)
    reqs = Requests(tracer)
    extra = {}
    workload = cfg["workload"]
    state = None
    if workload == "session_points":
        state = session_setup(cfg)
    setup_cpu_s = time.process_time() if workload == "session_points" else READY_CPU
    rss_ready = _status_mb("VmRSS")
    if workload == "verify_10k":
        (verify_replay if tracer else verify_cli)(cfg, reqs, span)
    elif workload == "regression_cold":
        extra = regression(cfg, reqs, span)
    elif workload == "session_points":
        session(reqs, state)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    out = {
        "setup_cpu_s": setup_cpu_s,
        "times": reqs.times,
        "walls": reqs.walls,
        "points": reqs.points,
        "failures": reqs.failures,
        "rss_growth_mb": _status_mb("VmRSS") - rss_ready,
        "hwm_mb": _status_mb("VmHWM"),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    if tracer:
        gc.callbacks.remove(tracer.gc_callback)
        uninstall(pairs)
        out.update(spans=tracer.spans, gc=[tracer.gc_collections, tracer.gc_seconds],
                   counts={**extra, **stage_nodes()})
    return out


if __name__ == "__main__":
    try:
        result = main(json.loads(sys.argv[1]))
    except Exception:
        traceback.print_exc()
        sys.exit(1)
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
