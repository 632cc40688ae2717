"""np3kit benchmark: cold CLI verification, a cold regression pass, a warm session.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify_10k --seed 1 --seconds 55 --trace 0

Every request runs in a child process started from the checkout's ``src``
(``perfbench/child.py``), one at a time: a closed loop with one client.
With ``--trace 0`` the requests repeat until ``--seconds`` have passed and
the end-to-end metrics are printed.  With ``--trace 1`` one fixed round of
requests is run three times, plain, under the span recorder, and under the
span recorder with memory tracing; the per-layer metrics come from the
recorded spans, the spans are written to ``perfbench/out/``, and the counts
of the two recorded runs must agree exactly.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the metric names and units are
those of ``BENCHMARK.json``.  See ``perfbench/README.md`` for what each
workload and metric stands for.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import spans
import validate

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
OUT_DIR = os.path.join(HERE, "out")

# requests of one round, per workload; --tiny shrinks them for the self-test
SIZES = {
    "verify_10k": {"samples": 10000, "entries": ("flat_radial", "example1")},
    "regression_cold": {"count": 100},
    "session_points": {"requests": 1000},
}
TINY = {"samples": 200, "count": 20, "requests": 20}

CHILD_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    """The benchmark cannot run here (for example, no program to measure)."""


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env.pop("NP3KIT_THREADS", None)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0", PYTHONPATH=os.path.join(root, "src"))
    return env


def spawn(cfg: dict, env: dict, root: str, deadline: float) -> dict:
    """Run one child to its end; returns its result, or ``error``."""
    timeout = max(1.0, min(CHILD_TIMEOUT_S, deadline - time.monotonic()))
    try:
        proc = subprocess.run([sys.executable, CHILD, json.dumps(cfg)], env=env, cwd=root,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"child timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"error": f"child exit code {proc.returncode}: {' | '.join(tail)}"}
    return json.loads(lines[-1])


def round_configs(workload: str, seed: int, index: int, tiny: bool, trace: int) -> list:
    """The children of round ``index``; their inputs depend only on (seed, index)."""
    size = dict(SIZES[workload], **({k: v for k, v in TINY.items() if k in SIZES[workload]}
                                    if tiny else {}))
    base = {"workload": workload, "seed": seed * 1000 + index, "trace": trace}
    if workload == "verify_10k":
        return [dict(base, entry=e, samples=size["samples"]) for e in size["entries"]]
    return [dict(base, **size)]


def run_round(workload, seed, index, tiny, trace, env, root, deadline) -> list:
    children = []
    for cfg in round_configs(workload, seed, index, tiny, trace):
        cfg["src"] = os.path.join(root, "src")
        out = spawn(cfg, env, root, deadline)
        if "error" in out:
            # every request the child was to serve counts as attempted and failed
            n = cfg.get("requests", 1)
            out.update(times=[], points=[], failures=[out["error"]] * n)
        children.append(out)
    return children


def quantile(values, q: int) -> float:
    """q-th percentile, linear between order statistics (q in 1..99)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def trimmed_mean(values, cut: float = 0.1) -> float:
    """Mean of ``values`` without the lowest and the highest ``cut`` of them."""
    values = sorted(values)
    k = int(len(values) * cut)
    return statistics.fmean(values[k:len(values) - k])


def end_to_end(rounds: list) -> dict:
    """Trimmed means over the run's complete rounds of each round's figures.

    A round is a verify pair, a regression pass or one session child, so a
    round's p99 is taken over at most 1,000 requests (ten beyond it in a
    session).  Times are the children's CPU seconds (see ``child.Requests``);
    the rounds' wall time is printed alongside.  On a shared host a child
    runs fast or up to twice as slow for the whole of its second or so, so
    round times cluster at both ends: the median of rounds jumps between the
    clusters from run to run, while the mean of the middle 80% moves
    smoothly, and one stalled round still moves no metric.
    """
    whole = [r for r in rounds if all("error" not in c for c in r)]
    if not whole:
        raise BenchError("no round completed: " + "; ".join(
            c["failures"][0] for r in rounds for c in r if c["failures"])[:500])
    per_round = []
    for r in whole:
        times = [t for c in r for t in c["times"]]
        cpu = sum(times)
        per_round.append({
            "points_per_cpu_s": sum(p for c in r for p in c["points"]) / cpu,
            "requests_per_cpu_s": len(times) / cpu,
            "request_cpu_p50_ms": statistics.median(times) * 1e3,
            "request_cpu_p99_ms": quantile(times, 99) * 1e3,
            "pass_cpu_s": cpu,
        })
    kids = [c for r in whole for c in r]
    out = {"setup_s": statistics.median(c["setup_cpu_s"] for c in kids)}
    out.update({k: trimmed_mean(f[k] for f in per_round) for k in per_round[0]})
    walls = [sum(w for c in r for w in c["walls"]) for r in whole]
    print(f"{len(whole)} rounds; pass {out['pass_cpu_s']:.4g} CPU s, "
          f"{trimmed_mean(walls):.4g} wall s (trimmed means)")
    out["peak_rss_mb"] = max(c["hwm_mb"] for c in kids)
    out["rss_growth_mb"] = max(c["rss_growth_mb"] for c in kids)
    return out


def src_lines(root: str) -> int:
    total = 0
    for dirpath, dirnames, filenames in os.walk(os.path.join(root, "src")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def counts_of(children: list) -> dict:
    """Deterministic counts of one recorded run: calls, points, rows, nodes."""
    counts = dict.fromkeys(("expr.eval_batch.calls", "expr.eval_batch.points",
                            "expr.differentiate.calls", "cli.ektau_sweep.rows"), 0)
    for c in children:
        for s in c["spans"]:
            if s[0] == "expr.eval_batch":
                counts["expr.eval_batch.calls"] += 1
                counts["expr.eval_batch.points"] += s[5]["n"]
            elif s[0] == "expr.differentiate":
                counts["expr.differentiate.calls"] += 1
        for k, v in c["counts"].items():
            # rows add up over children; node counts are a property of the
            # catalog and equal in every child
            counts[k] = counts[k] + v if k.endswith(".rows") else v
    return counts


def per_layer(plain: list, traced: list, memory: list, root: str) -> tuple:
    """(metrics, self-time table, mismatched counts) of one traced run."""
    table = spans.merge_tables(spans.summarize(c["spans"]) for c in traced)

    def incl(name):
        return table.get(name, {}).get("incl_s", 0.0)

    m = {
        "sampling.default_samples.s": incl("sampling.default_samples"),
        "expr.eval_batch.s": incl("expr.eval_batch"),
        "expr.differentiate.s": incl("expr.differentiate"),
        "frame.load_manifold.s": incl("frame.load_manifold"),
        "frame.curvature_values_many.s": incl("frame.curvature_values_many"),
        "npcore.SpinCoefficients.evaluate.s": incl("npcore.SpinCoefficients.evaluate"),
        "classify.classify.s": incl("classify.classify"),
        "xi.parallel_and_collinearity.s": incl("xi.parallel_and_collinearity"),
        "report.render_json.s": incl("report.render_json"),
        "cli.verify.self_s": table.get("cli.verify", {}).get("self_s", 0.0),
        "cli.ektau_sweep.s": incl("cli.ektau_sweep"),
        "ektau.rigidity_sweep.s": incl("ektau.rigidity_sweep"),
        "ektau.sol_obstruction.s": incl("ektau.sol_obstruction"),
        "gc.collections": sum(c["gc"][0] for c in traced),
        "gc.s": sum(c["gc"][1] for c in traced),
        "repo.src_lines": src_lines(root),
    }
    for stage in spans.STAGES:
        m[f"{stage}.build_s"] = table.get(stage, {}).get("stage_s", 0.0)
    for suite in validate.VERIFY_CHECKS:
        m[f"suites.{suite}.build_s"] = incl(f"suites.{suite}.build")
        m[f"suites.{suite}.eval_s"] = incl(f"suites.{suite}.eval")
        m[f"suites.{suite}.peak_mb"] = max(
            [s[5]["peak_mb"] for c in memory for s in c["spans"]
             if s[0] == f"suites.{suite}.eval" and s[5]] or [0.0])
    for name in validate.VERDICTS:
        m[f"catalog.run.{name}.s"] = incl(f"catalog.run.{name}")

    first, second = counts_of(traced), counts_of(memory)
    m.update(first)
    mismatched = sorted(k for k in set(first) | set(second) if first.get(k) != second.get(k))

    covered = total = 0.0
    for c in traced:
        cv, tt = spans.request_coverage(c["spans"])
        covered, total = covered + cv, total + tt
    m["trace.coverage_frac"] = covered / total if total else 0.0
    plain_s = sum(t for c in plain for t in c["times"])
    traced_s = sum(t for c in traced for t in c["times"])
    m["trace.overhead_frac"] = traced_s / plain_s - 1.0 if plain_s else 0.0
    return m, table, mismatched


def write_spans(children: list, path: str):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for k, c in enumerate(children):
            for i, s in enumerate(c["spans"]):
                rec = {"process": k, "id": i, "name": s[0], "start": s[1], "end": s[2],
                       "parent": s[3] if s[3] >= 0 else None, "request": s[4]}
                if s[5]:
                    rec.update(s[5])
                fh.write(json.dumps(rec) + "\n")


def print_table(table: dict):
    print(f"{'layer span':44s} {'calls':>8s} {'incl_s':>10s} {'self_s':>10s}")
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"{name:44s} {row['calls']:8d} {row['incl_s']:10.4f} {row['self_s']:10.4f}")


def load_spec(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def select(metrics: dict, declared: list) -> dict:
    missing = [d["name"] for d in declared if d["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    return {d["name"]: {"value": metrics[d["name"]], "unit": d["unit"]} for d in declared}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(SIZES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest inputs, for the benchmark's own tests")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "np3kit", "__init__.py")):
        raise BenchError(f"no np3kit sources under {os.path.join(root, 'src')}; "
                         "run from the root of a checkout")
    spec = load_spec(root)
    env = child_env(root)
    start = time.monotonic()
    hard_deadline = start + 170.0

    if args.trace == 0:
        rounds = []
        while not rounds or time.monotonic() - start < args.seconds:
            rounds.append(run_round(args.workload, args.seed, len(rounds), args.tiny, 0,
                                    env, root, hard_deadline))
            if time.monotonic() > hard_deadline:
                break
        children = [c for r in rounds for c in r]
        metrics = end_to_end(rounds)
        declared = spec["end_to_end"]
        mismatched = []
    else:
        # one unmeasured round first: the first child after a pause runs
        # slower (cold file and CPU caches), which would bias the overhead
        run_round(args.workload, args.seed, 0, args.tiny, 0, env, root, hard_deadline)
        plain, traced, memory = (run_round(args.workload, args.seed, 0, args.tiny, level,
                                           env, root, hard_deadline) for level in (0, 1, 2))
        children = plain + traced + memory
        if any("error" in c for c in children):
            raise BenchError("; ".join(c["error"] for c in children if "error" in c))
        metrics, table, mismatched = per_layer(plain, traced, memory, root)
        path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
        write_spans(traced, path)
        print_table(table)
        print(f"spans: {sum(len(c['spans']) for c in traced)} written to "
              f"{os.path.relpath(path, root)}")
        if mismatched:
            print(f"counts differ between the two recorded runs: {mismatched}")
        declared = spec["per_layer"]

    attempted = sum(len(c["times"]) if "error" not in c else len(c["failures"])
                    for c in children)
    failures = [f for c in children for f in c["failures"]]
    first = next((c for c in children if "error" not in c), {})
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(children)} children, {attempted} requests; python {first.get('python')}, "
          f"numpy {first.get('numpy')}, nproc {os.cpu_count()} "
          f"(affinity {len(os.sched_getaffinity(0))}); children run with NP3KIT_THREADS unset, "
          "OMP/OPENBLAS/MKL_NUM_THREADS=1, PYTHONHASHSEED=0")
    for f in failures[:5]:
        print(f"FAILED {f}")
    print(f"failed_frac {len(failures) / attempted:.6g} ({len(failures)}/{attempted})")
    out = select(metrics, declared)
    for name, mv in out.items():
        print(f"{name:44s} {mv['value']:.6g} {mv['unit']}")
    result = {"correct": not failures and not mismatched, "attempted": attempted,
              "failed": len(failures), "metrics": out}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
