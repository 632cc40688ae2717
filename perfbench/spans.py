"""In-memory span recorder for the traced run, and the arithmetic over spans.

A span is the list ``[name, start, end, parent, request, extra]``: ``parent``
is the index of the enclosing span in the same process (-1 for a root),
``request`` the id of the request being served, ``extra`` a small dict or
None.  Spans are kept in a list and handed back to the parent process when
the child ends; nothing is written while a request runs.

Spans come from the benchmark's own code, never from ``src/``: a request is
wrapped in a root span, and ``child.install`` replaces public functions of
the np3kit modules by timing wrappers.  Because the modules bind each other's
functions by name (``from .frame import riemann``), a function is replaced
in every np3kit namespace that holds it.  ``expr.eval_batch`` and
``expr.differentiate`` are always reached through the module attribute, so
wrapping them sees every evaluation and every derivative.

This module imports neither numpy nor np3kit, so the parent process can use
the arithmetic half without loading the program.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

# Span names of the symbolic stages whose build time is reported
# stage-exclusive: a stage built while building another is subtracted from
# the outer one, so the build metrics of one request do not overlap.
STAGES = ("frame.structure_functions", "frame.connection_table", "frame.riemann",
          "npcore.spin_coefficients")


class Tracer:
    """Records spans of one process.  Single-threaded by design."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.request = None
        self.gc_collections = 0
        self.gc_seconds = 0.0
        self._gc_start = None

    def _open(self, name, extra=None):
        rec = [name, time.perf_counter(), 0.0,
               self.stack[-1] if self.stack else -1, self.request, extra]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec):
        rec[2] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name, extra=None):
        rec = self._open(name, extra)
        try:
            yield rec
        finally:
            self._close(rec)

    @contextmanager
    def request_span(self, request_id):
        """Root span of one request; every span opened inside carries its id."""
        self.request = request_id
        try:
            with self.span("request") as rec:
                yield rec
        finally:
            self.request = None

    def wrap(self, fn, name, extra_of=None):
        """Timing wrapper around ``fn``.

        ``name`` is a string, or a callable of the call's arguments that
        returns the span name.  ``extra_of(args, kwargs)`` may return a dict
        stored with the span (for example the number of points).
        """
        def wrapper(*args, **kwargs):
            rec = self._open(name if isinstance(name, str) else name(*args, **kwargs),
                             extra_of(args, kwargs) if extra_of else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    def gc_callback(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_seconds += time.perf_counter() - self._gc_start
            self.gc_collections += 1
            self._gc_start = None


def replace_everywhere(original, replacement, package="np3kit"):
    """Rebind ``original`` to ``replacement`` in every module of ``package``."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == package or modname.startswith(package + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


# --------------------------------------------------------------------------
# arithmetic over recorded spans (parent side)

def self_times(spans) -> list:
    """Per-span self time: duration minus the durations of its children.

    Spans of one process nest properly (single thread), so children never
    overlap and their durations can be summed.
    """
    child_sum = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child_sum[s[3]] += s[2] - s[1]
    return [(s[2] - s[1]) - c for s, c in zip(spans, child_sum)]


def stage_exclusive(spans) -> list:
    """Duration of each span minus the stage spans built inside it.

    Only the nearest enclosing stage of a stage span is charged, so nested
    builds are subtracted once.  Non-stage spans keep their full duration.
    """
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[0] not in STAGES:
            continue
        p = s[3]
        while p >= 0 and spans[p][0] not in STAGES:
            p = spans[p][3]
        if p >= 0:
            out[p] -= s[2] - s[1]
    return out


def summarize(spans) -> dict:
    """name -> {"calls", "incl_s", "self_s", "stage_s"} over one process's spans."""
    selfs = self_times(spans)
    excl = stage_exclusive(spans)
    table: dict = {}
    for s, st, ex in zip(spans, selfs, excl):
        row = table.setdefault(s[0], {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "stage_s": 0.0})
        row["calls"] += 1
        row["incl_s"] += s[2] - s[1]
        row["self_s"] += st
        row["stage_s"] += ex
    return table


def merge_tables(tables) -> dict:
    out: dict = {}
    for table in tables:
        for name, row in table.items():
            acc = out.setdefault(name, dict.fromkeys(row, 0))
            for k, v in row.items():
                acc[k] += v
    return out


# spans whose self time is harness code, not a layer of the program: the
# request root, and the step-by-step replay that stands in for `cmd_verify`
GLUE = ("request", "cli.verify")


def request_coverage(spans) -> tuple:
    """(covered seconds, request seconds) over the request root spans.

    Time is covered when it lies in a span of a named layer, that is any
    span below the request root that is not in ``GLUE``.
    """
    selfs = self_times(spans)
    total = uncovered = 0.0
    for s, st in zip(spans, selfs):
        if s[4] is None:
            continue
        if s[0] == "request":
            total += s[2] - s[1]
        if s[0] in GLUE:
            uncovered += st
    return total - uncovered, total
