"""Source-level rules that keep one way to do each job.

Every derived table of a spec is memoized by ``frame.spec_cached`` and by
nothing else, the package runs no thread pool of its own, and no module
keeps evaluation state in a context variable: a request passes its forms
and values explicitly.  A check's residual arithmetic lives in its forms,
so the suites, xi and catalog modules take no modulus and permute no array
themselves, and every check record comes from ``suites._check``.  Only
``expr`` runs passes over a tape; every other module evaluates through
``expr.sweep`` or its reductions.
"""

import ast
from pathlib import Path

import pytest

import np3kit

SOURCES = sorted(Path(np3kit.__file__).parent.glob("*.py"))

BANNED_WORDS = ("NP3KIT_THREADS", "ThreadPoolExecutor")


def cache_users(source: str) -> list[str]:
    """Top-level definitions other than ``spec_cached`` that touch ``._cache``."""
    users = []
    for top in ast.parse(source).body:
        if isinstance(top, ast.FunctionDef) and top.name == "spec_cached":
            continue
        if any(isinstance(node, ast.Attribute) and node.attr == "_cache"
               for node in ast.walk(top)):
            users.append(getattr(top, "name", f"line {top.lineno}"))
    return users


def test_sources_are_found():
    assert {"frame.py", "npcore.py", "suites.py"} <= {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_spec_cached_touches_the_spec_memo(path):
    assert cache_users(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_thread_pool_or_thread_knob(path):
    text = path.read_text(encoding="utf-8")
    assert [w for w in BANNED_WORDS if w in text] == []


def imported_modules(source: str) -> set[str]:
    """Top-level names of the modules a source imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_context_variables(path):
    assert "contextvars" not in imported_modules(path.read_text(encoding="utf-8"))


def test_import_rule_flags_contextvars():
    source = "import numpy as np\ndef f():\n    from contextvars import ContextVar\n"
    assert "contextvars" in imported_modules(source)


def test_cache_rule_flags_a_second_memo():
    source = (
        "def spec_cached(build):\n"
        "    return lambda spec: spec._cache\n"
        "def laplacian(spec):\n"
        "    if 'lap' not in spec._cache:\n"
        "        spec._cache['lap'] = 1\n"
        "    return spec._cache['lap']\n"
        "MEMO = spec._cache\n"
    )
    assert cache_users(source) == ["laplacian", "line 7"]


RESIDUAL_ARITHMETIC = ("abs", "swapaxes", "einsum")


def numpy_uses(source: str, names) -> list[str]:
    """The ``np.<name>`` attributes of ``names`` that a source uses, sorted."""
    return sorted({node.attr for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                   and node.value.id == "np" and node.attr in names})


def _is_max_residual(node) -> bool:
    return isinstance(node, ast.Constant) and node.value == "max_residual"


def max_residual_writers(source: str) -> list[str]:
    """Top-level definitions that write a ``"max_residual"`` key: as a dict
    display key, by subscript assignment, or as a keyword argument."""
    writers = []
    for top in ast.parse(source).body:
        if any((isinstance(node, ast.Dict) and any(map(_is_max_residual, node.keys)))
               or (isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
                   and _is_max_residual(node.slice))
               or (isinstance(node, ast.keyword) and node.arg == "max_residual")
               for node in ast.walk(top)):
            writers.append(getattr(top, "name", f"line {top.lineno}"))
    return writers


def test_suites_take_no_modulus_and_permute_no_array():
    for path in SOURCES:
        if path.name in ("suites.py", "xi.py", "catalog.py"):
            assert numpy_uses(path.read_text(encoding="utf-8"), RESIDUAL_ARITHMETIC) == [], path


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_suites_check_writes_a_residual_record(path):
    want = ["_check"] if path.name == "suites.py" else []
    assert max_residual_writers(path.read_text(encoding="utf-8")) == want


def test_numpy_rule_flags_residual_arithmetic():
    source = ("import numpy as np\n"
              "def checks(v):\n"
              "    gap = np.abs(v - np.swapaxes(v, 1, 2))\n"
              "    return np.einsum('nij->n', gap), np.max(gap)\n")
    assert numpy_uses(source, RESIDUAL_ARITHMETIC) == ["abs", "einsum", "swapaxes"]


def test_record_rule_flags_a_second_writer():
    source = (
        "def _check(name, value):\n"
        "    return {'name': name, 'max_residual': value}\n"
        "def fold(c, d):\n"
        "    c['max_residual'] = max(c['max_residual'], d['max_residual'])\n"
        "def widen(c):\n"
        "    return dict(c, max_residual=0.0)\n"
        "def reads(c):\n"
        "    return c['max_residual'], 'max_residual' in c\n"
        "RECORD = {'max_residual': 1.0}\n"
    )
    assert max_residual_writers(source) == ["_check", "fold", "widen", "line 9"]


PASS_DRIVER = ("_Tape", "_windows", "_points")


def pass_driver_names(source: str) -> list[str]:
    """The private names of ``expr``'s pass driver that a source references,
    as a bare name, an attribute or an import, sorted."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
    return sorted(found.intersection(PASS_DRIVER))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_expr_runs_the_pass_loop(path):
    if path.name != "expr.py":
        assert pass_driver_names(path.read_text(encoding="utf-8")) == []


def test_pass_driver_rule_flags_a_second_loop():
    source = (
        "from . import expr as E\n"
        "from .expr import _windows\n"
        "def fold(roots, points):\n"
        "    pts = E._points(points)\n"
        "    tape = E._Tape(roots, {}, E.CHUNK)\n"
        "    return [tape.run(pts[s:]) for s, _ in _windows(len(pts), tape.width)]\n"
        "def halton_points(n):\n"
        "    return E.sweep([], [], None, len)\n"
    )
    assert pass_driver_names(source) == ["_Tape", "_points", "_windows"]
