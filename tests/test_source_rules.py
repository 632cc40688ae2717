"""Source-level rules that keep one way to do each job.

Every derived table of a spec is memoized by ``frame.spec_cached`` and by
nothing else, the package runs no thread pool of its own, and no module
keeps evaluation state in a context variable: a request passes its forms
and values explicitly.
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
