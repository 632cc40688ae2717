"""Source-level rules that keep one way to do each job.

Every derived table of a spec is memoized by ``frame.spec_cached`` and by
nothing else, the package runs no thread pool of its own, and no module
keeps evaluation state in a context variable: a request passes its forms
and values explicitly.  A check's residual arithmetic lives in its forms,
so the suites, xi and catalog modules take no modulus and permute no array
themselves, every check record comes from ``suites._record`` and every
residual record from ``suites._check``.  Only
``expr`` runs passes over a tape; every other module evaluates through
``expr.sweep`` or its reductions.  Only ``expr`` makes nodes, so its
constructors may take ``type(x) is Const`` to mean "a constant node".  Only
``classify``'s one kappa = sigma = 0 gate makes a NotTransSasakian, and
only ``npcore.contract`` skips the zero weights of a null-frame contraction,
so no second contraction grows back beside it.  Outside ``frame``, no
definition contracts tables with ``np.einsum`` but ``ektau.sol_obstruction``'s
one S(w, w), so no hand-written curvature engine grows back beside the
pipeline.  Only a pinned few
definitions take a frame derivative D, Dbar or xi of an NP scalar: the one
statement of the Sachs equations, the Bianchi pair, the gauge and weighted
operators and the rough Laplacian, so no closed form re-derives one by
hand.  The forms are the numeric surface: a caller evaluates a suite's forms with
``cexpr.eval_forms`` itself, and only a pinned few definitions of the
package call it, so no evaluator wraps a form under a name of its own, and
no single-point or sampled-array twin of it grows back beside the three
pinned survivors that the benchmark still calls.  No
module keeps a table of its own at module level but ``expr._INTERN`` and
the ``catalog._ENTRIES`` registry: a derived value lives on the object it
derives from.  No module of the package or its tests imports a name at top
level that it never reads, and neither does a demo.  No function of the
package takes a parameter that its body never reads: a dead knob.  Every
name in a module's ``__all__`` is an attribute of the module, so a deleted
definition takes its export with it.
"""

import ast
import importlib
from pathlib import Path

import pytest

import np3kit

SOURCES = sorted(Path(np3kit.__file__).parent.glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))
DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))

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
    assert "03_spin_coefficients.py" in {p.name for p in DEMOS}


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


TABLES = {"expr.py": ["_INTERN"], "catalog.py": ["_ENTRIES"]}


def _is_empty_table(value) -> bool:
    if isinstance(value, (ast.Dict, ast.List, ast.Set)):
        return not (value.keys if isinstance(value, ast.Dict) else value.elts)
    return (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
            and value.func.id in ("dict", "list", "set") and not value.args
            and not value.keywords)


def module_tables(source: str) -> list[str]:
    """The names a source binds at module level to an empty dict, list or
    set, as a display or a bare ``dict()``, ``list()`` or ``set()`` call."""
    names = []
    for top in ast.parse(source).body:
        if isinstance(top, ast.Assign) and _is_empty_table(top.value):
            names += [t.id for t in top.targets if isinstance(t, ast.Name)]
        elif (isinstance(top, ast.AnnAssign) and top.value is not None
              and _is_empty_table(top.value) and isinstance(top.target, ast.Name)):
            names.append(top.target.id)
    return names


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_level_table_but_the_intern_table_and_registry(path):
    assert module_tables(path.read_text(encoding="utf-8")) == TABLES.get(path.name, [])


def test_table_rule_flags_a_module_global_cache():
    source = (
        "_DIFF_CACHE: dict = {}\n"
        "SEEN = set()\n"
        "ROWS = MORE = []\n"
        "MEMO = dict()\n"
        "TABLE = {'add': 1}\n"
        "def differentiate(f):\n"
        "    memo = {}\n"
        "    return memo\n"
    )
    assert module_tables(source) == ["_DIFF_CACHE", "SEEN", "ROWS", "MORE", "MEMO"]


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


def _numpy_attributes(tree, names) -> list[str]:
    """The ``np.<name>`` attributes of ``names`` under ``tree``, once per use."""
    return [node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "np" and node.attr in names]


def numpy_uses(source: str, names) -> list[str]:
    """The ``np.<name>`` attributes of ``names`` that a source uses, sorted."""
    return sorted(set(_numpy_attributes(ast.parse(source), names)))


def numpy_users(source: str, names) -> list[str]:
    """Top-level definitions that use an ``np.<name>`` of ``names``, once per use."""
    return [getattr(top, "name", f"line {top.lineno}") for top in ast.parse(source).body
            for _ in _numpy_attributes(top, names)]


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


# the S(w, w) contraction of the Ricci table with one null vector per tilt
EINSUM_USERS = {"ektau.py": ["sol_obstruction"]}


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "frame.py"],
                         ids=lambda p: p.name)
def test_no_second_curvature_engine_contracts_tables_with_einsum(path):
    assert numpy_users(path.read_text(encoding="utf-8"), ("einsum",)) == \
        EINSUM_USERS.get(path.name, [])


def test_einsum_rule_flags_a_hand_written_curvature():
    source = ("import numpy as np\n"
              "def curvature(c, g):\n"
              "    R = np.einsum('jkm,iml->ijkl', g, g) - np.einsum('ijm,mkl->ijkl', c, g)\n"
              "    return R, np.einsum('ijki->jk', R)\n"
              "class Model:\n"
              "    def ricci(self):\n"
              "        return np.einsum('ijki->jk', self.R)\n"
              "def trace(S):\n"
              "    return np.trace(S)\n"
              "SCALAR = np.einsum('ii', np.eye(3))\n")
    assert numpy_users(source, ("einsum",)) == ["curvature"] * 3 + ["Model", "line 10"]


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


def _is_key(node, key) -> bool:
    return isinstance(node, ast.Constant) and node.value == key


def record_builders(source: str) -> list[str]:
    """Top-level definitions that build a dict display with both a ``"name"``
    and a ``"pass"`` key: a check record."""
    return [getattr(top, "name", f"line {top.lineno}") for top in ast.parse(source).body
            if any(isinstance(node, ast.Dict)
                   and any(_is_key(k, "name") for k in node.keys)
                   and any(_is_key(k, "pass") for k in node.keys)
                   for node in ast.walk(top))]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_suites_record_builds_a_check_record(path):
    want = ["_record"] if path.name == "suites.py" else []
    assert record_builders(path.read_text(encoding="utf-8")) == want


def test_record_constructor_rule_flags_a_second_builder():
    source = (
        "def _record(name, ok, **fields):\n"
        "    return {'name': name, **fields, 'pass': bool(ok)}\n"
        "def skip(exc):\n"
        "    return [{'name': 'ts_suite', 'skipped': True, 'pass': exc is None}]\n"
        "class Flags:\n"
        "    def record(self, got, want):\n"
        "        return {'pass': got == want, 'got': got, 'name': 'flag'}\n"
        "def report(entry, ok):\n"
        "    return {'entry': entry, 'pass': ok, 'checks': [{'name': 'verdict'}]}\n"
        "VERDICT = {'name': 'verdict', 'pass': True}\n"
    )
    assert record_builders(source) == ["_record", "skip", "Flags", "line 10"]


# each survivor is kept for the callers named here; a survivor whose
# callers move onto ``eval_forms`` is deleted, and its entry with it
SURVIVING_EVALUATORS = {
    # the ``spin`` command, ``catalog.run``'s spot checks, and perfbench's
    # ``session_points`` workload and its traced wrapper
    "npcore.py": ["SpinCoefficients.evaluate"],
    # only ``perfbench/child.py`` and ``perfbench/test_perfbench.py``
    "cexpr.py": ["CExpr.evaluate_many"],
    # perfbench's ``verify_replay`` and its traced wrapper,
    # ``ektau.sol_obstruction``, demo 02 and the Ricci tests
    "frame.py": ["curvature_values_many"],
}


def evaluator_definitions(source: str) -> list[str]:
    """The dotted names of the definitions in a source, at any depth, named
    ``evaluate`` or ending in ``_many`` or ``_from_samples``, sorted."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef) and (
                        child.name == "evaluate"
                        or child.name.endswith(("_many", "_from_samples"))):
                    found.append(name)
                visit(child, name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return sorted(found)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_the_pinned_survivors_evaluate_one_point_or_wrap_many(path):
    got = evaluator_definitions(path.read_text(encoding="utf-8"))
    assert got == SURVIVING_EVALUATORS.get(path.name, [])


def test_survivor_rule_flags_a_twin():
    source = (
        "def evaluate(f, point):\n"
        "    return evaluate_many(f, [point])[0]\n"
        "def evaluate_many(f, points):\n"
        "    return eval_batch([f], points)[0]\n"
        "class CExpr:\n"
        "    def evaluate(self, point):\n"
        "        return self\n"
        "    def evaluated(self):\n"
        "        return self\n"
        "def verdict_from_samples(kappa, sigma, rho):\n"
        "    def ricci_values_many(points):\n"
        "        return points\n"
        "    return ricci_values_many(rho)\n"
        "def many_points(n):\n"
        "    return n\n"
    )
    assert evaluator_definitions(source) == [
        "CExpr.evaluate", "evaluate", "evaluate_many", "verdict_from_samples",
        "verdict_from_samples.ricci_values_many"]


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


NODE_CLASSES = ("Const", "Coord", "Param", "Unary", "Binary")


def node_constructions(source: str) -> list[str]:
    """The node classes a source calls, bare or as an attribute, sorted."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            fn = node.func
            found.add(fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None))
    return sorted(found.intersection(NODE_CLASSES))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_expr_makes_nodes(path):
    if path.name != "expr.py":
        assert node_constructions(path.read_text(encoding="utf-8")) == []


def test_node_rule_flags_a_second_maker():
    source = (
        "from . import expr as E\n"
        "from .expr import Binary, Const\n"
        "def twice(e):\n"
        "    return Binary('mul', E.Const(2.0), e)\n"
        "def is_zero(e):\n"
        "    return isinstance(e, E.Const) and e == Const\n"
        "UNIT = E.Coord(1)\n"
    )
    assert node_constructions(source) == ["Binary", "Const", "Coord"]


def makers_of(source: str, *names: str) -> list[str]:
    """Top-level definitions that call any of ``names``, bare or as an attribute."""
    makers = []
    for top in ast.parse(source).body:
        if any(isinstance(node, ast.Call)
               and {getattr(node.func, "id", None), getattr(node.func, "attr", None)} & set(names)
               for node in ast.walk(top)):
            makers.append(getattr(top, "name", f"line {top.lineno}"))
    return makers


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_the_classify_gate_makes_not_trans_sasakian(path):
    want = ["_not_trans_sasakian"] if path.name == "classify.py" else []
    assert makers_of(path.read_text(encoding="utf-8"), "NotTransSasakian") == want


def test_gate_rule_flags_a_second_maker():
    source = (
        "from . import classify\n"
        "from .classify import NotTransSasakian\n"
        "def skip(spec, worst):\n"
        "    return {'reason': str(NotTransSasakian(spec.name, worst))}\n"
        "def residuals(spec, worst):\n"
        "    if worst > 1e-8:\n"
        "        raise classify.NotTransSasakian(spec.name, worst)\n"
        "def is_ts(exc):\n"
        "    return not isinstance(exc, NotTransSasakian)\n"
        "ERROR = NotTransSasakian('sol', 1.0)\n"
    )
    assert makers_of(source, "NotTransSasakian") == ["skip", "residuals", "line 10"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_contract_skips_zero_weights(path):
    want = ["contract"] if path.name == "npcore.py" else []
    assert makers_of(path.read_text(encoding="utf-8"), "_nonzero") == want


def test_contraction_rule_flags_a_second_contraction():
    source = (
        "from . import npcore\n"
        "from .npcore import _nonzero, contract\n"
        "def ricci_complex(S, V, W):\n"
        "    return contract(S, V, W)\n"
        "def display(R, V, W, Z, l):\n"
        "    return sum(v * w * z * R[i][j][k][l] for i, v in _nonzero(V)\n"
        "               for j, w in _nonzero(W) for k, z in npcore._nonzero(Z))\n"
        "def pair(a, b):\n"
        "    return [(i, j) for i, _ in npcore._nonzero(a) for j, _ in npcore._nonzero(b)]\n"
        "WEIGHTS = _nonzero(npcore.W_DEL)\n"
    )
    assert makers_of(source, "_nonzero") == ["display", "pair", "line 10"]


FRAME_DERIVATIVES = ("d_del", "d_delbar", "d_xi")
DIFFERENTIATORS = {
    "npcore.py": ["gauge_transform", "weighted_derivative", "_sachs", "bianchi_forms"],
    "xi.py": ["rough_laplacian_xi"],
}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_the_pinned_definitions_take_frame_derivatives(path):
    got = makers_of(path.read_text(encoding="utf-8"), *FRAME_DERIVATIVES)
    assert got == DIFFERENTIATORS.get(path.name, [])


def test_derivative_rule_flags_a_second_differentiator():
    source = (
        "from . import npcore\n"
        "from .npcore import d_del, d_delbar, d_xi\n"
        "def closed_forms(spec, r):\n"
        "    return {'d_rho': d_del(spec, r), 'xi_rho': npcore.d_xi(spec, r)}\n"
        "class Display:\n"
        "    def row(self, spec, r):\n"
        "        return -d_delbar(spec, r.conj())\n"
        "def table():\n"
        "    return {'del': d_del, 'xi': npcore.d_xi}\n"
        "XI_RHO = d_xi(None, 0)\n"
    )
    assert makers_of(source, *FRAME_DERIVATIVES) == ["closed_forms", "Display", "line 10"]


EVALUATORS = {
    "cexpr.py": ["CExpr"],
    "ektau.py": ["sol_obstruction"],
    "npcore.py": ["SpinCoefficients"],
    "frame.py": ["_check_nondegenerate", "curvature_values_many"],
}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_the_pinned_definitions_call_eval_forms(path):
    assert makers_of(path.read_text(encoding="utf-8"), "eval_forms") == EVALUATORS.get(path.name, [])


def test_evaluator_rule_flags_a_second_evaluator():
    source = (
        "from . import cexpr\n"
        "from .cexpr import eval_forms, residual\n"
        "def sachs_values(spec, points):\n"
        "    return eval_forms(sachs_forms(spec), points, spec.params)\n"
        "class Laplacian:\n"
        "    def route_gap(self, points):\n"
        "        return cexpr.eval_forms(residual(self.diffs), points)\n"
        "def surface():\n"
        "    return {'eval_forms': eval_forms}\n"
        "VALUES = eval_forms([], [])\n"
    )
    assert makers_of(source, "eval_forms") == ["sachs_values", "Laplacian", "line 10"]


def unused_imports(source: str, package_init: bool = False) -> list[str]:
    """The names a source's top-level imports bind and it never reads,
    sorted.  A name in ``__all__`` is read, and so, in a package's
    ``__init__``, is every name of a relative import: both are re-exports."""
    tree = ast.parse(source)
    bound, read = set(), set()
    for top in tree.body:
        if isinstance(top, ast.ImportFrom) and (
                top.module == "__future__" or package_init and top.level):
            continue
        if isinstance(top, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in top.names)
        elif isinstance(top, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in top.targets):
            read.update(ast.literal_eval(top.value))
    read.update(node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))
    return sorted(bound - read)


@pytest.mark.parametrize("path", SOURCES + TESTS + DEMOS,
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8"), path.name == "__init__.py") == []


def test_import_rule_flags_an_unused_name():
    source = (
        "from __future__ import annotations\n"
        "import json\n"
        "import os.path\n"
        "import numpy as np\n"
        "from . import expr as E, frame\n"
        "from .xi import divergence_xi, parallel_and_collinearity\n"
        "__all__ = ['frame']\n"
        "def f(x):\n"
        "    return np.abs(E.coord(1)), divergence_xi(x)\n"
    )
    assert unused_imports(source) == ["json", "os", "parallel_and_collinearity"]
    assert unused_imports(source, package_init=True) == ["json", "os"]


def unread_parameters(source: str) -> list[str]:
    """``function(parameter)`` for each parameter of a function or lambda in
    a source that its body never reads, sorted.  A nested function's
    reads count for the functions around it, which it closes over."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = fn.args
            params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                      args.vararg, args.kwarg) if a is not None]
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            read = {node.id for stmt in body for node in ast.walk(stmt)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            name = getattr(fn, "name", "lambda")
            found += [f"{name}({p})" for p in params if p not in read]
    return sorted(found)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unread_parameter(path):
    assert unread_parameters(path.read_text(encoding="utf-8")) == []


def test_parameter_rule_flags_a_dead_knob():
    source = (
        "def _schedule(code, count, coords, outputs, tangents=None):\n"
        "    order = [op for op in code if op[1] < count]\n"
        "    def visit(v, *rest, **opts):\n"
        "        return tangents(v), outputs\n"
        "    return order, visit\n"
        "class Tape:\n"
        "    def run(self, pts, *, width=0):\n"
        "        del pts\n"
        "        return self\n"
        "KEY = lambda pair, default=None: pair[0]\n"
    )
    assert unread_parameters(source) == [
        "_schedule(coords)", "lambda(default)", "run(pts)", "run(width)", "visit(opts)",
        "visit(rest)"]


def unresolved_exports(namespace: dict) -> list[str]:
    """The names of a module namespace's ``__all__`` that it does not bind."""
    return [name for name in namespace.get("__all__", ()) if name not in namespace]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_exported_name_resolves(path):
    module = "np3kit" if path.stem == "__init__" else f"np3kit.{path.stem}"
    assert unresolved_exports(vars(importlib.import_module(module))) == []


def test_export_rule_flags_a_deleted_definition():
    namespace = {}
    exec("import math\n"
         "__all__ = ['math', 'kept', 'deleted', 'Report']\n"
         "def kept():\n"
         "    return math.pi\n"
         "class Report:\n"
         "    pass\n", namespace)
    assert unresolved_exports(namespace) == ["deleted"]
