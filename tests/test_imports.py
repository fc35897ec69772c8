import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import chainsync

PACKAGE = Path(chainsync.__file__).parent


def _is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_no_module_imports_another_modules_private_names():
    offences = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                offences += [
                    f"{path.name}: from {'.' * node.level}{node.module or ''} import {alias.name}"
                    for alias in node.names
                    if _is_private(alias.name)
                ]
    assert offences == []


# names exported only for callers outside the package: the CLI, run and
# sweep entry points, the S-matrix oracle path and the README library example
ENTRY_POINTS = {
    "resolve_spec", "run_scenario", "simulate", "sweep_plug_site",
    "propagator", "evolve", "reduce", "mean_energy",
    "NetworkConfig", "ProbePair", "assemble_full_potential", "initial_composite_state",
    "squeezed_vacuum_local", "NormalModeTrajectory", "sync_series",
}


def _referenced_names(paths):
    """Names read, bare or as an attribute, in ``paths``; an assignment or
    a definition does not read its own name."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def _used_outside_the_tests():
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    perfbench = sorted((PACKAGE.parents[1] / "perfbench").glob("*.py"))
    return _referenced_names(modules) | _referenced_names(perfbench) | ENTRY_POINTS


def test_every_export_has_a_caller_outside_the_tests():
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = [
        alias.asname or alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert ENTRY_POINTS <= set(exported)
    assert sorted(set(exported) - _used_outside_the_tests()) == []


def _public_definitions(path):
    """Public module-level functions, classes and constants of ``path``."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from (name for name in names if not name.startswith("_"))


# a public helper whose last caller is gone fails here even when the
# package does not export it
def test_every_public_definition_has_a_caller_outside_the_tests():
    used = _used_outside_the_tests()
    unused = {
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in _public_definitions(path)
        if name not in used
    }
    assert sorted(unused) == []


def _defaulted_parameters(path):
    """(callee name, parameter, slot) of each parameter with a default of
    the functions defined in ``path``.  The slot is the index of the
    positional argument that fills it (``self`` not counted), None for a
    keyword-only one; a class is called by its own name for __init__."""
    tree = ast.parse(path.read_text())
    owner = {
        id(f): c.name
        for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
        for f in c.body if isinstance(f, ast.FunctionDef)
    }
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
        bound = id(node) in owner and not static
        name = owner[id(node)] if bound and node.name == "__init__" else node.name
        positional = node.args.posonlyargs + node.args.args
        for i in range(len(positional) - len(node.args.defaults), len(positional)):
            yield name, positional[i].arg, i - bound
        for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
            if default is not None:
                yield name, arg.arg, None


def _passes(call, parameter, slot):
    """Whether ``call`` sets ``parameter``, by keyword, by position or
    through * / ** unpacking."""
    if any(kw.arg in (None, parameter) for kw in call.keywords):
        return True
    if slot is None:
        return False
    return len(call.args) > slot or any(isinstance(a, ast.Starred) for a in call.args)


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    modules = sorted(PACKAGE.glob("*.py"))
    callers = modules + sorted((PACKAGE.parents[1] / "perfbench").glob("*.py"))
    calls: dict = {}
    for path in callers:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(callee, []).append(node)
    unpassed = [
        f"{path.stem}.{name}({parameter})"
        for path in modules
        for name, parameter, slot in _defaulted_parameters(path)
        if not any(_passes(call, parameter, slot) for call in calls.get(name, []))
    ]
    assert unpassed == []


# sweeps run in the calling process: the package starts no process pool
def test_the_package_imports_no_process_pool():
    imported = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported |= {alias.name.partition(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.partition(".")[0])
    assert imported & {"concurrent", "multiprocessing"} == set()


_IMPORTS = """
import json, sys
import numpy
before = set(sys.modules)
import chainsync
print(json.dumps([sorted(before), sorted(set(sys.modules) - before)]))
"""


# every fresh interpreter pays for what ``import chainsync`` loads, and the
# benchmark's set-up time starts there: a heavy dependency (scipy adds
# about 0.2 s, numpy.testing 40 ms) would cost more than the set-up itself
def test_importing_the_package_loads_only_the_stdlib_beyond_numpy():
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run([sys.executable, "-c", _IMPORTS], capture_output=True, text=True,
                          env=env, check=True)
    numpy_set, added = json.loads(done.stdout)
    loaded = set(numpy_set) | set(added)
    assert not {m for m in loaded if m.partition(".")[0] in ("scipy", "numba", "numexpr")}
    assert "numpy.testing" not in loaded
    foreign = [
        m for m in added
        if m.partition(".")[0] not in sys.stdlib_module_names | {"chainsync", "numpy"}
    ]
    assert foreign == []
    assert [m for m in added if m.partition(".")[0] == "numpy"] == []


def _module_level_numpy_calls(path):
    """numpy calls that run when ``path`` is imported: in its module and
    class bodies, not inside a function."""
    def statements(body):
        for node in body:
            if isinstance(node, ast.ClassDef):
                yield from statements(node.body)
            elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node

    for stmt in statements(ast.parse(path.read_text()).body):
        for node in ast.walk(stmt):
            func = getattr(node, "func", None)
            while isinstance(func, ast.Attribute):
                root, func = func, func.value
            if isinstance(node, ast.Call) and getattr(func, "id", None) == "np":
                yield f"{path.name}:{node.lineno} np.{root.attr}"


# importing the package builds no arrays: constants are scalars
# (np.finfo), and every array is formed by a call
def test_importing_the_package_does_no_array_work():
    calls = [c for path in sorted(PACKAGE.glob("*.py")) for c in _module_level_numpy_calls(path)]
    assert [c for c in calls if not c.endswith("np.finfo")] == []


_RUN_PATHS = """
import json, sys, tempfile
import chainsync
from chainsync import resolve_spec, run_scenario, sweep_plug_site
from chainsync.cli import main
before = set(sys.modules)
out = tempfile.mkdtemp()
# a horizon past its plateau band's start, so the run takes its medians
run_scenario(resolve_spec("fig2_dissipation", {"M": 40, "horizon": 60.0}), out_dir=out + "/run")
sweep_plug_site(resolve_spec("appB_sweep", {"M": 40, "horizon": 60.0}), sites=[1, 2],
                out_dir=out + "/sweep")
assert main(["validate", "--set", "preset=fig2_dissipation", "--set", "M=40"]) == 0
print(json.dumps(sorted(set(sys.modules) - before)))
"""


# numpy loads some modules on first use (numpy.ma, 11 ms, from np.median);
# a run, a sweep and ``cli validate`` pay for none of them
def test_the_run_paths_load_no_further_numpy_module():
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run([sys.executable, "-c", _RUN_PATHS], capture_output=True, text=True,
                          env=env, check=True)
    added = json.loads(done.stdout.splitlines()[-1])
    assert [m for m in added if m.partition(".")[0] == "numpy"] == []


_PERFBENCH = """
import sys
sys.path[:0] = sys.argv[1:]
import engine_setup, oracle, tracing, workloads
tracer = tracing.Tracer()
tracer.install()
tracer.uninstall()
spec, qf, state, engine = engine_setup.build_engine("fig2_dissipation", {"M": 40})
oracle.probe_state(qf, state, 1.0)
"""


# the benchmark in perfbench/ imports package names, wraps span targets by
# name and runs the S-matrix oracle: a change that breaks any of them
# fails here, not at benchmark time
def test_the_benchmark_finds_every_name_it_uses():
    perfbench = PACKAGE.parents[1] / "perfbench"
    done = subprocess.run([sys.executable, "-c", _PERFBENCH, str(PACKAGE.parent), str(perfbench)],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
