import ast
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
