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
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_export_has_a_caller_outside_the_tests():
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = [
        alias.asname or alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    perfbench = sorted((PACKAGE.parents[1] / "perfbench").glob("*.py"))
    used = _referenced_names(modules) | _referenced_names(perfbench) | ENTRY_POINTS
    assert ENTRY_POINTS <= set(exported)
    assert sorted(set(exported) - used) == []
