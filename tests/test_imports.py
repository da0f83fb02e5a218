"""Every name a hodnet module imports is used in that module, the CLI
imports no heavy optional package, every definition is reachable from the
CLI or kept on purpose, and every name the benchmark tracer binds exists."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hodnet"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _used_names(tree):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # Quoted annotations such as "ExperimentConfig" name their types
            # in a string.
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    unused = sorted(set(_imported_names(tree)) - _used_names(tree))
    assert not unused, f"{path.name} imports unused names: {unused}"


def test_cli_import_pulls_in_no_heavy_package():
    # Every CLI run pays its imports in set-up time; sympy, scipy and
    # hypothesis are installed here but must stay out of that path.
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    probe = (
        "import sys, hodnet.cli; "
        "print(sorted({'sympy', 'scipy', 'hypothesis'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        check=True, timeout=60,
    )
    assert out.stdout.strip() == "[]"


# Top-level definitions in src/hodnet that cli.main does not reach, each
# kept on purpose.  The reachability test below fails on any other
# unreachable name, and on an entry here that production starts to use.
UNREACHED_ON_PURPOSE = {
    ("kernel", "kernel_1d"): "scalar K_alpha, summed by the exact oracle",
    ("kernel", "wce_squared_exact"): "quadratic exact oracle of both wce paths",
    ("points", "net_points"): "exact Fraction points, the oracle's input",
    ("walsh", "bernoulli_walsh_coeff"): "per-pair oracle of the Bernoulli part",
    ("walsh", "_periodic_coeff_reference"): "per-pair oracle of the periodic part",
    ("walsh", "_char_exponents"): "Walsh exponents of one index, for both oracles",
    ("matrices", "save_matrix_set"): "writer of the format load_matrix_set reads",
}


def _definitions(tree):
    """Top-level name -> defining node of one module."""
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs[node.name] = node
        elif isinstance(node, ast.Assign):
            defs.update((target.id, node) for target in node.targets)
    return defs


def _relative_imports(tree):
    """Local name -> (module, name) for every ``from .x import y``."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                out[alias.asname or alias.name] = (node.module or "__init__", alias.name)
    return out


def test_every_definition_is_reachable_from_the_cli():
    trees = {p.stem: ast.parse(p.read_text()) for p in SRC.glob("*.py")}
    defs = {mod: _definitions(tree) for mod, tree in trees.items()}
    imports = {mod: _relative_imports(tree) for mod, tree in trees.items()}
    reached, todo = set(), [("cli", "main")]
    while todo:
        mod, name = todo.pop()
        if (mod, name) in reached:
            continue
        reached.add((mod, name))
        for node in ast.walk(defs[mod][name]):
            if not isinstance(node, ast.Name):
                continue
            if node.id in defs[mod]:
                todo.append((mod, node.id))
            elif node.id in imports[mod]:
                todo.append(imports[mod][node.id])
    every = {(mod, name) for mod, names in defs.items() for name in names}
    assert sorted(every - reached) == sorted(UNREACHED_ON_PURPOSE)


def _tracer_bindings():
    """(module, attribute path) of every hodnet name perfbench/tracer.py binds:
    its WRAPPED entries, its ``from hodnet.x import y`` names (the oracle and
    set-up modes) and the methods it patches on an imported class."""
    tree = ast.parse((SRC.parent.parent / "perfbench" / "tracer.py").read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "WRAPPED":
            for mod, attr, _, _ in ast.literal_eval(node.value):
                yield mod, attr
        elif isinstance(node, ast.ImportFrom) and node.module.startswith("hodnet"):
            for alias in node.names:
                imported[alias.asname or alias.name] = node.module
                yield node.module, alias.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Attribute):
            owner, attr = ast.unparse(node.targets[0]).rsplit(".", 1)
            if owner in imported:
                yield imported[owner], f"{owner}.{attr}"


def test_every_name_the_tracer_binds_exists():
    # A traced benchmark run crashes on the first name it cannot bind.
    bindings = sorted(set(_tracer_bindings()))
    assert ("hodnet.cyclotomic", "Cyclotomic.to_complex") in bindings
    missing = []
    for mod, path in bindings:
        owner = importlib.import_module(mod)
        for part in path.split("."):
            # A patched method must be the class's own, not an inherited one.
            if part not in vars(owner):
                missing.append((mod, path))
                break
            owner = vars(owner)[part]
    assert missing == []
