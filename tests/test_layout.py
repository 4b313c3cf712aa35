"""Package layout guards: one implementation per algorithm in ``src/``.

Reference twins of library algorithms live in ``tests/*_reference.py``,
library modules never import the CLI, and nothing under ``src/`` imports
the tests.  These checks read the source with :mod:`ast`, so they cover
every module, including ones no test touches.  The public-surface checks
import the modules that declare ``__all__``: every listed name resolves,
and the deleted config-first construction path stays gone.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
from pathlib import Path

import pytest

_PACKAGE = Path(__file__).resolve().parent.parent / "src" / "repro"
_MODULES = sorted(_PACKAGE.rglob("*.py"))
_TEST_ONLY_NAMES = {"_lookup_batch_scalar", "_trilinear_accumulate", "perturbed"}
_TESTS = Path(__file__).resolve().parent
#: Twins of replaced library paths, by the ``tests`` module that keeps them.
_TWINS_IN_TESTS = {
    "clustering_reference": {"dbscan_labels_reference"},
    "solver_reference": {
        "angular_residuals_reference",
        "differential_evolution_reference",
        "soft_l1_cost_reference",
    },
}


def _module_name(path: Path) -> str:
    parts = path.relative_to(_PACKAGE.parent).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _imported_modules(path: Path) -> set[str]:
    """Absolute names of every module ``path`` imports, at any depth."""
    tree = ast.parse(path.read_text(), filename=str(path))
    package = _module_name(path).split(".")
    if path.name != "__init__.py":
        package = package[:-1]
    imported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            imported.add(module)
            # ``from repro import cli`` imports the submodule itself.
            imported.update(f"{module}.{alias.name}" for alias in node.names)
    return imported


def test_package_is_scanned():
    names = {_module_name(path) for path in _MODULES}
    assert {"repro.cli", "repro.__main__", "repro.core.oracle"} <= names


def test_no_reference_twins_in_src():
    twins = [
        f"{_module_name(path)}.{node.name}"
        for path in _MODULES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and (node.name.endswith("_reference") or node.name in _TEST_ONLY_NAMES)
    ]
    assert twins == [], f"test-only reference code belongs under tests/: {twins}"


def test_twins_live_in_tests():
    for module, names in _TWINS_IN_TESTS.items():
        path = _TESTS / f"{module}.py"
        defined = {
            node.name
            for node in ast.parse(path.read_text(), filename=str(path)).body
            if isinstance(node, ast.FunctionDef)
        }
        assert names <= defined, f"{module} lacks {names - defined}"


def test_library_does_not_import_cli():
    offenders = [
        _module_name(path)
        for path in _MODULES
        if _module_name(path) not in ("repro.__main__", "repro.cli")
        and any(
            name == "repro.cli" or name.startswith("repro.cli.")
            for name in _imported_modules(path)
        )
    ]
    assert offenders == []


def test_library_does_not_import_tests():
    offenders = [
        _module_name(path)
        for path in _MODULES
        if any(
            name == "tests" or name.startswith("tests.")
            for name in _imported_modules(path)
        )
    ]
    assert offenders == []


def _declares_all(path: Path) -> bool:
    return any(
        isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for node in ast.parse(path.read_text(), filename=str(path)).body
    )


def test_every_public_name_resolves():
    modules = [_module_name(path) for path in _MODULES if _declares_all(path)]
    assert "repro" in modules and "repro.core.config" in modules
    unresolved = []
    for name in modules:
        module = importlib.import_module(name)
        unresolved += [f"{name}.{a}" for a in module.__all__ if not hasattr(module, a)]
    assert unresolved == []


def test_config_first_construction_is_gone():
    import repro
    import repro.core
    import repro.core.config
    from repro.core import ServerConfig, VisualPrintClient, VisualPrintServer
    from repro.serving import ServingFrontend

    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.api")
    for module in (repro, repro.core, repro.core.config):
        assert not hasattr(module, "ClientConfig")
        assert "ClientConfig" not in module.__all__
    for engine in (VisualPrintClient, VisualPrintServer, ServingFrontend):
        assert not hasattr(engine, "from_config")
    assert [field.name for field in dataclasses.fields(ServerConfig)] == [
        "num_shards",
        "queue_depth",
        "hash_replicas",
        "replication_factor",
        "seed",
    ]
    assert repro.ServerConfig is ServerConfig
