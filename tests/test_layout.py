"""Package layout guards: one implementation per algorithm in ``src/``.

Reference twins of library algorithms live in ``tests/*_reference.py``,
library modules never import the CLI, and nothing under ``src/`` imports
the tests.  These checks read the source with :mod:`ast`, so they import
nothing and cover every module, including ones no test touches.
"""

from __future__ import annotations

import ast
from pathlib import Path

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
