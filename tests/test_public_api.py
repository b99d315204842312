"""The public surface resolves: every ``__all__`` name and every import
that the examples and the end-to-end benchmark make from ``repro``.

These checks read the scripts' syntax trees and never run them, so a
deleted or renamed function that a script imports shows up here in
seconds, before anything executes the script.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import repro

REPO_ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted(
    [
        *(REPO_ROOT / "examples").glob("*.py"),
        *(REPO_ROOT / "benchmarks").glob("*.py"),
        *(REPO_ROOT / "benchmarks" / "e2e").glob("*.py"),
    ]
)
MODULES = sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if info.name != "repro.__main__"  # runs the CLI on import
)


def _resolves(module_name: str, name: str | None) -> bool:
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return False
    if name is None or hasattr(module, name):
        return True
    try:  # ``from repro.topology import caida`` names a submodule
        importlib.import_module(f"{module_name}.{name}")
    except ImportError:
        return False
    return True


def _repro_imports(script: Path) -> list[tuple[str, str | None]]:
    """``(module, name)`` per ``from repro… import name``; ``(module, None)``
    per ``import repro…``."""
    found: list[tuple[str, str | None]] = []
    for node in ast.walk(ast.parse(script.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module.split(".")[0] == "repro":
                found.extend((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            found.extend(
                (alias.name, None)
                for alias in node.names
                if alias.name.split(".")[0] == "repro"
            )
    return found


def test_walk_finds_the_package():
    assert "repro.cli" in MODULES and "repro.ingest.records" in MODULES
    folders = {script.parent.relative_to(REPO_ROOT).as_posix() for script in SCRIPTS}
    assert {"examples", "benchmarks/e2e"} <= folders


@pytest.mark.parametrize("module_name", MODULES)
def test_every_all_name_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [
        name for name in getattr(module, "__all__", ()) if not hasattr(module, name)
    ]
    assert not missing, f"{module_name}.__all__ names missing: {missing}"


@pytest.mark.parametrize(
    "script", SCRIPTS, ids=lambda path: str(path.relative_to(REPO_ROOT))
)
def test_every_repro_import_resolves(script):
    missing = [
        f"{module_name}:{name}"
        for module_name, name in _repro_imports(script)
        if not _resolves(module_name, name)
    ]
    assert not missing, f"{script.name} imports missing names: {missing}"
