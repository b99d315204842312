"""The public surface resolves, and every name on it has a caller.

Every ``__all__`` name and every import that the examples and the
end-to-end benchmark make from ``repro`` resolves. Every module
``__all__`` name is referenced by production code (``src/`` outside its
own module, ``benchmarks/``, ``examples/``) or by the paper-claims tier
(``tests/claims/``); a name only the unit tests call is not surface.

These checks read the syntax trees and never run the scripts, so a
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
SRC = REPO_ROOT / "src" / "repro"
CALLER_TREES = (
    SRC, REPO_ROOT / "benchmarks", REPO_ROOT / "examples", REPO_ROOT / "tests" / "claims",
)

# Names kept on the surface without a caller in CALLER_TREES, and why.
KEEP = {
    "degree_threshold_deployment": "the paper's literal degree tiers for a real "
    "CAIDA snapshot (docs/reproducing.md)",
    "loads_caida": "parses CAIDA text already in memory; the CAIDA tests and "
    "properties pin the file format through it",
    "attacker_aggressiveness": "asserts the paper's aggressiveness-falls-with-depth "
    "statement (tests/test_core_analysis.py::TestAggressiveness)",
}
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


def _references(path: Path) -> set[str]:
    """Every name *path* mentions: bare names, attributes and imported names.

    A package ``__init__`` re-exports what its modules define, so its
    imports are not references.
    """
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and path.name != "__init__.py":
            names.update(alias.name for alias in node.names)
    return names


def _module_all(path: Path) -> list[str]:
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def test_every_all_name_has_a_caller():
    references = {
        path: _references(path)
        for tree in CALLER_TREES
        for path in tree.rglob("*.py")
    }
    exported = [
        (module, name)
        for module in sorted(SRC.rglob("*.py"))
        if module.name != "__init__.py"
        for name in _module_all(module)
    ]
    uncalled = [
        (module, name)
        for module, name in exported
        if not any(name in names for path, names in references.items() if path != module)
    ]
    missing = [
        f"{module.relative_to(SRC).as_posix()}:{name}"
        for module, name in uncalled
        if name not in KEEP
    ]
    assert not missing, f"__all__ names with no production or claims caller: {missing}"
    stale = sorted(set(KEEP) - {name for _module, name in uncalled})
    assert not stale, f"KEEP entries that have a caller or are gone: {stale}"
