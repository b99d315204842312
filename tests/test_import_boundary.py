"""The CLI and the service API load no test-only or accelerator code.

The generation-stepped flood lives in :mod:`repro.oracle`; the array
kernel needs numpy. The entry points load both only on the paths that
use them (``animate``, ``convergence``, ``calibrate``, ``validate``, the
array backend), so a plain ``import`` must not pull either in. The
check runs in a fresh interpreter: inside the suite they are long
loaded. Hypothesis is a test tool: no file under ``src/`` imports it.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent

FORBIDDEN = ("repro.oracle", "numpy", "hypothesis")


def test_cli_and_service_api_import_without_oracle_numpy_or_hypothesis():
    code = (
        "import json, sys\n"
        "import repro.cli, repro.service.api\n"
        f"print(json.dumps(sorted(m for m in sys.modules if m.startswith({FORBIDDEN!r}))))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])},
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == []


def test_no_src_module_imports_hypothesis():
    importers = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                modules = [node.module]
            else:
                continue
            if any(module.split(".")[0] == "hypothesis" for module in modules):
                importers.append(f"{path.relative_to(SRC).as_posix()}:{node.lineno}")
    assert importers == []
