"""Smoke test: every ``examples/*.py`` script runs to completion.

Each script runs as a subprocess on a 400-AS topology with the working
directory set to a temporary path, so the SVG files some of them write
land there. A dangling import left behind by a deletion fails here under
the script's own name.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((REPO_ROOT / "examples").glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_runs(script, tmp_path):
    result = subprocess.run(
        [sys.executable, str(script), "--as-count", "400"],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
