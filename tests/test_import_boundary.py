"""The CLI and the service API load no test-only or accelerator code.

The generation-stepped flood lives in :mod:`repro.oracle`, and the oracle
package also carries the Hypothesis strategy library; the array kernel
needs numpy. The entry points load all three only on the paths that use
them (``animate``, ``convergence``, ``calibrate``, ``validate``, the
array backend), so a plain ``import`` must not pull any of them in. The
check runs in a fresh interpreter: inside the suite they are long loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

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
