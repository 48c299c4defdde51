"""Each module imports alone, so the key table in ``config`` adds no import cycle."""

import os
import subprocess
import sys

import pytest

from conftest import REPO_ROOT


@pytest.mark.parametrize("module", ["daydrift.config", "daydrift.engine", "daydrift.cli"])
def test_module_imports_alone(module):
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", f"import {module}"], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
