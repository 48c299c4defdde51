"""Each module imports alone, so the key table in ``config`` adds no import cycle; no process pool loads; the benchmark's names exist."""

import os
import re
import subprocess
import sys

import pytest

import daydrift
import daydrift.cli
from conftest import REPO_ROOT


@pytest.mark.parametrize("module", ["daydrift.config", "daydrift.csvio", "daydrift.engine", "daydrift.cli"])
def test_module_imports_alone(module):
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", f"import {module}"], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr


def test_importing_the_package_loads_no_process_pool():
    # a sweep runs in one process, so no import pays for multiprocessing's set-up
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    code = (
        "import sys, daydrift, daydrift.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing' or m.startswith('concurrent.futures')))"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_every_name_the_benchmark_calls_exists():
    # perfbench/ imports the package as dd and its CLI as dd_cli; a deleted public name would break the benchmark
    modules = {"dd": daydrift, "dd_cli": daydrift.cli}
    called = set()
    for path in sorted((REPO_ROOT / "perfbench").glob("*.py")):
        for alias, name in re.findall(r"\b(dd|dd_cli)\.(\w+)", path.read_text(encoding="utf-8")):
            assert hasattr(modules[alias], name), f"{path.name} calls {alias}.{name}, which daydrift does not define"
            called.add(f"{alias}.{name}")
    assert {"dd.run_sim", "dd.load_config", "dd_cli.main"} <= called
