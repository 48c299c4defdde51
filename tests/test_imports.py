"""Each module imports alone and uses every name it imports.

The key table in ``config`` adds no import cycle, no process pool loads,
and every name the benchmark calls exists.
"""

import ast
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


def unused_imports(source: str) -> list[str]:
    """The names that ``source`` imports and never reads; a use in an annotation, quoted or not, counts."""
    tree = ast.parse(source)
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import | ast.ImportFrom) and getattr(node, "module", None) != "__future__":
            imported.update((alias.asname or alias.name.split(".")[0], node.lineno) for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            for quoted in ast.walk(annotation) if annotation else ():
                if isinstance(quoted, ast.Constant) and isinstance(quoted.value, str):
                    used.update(n.id for n in ast.walk(ast.parse(quoted.value, mode="eval")) if isinstance(n, ast.Name))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


MODULES = [path for path in sorted((REPO_ROOT / "src" / "daydrift").glob("*.py")) if path.name != "__init__.py"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_module_imports_a_name_it_does_not_use(path):
    # every process compiles and runs what a module imports; __init__ imports its names to re-export them
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = (
        "from __future__ import annotations\nimport itertools\nimport numpy as np\nimport os.path\n"
        "from array import array\nfrom x import Used, Quoted as Q\n"
        "def f(a: Used) -> list['Q | None']:\n    return np, os\n"
    )
    assert unused_imports(source) == ["line 2: itertools", "line 5: array"]
