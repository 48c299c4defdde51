import builtins
import importlib
import inspect
import pkgutil
import re
import tomllib
from dataclasses import fields, is_dataclass

import daydrift
from daydrift.analysis import DECOMPOSITION_CSV
from daydrift.config import _REMOVED_KEYS, KEYS
from daydrift.engine import DAILY_CSV

from conftest import REPO_ROOT


def test_the_removed_keys_paragraph_names_every_removed_key():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    paragraph = re.search(r"^\*\*Removed keys\.\*\*.*?(?=\n\n)", readme, re.MULTILINE | re.DOTALL)
    assert paragraph, "README has no 'Removed keys' paragraph"
    text = " ".join(paragraph.group().split())
    named = [f"`[{section}] {key}`" for section, key in (name.split(".") for name in _REMOVED_KEYS)]
    assert [n for n in named if n not in text] == []


def test_the_csv_schema_lines_match_their_tables():
    # the header in backticks, then the distinct decimals of its columns in file order
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    for label, table in (("Daily output", DAILY_CSV), ("Decomposition report", DECOMPOSITION_CSV)):
        line = re.search(rf"^{label}: `([^`]*)`\s*\(([^)]*)\)", readme, re.MULTILINE)
        assert line, f"README has no {label!r} schema line"
        header, decimals = line.groups()
        assert header == ",".join(table)
        distinct = list(dict.fromkeys(d for d in table.values() if d is not None))
        assert [int(d) for d in re.findall(r"\d+", decimals)] == distinct


def test_the_ci_workflow_runs_the_tier_1_command_of_the_roadmap():
    roadmap = (REPO_ROOT / "ROADMAP.md").read_text(encoding="utf-8")
    command = re.search(r"^\*\*Tier-1 verify:\*\* `([^`]*)`", roadmap, re.MULTILINE)
    assert command, "ROADMAP has no tier-1 command"
    workflow = (REPO_ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    assert re.findall(r"^ +run: (.*-m pytest.*)$", workflow, re.MULTILINE) == [command.group(1)]


def test_the_readme_pyproject_and_ci_agree_on_the_python_floor():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    floor = re.search(r"^Requires Python ≥ (3\.\d+)", readme, re.MULTILINE)
    assert floor, "README has no Python floor"
    pyproject = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    workflow = (REPO_ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    matrix = re.search(r"^ +python-version: \[([^\]]*)\]$", workflow, re.MULTILINE)
    assert matrix, "the CI workflow has no Python matrix"
    lowest = min(re.findall(r'"(3\.\d+)"', matrix.group(1)), key=lambda version: int(version.split(".")[1]))
    assert pyproject["project"]["requires-python"] == f">={floor.group(1)}"
    assert lowest == floor.group(1)


# names the README and the docstrings take from numpy, not from daydrift
NUMPY_NAMES = {"SeedSequence", "Philox"}

MODULES = [daydrift, *(importlib.import_module(f"daydrift.{m.name}") for m in pkgutil.iter_modules(daydrift.__path__))]
NAMESPACE = {name: value for module in MODULES for name, value in vars(module).items()}
CLASSES = [value for value in NAMESPACE.values() if isinstance(value, type) and value.__module__.startswith("daydrift")]
MEMBERS = {name for cls in CLASSES for name in [*dir(cls), *(f.name for f in (fields(cls) if is_dataclass(cls) else ()))]}


def named(text: str, quote: str) -> list[str]:
    """The names in ``text`` quoted by ``quote``, dotted or called, that have an underscore or a capital:
    a function, class, field or key."""
    spans = re.findall(rf"{quote}([A-Za-z_]\w*(?:\.\w+)*)(?:\([^`]*\))?{quote}", text)
    return sorted({name for name in spans if "_" in name or name[0].isupper()})


def resolves(name: str) -> bool:
    """Whether ``name`` is a config key, a name taken from numpy, or a daydrift name or member."""
    head, *rest = name.split(".")
    if name in KEYS or name in NUMPY_NAMES or (not rest and head in MEMBERS):
        return True
    value = NAMESPACE.get(head)
    for attr in rest:
        value = getattr(value, attr, None)
    return value is not None


def test_the_readme_names_only_what_exists():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    names = named(readme, "`")
    assert len(names) > 30
    assert [name for name in names if not resolves(name)] == []


def documented() -> list[tuple[str, str, set[str]]]:
    """Every docstring in daydrift, with its owner's name and, for a function, its parameters."""
    docs = []
    for module in MODULES:
        docs.append((module.__name__, module.__doc__, set()))
        owned = [value for value in vars(module).values() if getattr(value, "__module__", None) == module.__name__]
        for value in owned:
            functions = [value]
            if inspect.isclass(value):
                docs.append((value.__qualname__, value.__doc__, set()))
                members = vars(value).values()
                functions = [m.fget if isinstance(m, property) else getattr(m, "__func__", m) for m in members]
            for function in filter(inspect.isfunction, functions):
                docs.append((function.__qualname__, function.__doc__, set(inspect.signature(function).parameters)))
    return docs


def test_the_docstrings_name_only_what_exists():
    # a name also resolves as a builtin or as a parameter of the function it documents
    names = [(owner, name, params) for owner, doc, params in documented() for name in named(doc or "", "``")]
    assert len(names) > 100
    assert [(owner, name) for owner, name, params in names
            if not (resolves(name) or name.split(".")[0] in params or name in vars(builtins))] == []
