import importlib
import pkgutil
import re
from dataclasses import fields, is_dataclass

import daydrift
from daydrift.config import _REMOVED_KEYS, KEYS

from conftest import REPO_ROOT


def test_the_removed_keys_paragraph_names_every_removed_key():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    paragraph = re.search(r"^\*\*Removed keys\.\*\*.*?(?=\n\n)", readme, re.MULTILINE | re.DOTALL)
    assert paragraph, "README has no 'Removed keys' paragraph"
    text = " ".join(paragraph.group().split())
    named = [f"`[{section}] {key}`" for section, key in (name.split(".") for name in _REMOVED_KEYS)]
    assert [n for n in named if n not in text] == []


# names the README takes from numpy, not from daydrift
NUMPY_NAMES = {"SeedSequence"}


def test_the_readme_names_only_what_exists():
    # a backticked name, dotted or called, that has an underscore or a capital: a function, class, field or key
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    spans = re.findall(r"`([A-Za-z_]\w*(?:\.\w+)*)(?:\([^`]*\))?`", readme)
    names = sorted({name for name in spans if "_" in name or name[0].isupper()})
    modules = [daydrift, *(importlib.import_module(f"daydrift.{m.name}") for m in pkgutil.iter_modules(daydrift.__path__))]
    namespace = {name: value for module in modules for name, value in vars(module).items()}
    classes = [value for value in namespace.values() if isinstance(value, type) and value.__module__.startswith("daydrift")]
    members = {name for cls in classes for name in [*dir(cls), *(f.name for f in (fields(cls) if is_dataclass(cls) else ()))]}

    def resolves(name: str) -> bool:
        head, *rest = name.split(".")
        if name in KEYS or name in NUMPY_NAMES or (not rest and head in members):
            return True
        value = namespace.get(head)
        for attr in rest:
            value = getattr(value, attr, None)
        return value is not None

    assert len(names) > 30
    assert [name for name in names if not resolves(name)] == []
