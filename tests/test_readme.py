import re

from daydrift.config import _REMOVED_KEYS

from conftest import REPO_ROOT


def test_the_removed_keys_paragraph_names_every_removed_key():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    paragraph = re.search(r"^\*\*Removed keys\.\*\*.*?(?=\n\n)", readme, re.MULTILINE | re.DOTALL)
    assert paragraph, "README has no 'Removed keys' paragraph"
    text = " ".join(paragraph.group().split())
    named = [f"`[{section}] {key}`" for section, key in (name.split(".") for name in _REMOVED_KEYS)]
    assert [n for n in named if n not in text] == []
