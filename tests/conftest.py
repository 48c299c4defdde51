import csv
import re
from pathlib import Path

import pytest

from daydrift import load_config

REPO_ROOT = Path(__file__).resolve().parent.parent
REFERENCE_CONFIG = REPO_ROOT / "configs" / "reference.ini"
NOISY_CONFIG = REPO_ROOT / "configs" / "noisy.ini"

# OHLC files the reader refuses, and the error (``{path}`` the file's): a row is named by the line it starts on,
# past a quoted cell that spans lines, and a cell longer than csv.field_size_limit() is an input error
_LONG = "1" * (csv.field_size_limit() + 1)
OHLC_INPUT_ERRORS = {
    "quoted-date": (
        'date,open,close\n2024-01-02,1,2\n"2024-01-03\n",1,2\n2024-01-04,1,x\n',
        "line 5: unparseable price in open/close",
    ),
    "quoted-open": (
        'date,open,close\n2024-01-02,1,2\n2024-01-03,"1\n",2\n2024-01-04,1,2\n2024-01-04,1,2\n',
        "line 6: dates must be strictly increasing, got 2024-01-04",
    ),
    "oversized-row-cell": (
        f"date,open,close\n2024-01-02,1,2\n2024-01-03,{_LONG},2\n",
        f"line 3: field larger than field limit ({csv.field_size_limit()})",
    ),
    "quoted-header": ('date,open,"close\n"\n2024-01-02,1,2\n2024-01-03,1,x\n', "line 4: unparseable price in open/close"),
    "oversized-quoted-cell": (
        f'date,open,close\n2024-01-02,1,2\n2024-01-03,"1\n{_LONG}",2\n',
        f"line 3: field larger than field limit ({csv.field_size_limit()})",
    ),
    "oversized-header-cell": (
        f"date,open,close,{_LONG}\n2024-01-02,1,2,x\n2024-01-03,1,2,x\n",
        f"{{path}}: field larger than field limit ({csv.field_size_limit()})",
    ),
}


@pytest.fixture
def reference_config_path() -> Path:
    return REFERENCE_CONFIG


@pytest.fixture
def noisy_config_path() -> Path:
    return NOISY_CONFIG


@pytest.fixture
def reference_scenario():
    return load_config(REFERENCE_CONFIG).build()


def parse_stanza(output: str) -> dict[str, str]:
    """Pull key=value pairs out of a command's machine-readable stanza."""
    pairs = {}
    for line in output.splitlines():
        m = re.fullmatch(r"([A-Za-z_][A-Za-z0-9_.]*)=(.*)", line.strip())
        if m:
            pairs[m.group(1)] = m.group(2)
    return pairs
