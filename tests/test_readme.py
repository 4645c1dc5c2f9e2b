"""The README's library examples run as written."""

import doctest
import re
from pathlib import Path

from stcores.claims import CLAIMS

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_examples_run():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.failed == 0
    assert result.attempted > 0  # a README without examples would pass vacuously


def test_claims_table_matches_the_registry():
    # the verify section's table names each registered claim once, with its range flags
    lines = README.read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("| claim "))
    rows = {}
    for line in lines[start + 2 :]:
        if not line.startswith("|"):
            break
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        name = cells[0].strip("`")
        assert name not in rows, name
        rows[name] = re.findall(r"--[a-z-]+", cells[-1])
    assert sorted(rows) == sorted(CLAIMS)
    for name, flags in rows.items():
        assert flags == ["--" + key.replace("_", "-") for key in CLAIMS[name].defaults], name
