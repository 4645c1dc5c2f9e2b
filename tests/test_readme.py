"""The README's library examples run as written."""

import doctest
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_examples_run():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.failed == 0
    assert result.attempted > 0  # a README without examples would pass vacuously
