"""Exit codes of the CLI run as its own process.

In-process tests call `main` and cannot see an exception that escapes it:
Python turns that into exit 1 plus a traceback, which looks like a usage
error by its code alone.  Here each request runs `python -m stcores.cli`,
and stderr must hold no traceback.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def run_process(*argv, cwd):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-m", "stcores.cli", *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=60,
    )


@pytest.mark.parametrize(
    "argv,code",
    [
        (("render", "--partition", "3,1"), 0),
        (("enumerate", "--s", "3"), 1),
        (("render", "--partition", "3,1", "--out", "missing/result.txt"), 1),
        (("enumerate", "--s", "2", "--t", "4"), 2),
    ],
    ids=["ok", "bad-args", "out-missing-dir", "infinite-family"],
)
def test_exit_code_without_traceback(tmp_path, argv, code):
    proc = run_process(*argv, cwd=tmp_path)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    if code:
        assert proc.stdout == ""
        assert "error" in proc.stderr
    else:
        assert proc.stdout == "###\n#\n"
