"""Exit codes of the CLI run as its own process.

In-process tests call `main` and cannot see an exception that escapes it:
Python turns that into exit 1 plus a traceback, which looks like a usage
error by its code alone.  Here each request runs `python -m stcores.cli`,
and stderr must hold no traceback.  The gap-limit requests run with their
address space capped at 1 GiB, so a walk sized by a huge pair fails them.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

try:
    import resource
except ImportError:  # not on Windows
    resource = None

SRC = Path(__file__).resolve().parents[1] / "src"
ONE_GIB = 1 << 30


def run_process(*argv, cwd, preexec_fn=None):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-m", "stcores.cli", *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=60, preexec_fn=preexec_fn,
    )


def limit_address_space():
    """Cap the child at 1 GiB of address space: a walk sized by the pair would fail."""
    resource.setrlimit(resource.RLIMIT_AS, (ONE_GIB, ONE_GIB))


needs_resource = pytest.mark.skipif(resource is None, reason="needs the resource module")


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


@needs_resource
def test_address_space_limit_applies(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", "import resource; print(resource.getrlimit(resource.RLIMIT_AS)[0])"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, preexec_fn=limit_address_space,
    )
    assert proc.stdout == f"{ONE_GIB}\n", proc.stderr


@needs_resource
def test_gap_limit_refuses_before_allocating(tmp_path):
    proc = run_process(
        "enumerate", "--s", "99999999999", "--t", "100000000000", "--filter", "distinct",
        cwd=tmp_path, preexec_fn=limit_address_space,
    )
    assert proc.returncode == 1, proc.stderr
    assert "limit of 1000000" in proc.stderr
    assert "Traceback" not in proc.stderr


@needs_resource
@pytest.mark.parametrize("part_filter", ["all", "distinct", "odd", "self_conjugate"])
def test_pair_without_gaps_is_not_sized_by_t(tmp_path, part_filter):
    # (1, 10^12) has no gaps: the walk is sized by F, never by max(s, t)
    proc = run_process(
        "enumerate", "--s", "1", "--t", "1000000000000", "--filter", part_filter,
        cwd=tmp_path, preexec_fn=limit_address_space,
    )
    assert proc.returncode == 0, proc.stderr
    assert "count: 1" in proc.stdout.splitlines()
