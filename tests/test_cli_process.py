"""Exit codes of the CLI run as its own process.

In-process tests call `main` and cannot see an exception that escapes it:
Python turns that into exit 1 plus a traceback, which looks like a usage
error by its code alone.  Here each request runs `python -m stcores.cli`,
and stderr must hold no traceback.  The gap-limit requests run with their
address space capped at 1 GiB, so a walk sized by a huge pair fails them;
the DP and `distinct-odd` requests run under 384 MiB, so a fold whose memory
grows past its stated bound fails them.
"""

import os
import subprocess
import sys
import textwrap
from functools import partial
from operator import itemgetter
from pathlib import Path

import pytest

try:
    import resource
except ImportError:  # not on Windows
    resource = None

SRC = Path(__file__).resolve().parents[1] / "src"
ONE_GIB = 1 << 30
FOLD_LIMIT = 384 << 20


def run_python(*argv, cwd, preexec_fn=None, timeout=60):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=timeout, preexec_fn=preexec_fn,
    )


def run_process(*argv, cwd, preexec_fn=None, timeout=60):
    return run_python("-m", "stcores.cli", *argv, cwd=cwd, preexec_fn=preexec_fn, timeout=timeout)


def limit_address_space(limit=ONE_GIB):
    """Cap the child's address space at `limit` bytes: a request that outgrows it fails."""
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


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
    proc = run_python(
        "-c", "import resource; print(resource.getrlimit(resource.RLIMIT_AS)[0])",
        cwd=tmp_path, preexec_fn=limit_address_space,
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
    # a verify range is checked whole before its first fold, so s = 1..1414 are not folded first
    proc = run_process(
        "verify", "fib-distinct", "--max-s", "3000000",
        cwd=tmp_path, preexec_fn=limit_address_space, timeout=30,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    assert "(1415, 1416)" in proc.stderr
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


@pytest.mark.parametrize(
    "argv",
    [
        ("fib-distinct", "--max-s", "40"),
        ("maxsize-s-s1", "--max-s", "40"),
        ("anderson", "--max-sum", "60"),
    ],
    ids=itemgetter(0),
)
def test_verify_past_the_walk_passes(tmp_path, argv):
    # (40, 41) holds F(41) = 165,580,141 distinct cores and (29, 31) 1.9e15 cores in all:
    # the residue-height DP answers them
    proc = run_process("verify", *argv, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "result: PASS" in proc.stdout
    assert "Traceback" not in proc.stderr


def test_bijection_at_the_shape_cap_is_mapped(tmp_path):
    # perimeter 10^6 is the README's cap and is mapped; 10^6 + 1 is refused (test_cli.py)
    proc = run_process("bijection", "--distinct", "1000000", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    assert "Traceback" not in proc.stderr


@needs_resource
def test_height_dp_fits_its_memory_ceiling(tmp_path):
    # the DP keeps every class's rows for the backtrack, so its memory grows about as
    # min(s, t)^4.3: (60, 61) needed more than 96 MiB and passed at 128 MiB
    code = textwrap.dedent("""
        import stcores
        summary = stcores.summarize_core(60, 61, "all")
        assert summary.count == stcores.anderson_count(60, 61), summary.count
        assert len(summary.max_size_witnesses) == 1, summary.max_size_witnesses
        print("ok")
    """)
    proc = run_python("-c", code, cwd=tmp_path, preexec_fn=partial(limit_address_space, FOLD_LIMIT))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


@needs_resource
def test_distinct_odd_counts_without_listing(tmp_path):
    # F(34) = 5,702,887 shapes per family: counted as generated, never listed
    proc = run_process(
        "verify", "distinct-odd", "--max-m", "34",
        cwd=tmp_path, preexec_fn=partial(limit_address_space, FOLD_LIMIT), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "result: PASS" in proc.stdout
    assert "Traceback" not in proc.stderr
