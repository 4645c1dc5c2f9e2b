"""Tests of the benchmark itself: python3 -m pytest perfbench/tests"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import spans
import workloads
from stcores import cli, search, sequences
from stcores.partition import Partition

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_times_on_hand_built_tree():
    # bench [0,10] holds cli [1,4], which holds search.walk [2,3], and claims [5,9].
    tree = [
        ["bench", 0, 10, -1, None],
        ["cli", 1, 4, 0, None],
        ["search.walk", 2, 3, 1, None],
        ["claims", 5, 9, 0, None],
        ["bench", 20, 22, -1, None],
        ["search.walk", 20, 21, 4, None],
    ]
    assert spans.self_times(tree) == {"bench": 4, "cli": 2, "search.walk": 2, "claims": 4}


def test_layer_metrics_on_hand_built_tree():
    tree = [
        ["bench", 0, 10, -1, 12],
        ["cli", 0, 10, 0, None],
        ["claims", 1, 9, 1, 3],
        ["search.walk", 2, 4, 2, [5, 6, "distinct"]],
        ["betaset.decode", 2.5, 3, 3, None],
        ["search.filter", 3, 3.5, 3, True],
        ["search.walk", 5, 7, 2, [5, 6, "distinct"]],
        ["betaset.decode", 5.5, 6, 6, None],
        ["search.filter", 6, 6.5, 6, False],
    ]
    m = spans.layer_metrics(tree)
    assert m["bench.traced_wall_s"] == 10
    assert m["claims_s"] == 4 and m["search.walk_s"] == 2 and m["bench_s"] == 0
    assert sum(m[f"{layer}_pct"] for layer in spans.LAYERS) == pytest.approx(100)
    assert (m["search.ideals"], m["search.kept"], m["search.keep_ratio"]) == (2, 1, 0.5)
    assert (m["claims.family_calls"], m["claims.family_unique"], m["claims.cases"]) == (2, 1, 3)
    assert m["cli.output_bytes"] == 12


def test_instrument_records_spans_and_restores_the_program():
    before = (search.enumerate_core, cli.enumerate_core, Partition.__dict__["__post_init__"], dict(search.FILTERS))
    tracer = spans.Tracer()
    with spans.instrument(tracer), tracer.span(spans.ROOT_SPAN):
        assert search.enumerate_core(5, 7, "distinct").count == 16
    after = (search.enumerate_core, cli.enumerate_core, Partition.__dict__["__post_init__"], dict(search.FILTERS))
    assert after == before
    m = spans.layer_metrics(tracer.spans)
    assert (m["betaset.decoded"], m["search.kept"], m["search.gap_poset_calls"]) == (16, 16, 1)
    assert m["partition.constructed"] >= 16
    assert sum(m[f"{layer}_s"] for layer in spans.LAYERS) == pytest.approx(m["bench.traced_wall_s"])


def error_rate(*names):
    results = [workloads.run_request(workloads.REQUESTS[name]) for name in names]
    return sum(r.error is not None for r in results) / len(results), [r.error for r in results]


def test_correct_requests_pass():
    assert error_rate("table_distinct") == (0.0, [None])


def test_corrupted_closed_form_raises_error_rate(monkeypatch):
    monkeypatch.setattr(sequences, "fibonacci", lambda n: n)
    rate, errors = error_rate("table_distinct")
    assert rate == 1.0 and "F(" in errors[0]


def test_corrupted_renderer_raises_error_rate(monkeypatch):
    render = cli._render_table
    monkeypatch.setattr(cli, "_render_table", lambda *args: render(*args).replace(",1,", ",2,", 1))
    rate, errors = error_rate("table_distinct")
    assert rate == 1.0 and "sha256" in errors[0]


def test_crashing_request_is_a_failure(monkeypatch):
    def broken(*args):
        raise ArithmeticError("corrupted")

    monkeypatch.setattr(cli, "enumerate_core", broken)
    rate, errors = error_rate("table_distinct")
    assert rate == 1.0 and "ArithmeticError" in errors[0]


def _bench(*args, cwd=ROOT):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line_holds_the_declared_metrics(trace):
    proc = _bench("--workload", "listing", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    if trace == "1":
        shares = sum(v["value"] for k, v in result["metrics"].items() if k.endswith("_pct"))
        assert shares == pytest.approx(100)
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "counts", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
