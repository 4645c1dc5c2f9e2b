"""The names the benchmark's tracer hooks by name must exist, and its requests must pass.

perfbench/spans.py skips a target it cannot find, without a warning, and
its time then lands in the caller's self time.  So a rename here would go
unnoticed there; these checks fail instead.  The requests run through
perfbench/workloads.py itself, so its recorded sha256 pins and closed-form
checks are the ones tier-1 applies.
"""

import argparse
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from stcores import betaset, bijection, cli, partition, search
from stcores.partition import Partition

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _filter_choices(command: str) -> list:
    subparsers = next(
        a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    actions = subparsers.choices[command]._actions
    return next(a for a in actions if a.dest == "part_filter").choices


def test_function_targets_resolve(spans):
    for _, module_name, attr in spans.FUNCTION_TARGETS:
        target = getattr(importlib.import_module(module_name), attr, None)
        assert callable(target), f"{module_name}.{attr}"


@pytest.mark.parametrize("command", ["enumerate", "table"])
def test_filters_are_the_cli_choices(command):
    assert sorted(search.FILTERS) == list(_filter_choices(command))
    assert all(callable(predicate) for predicate in search.FILTERS.values())


def test_patched_names_exist(monkeypatch):
    assert callable(search.canonical_key)
    assert callable(cli._render_table)
    assert callable(cli._listing) and callable(search.summarize_core)
    post_init = Partition.__dict__.get("__post_init__")
    assert callable(post_init)
    # partition.constructed patches __post_init__ on the class object, and
    # dataclass(slots=True) replaces the class it decorates: every module
    # must bind the one class that the patch reaches.
    assert search.Partition is bijection.Partition is betaset.Partition is Partition
    calls = []

    def counting(self):
        calls.append(self.parts)
        post_init(self)

    monkeypatch.setattr(Partition, "__post_init__", counting)
    Partition((2, 1))
    assert calls == [(2, 1)]
    # the unchecked builders skip __post_init__, so the count leaves them out
    assert partition._trusted((2, 1)).parts == (2, 1)
    assert [lam.parts for lam in partition._trusted_all([(2, 1), (1,)])] == [(2, 1), (1,)]
    assert calls == [(2, 1)]


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up there
        spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["listing", "distinct", "self_conjugate", "odd", "bijection"])
def test_benchmark_request_output_checks_pass(workloads, name):
    # The benchmark's own sha256 pins and closed-form checks on the requests
    # that no other tier-1 test compares byte for byte.
    assert workloads.run_request(workloads.REQUESTS[name]).error is None
