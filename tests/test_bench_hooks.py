"""The names the benchmark's tracer hooks by name must exist.

perfbench/spans.py skips a target it cannot find, without a warning, and
its time then lands in the caller's self time.  So a rename here would go
unnoticed there; these checks fail instead.
"""

import argparse
import importlib
import importlib.util
from pathlib import Path

import pytest

from stcores import cli, search
from stcores.partition import Partition

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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


def test_patched_names_exist():
    assert callable(search.canonical_key)
    assert callable(cli._render_table)
    assert callable(cli.enumerate_core) and callable(cli.summarize_core)
    assert callable(Partition.__dict__.get("__post_init__"))
