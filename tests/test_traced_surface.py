"""The per-layer call counts BENCHMARK.json lists name functions that exist.

A traced benchmark run looks up each of them, so deleting or renaming one
breaks the benchmark; this check finds it without running a workload.
"""

import importlib
import inspect
import json
from pathlib import Path

import pytest

BENCHMARK = json.loads((Path(__file__).parents[1] / "BENCHMARK.json").read_text())
TRACED = [m["name"].removesuffix(".calls") for m in BENCHMARK["per_layer"]
          if m["name"].endswith(".calls")]


def test_benchmark_lists_traced_functions():
    assert len(TRACED) >= 20


@pytest.mark.parametrize("name", TRACED)
def test_traced_function_exists(name):
    module, fn = name.rsplit(".", 1)
    assert inspect.isfunction(getattr(importlib.import_module(f"optivote.{module}"), fn, None))
