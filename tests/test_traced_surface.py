"""The per-layer call counts BENCHMARK.json lists name functions that exist,
and every other public function of the package has a caller in it.

A traced benchmark run looks up each of them, so deleting or renaming one
breaks the benchmark; this check finds it without running a workload.
"""

import ast
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


def _public_functions_and_references():
    """Each public top-level function of ``optivote`` as ``module.name``, and
    the names every module loads, each with the top-level function it is
    loaded in (None outside any function)."""
    functions, references = [], []
    for path in sorted((Path(__file__).parents[1] / "src" / "optivote").glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            owner = None
            if isinstance(top, ast.FunctionDef):
                owner = f"{path.stem}.{top.name}"
                if not top.name.startswith("_"):
                    functions.append(owner)
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    references.append((node.id, owner))
                elif isinstance(node, ast.Attribute):
                    references.append((node.attr, owner))
    return functions, references


def test_every_public_function_has_a_caller_or_is_traced():
    # No public function exists only for its own unit test: each one is
    # used by the package outside its own body, or the benchmark traces it.
    functions, references = _public_functions_and_references()
    unused = [fn for fn in functions if fn not in TRACED and not any(
        name == fn.rsplit(".", 1)[1] and owner != fn for name, owner in references)]
    assert len(functions) >= 30
    assert unused == []
