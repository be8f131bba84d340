"""The per-layer call counts BENCHMARK.json lists name functions that exist,
and every other public function of the package has a caller in it.

A traced benchmark run looks up each of them, so deleting or renaming one
breaks the benchmark; this check finds it without running a workload.  The
tracer keeps one span stack, so worker threads may call none of them.
"""

import ast
import importlib
import inspect
import json
import threading
from pathlib import Path

import pytest

from optivote import learner, montecarlo, rng

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


def test_worker_threads_call_no_traced_function(monkeypatch):
    # Wrap every public function of the traced modules and rebind every
    # module attribute bound to one, as the benchmark's tracer does, then
    # run both pooled paths: the cohort kernel and the synthetic data build.
    modules = [importlib.import_module(f"optivote.{m}")
               for m in sorted({name.split(".")[0] for name in TRACED})]
    callers = set()

    def recorded(fn):
        def wrapper(*args, **kwargs):
            callers.add(threading.get_ident())
            return fn(*args, **kwargs)
        return wrapper

    wrappers = {obj: recorded(obj) for module in modules for attr, obj in vars(module).items()
                if not attr.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == module.__name__}
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                monkeypatch.setattr(module, attr, wrappers[obj])
    pools = []

    class Recorder(rng.ThreadPoolExecutor):
        def __init__(self, workers):
            pools.append(workers)
            super().__init__(workers)

    monkeypatch.setattr(rng, "ThreadPoolExecutor", Recorder)
    montecarlo.run_default_suite(samples=10_000, seed=0, threads=2)
    learner.make_synthetic(10, 3 * (learner._CHUNK_NORMALS // 64), 64, 4.0, 0, threads=2)
    assert pools == [2, 2]
    assert callers == {threading.get_ident()}
