"""Span recorder that traces optivote from outside the package.

``Tracer.installed()`` wraps every public function of the traced modules
and rebinds each module attribute that refers to it, including names a
module imported from another (``orchestrator.derive`` is ``rng.derive``),
so calls made through any binding are recorded under the defining module's
name.  Spans live in memory until ``write_spans``.
"""

import contextlib
import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

TRACED_MODULES = ("orchestrator", "rng", "learner", "channel", "phy", "power",
                  "montecarlo", "theory", "config", "cli")


def _forward_flop(model, n: int) -> int:
    d, c, h = model.d, model.num_classes, model.hidden
    return 2 * n * (d * c if model.arch == "logistic" else d * h + h * c)


def _count_evaluate(counters, model, dataset, *args, **kwargs):
    counters["learner.evaluate.flop"] += _forward_flop(model, dataset.n)


def _count_gradient(counters, model, x, y, *args, **kwargs):
    # Backprop repeats the forward matmuls once (logistic) and adds the
    # hidden-layer pair (mlp): 4ndc, or 4ndh + 6nhc.
    n, d, c, h = len(y), model.d, model.num_classes, model.hidden
    backward = 2 * n * (d * c if model.arch == "logistic" else d * h + 2 * h * c)
    counters["learner.gradient.flop"] += _forward_flop(model, n) + backward


def _count_intensities(counters, params, rng, size, *args, **kwargs):
    counters["channel.sample_intensities.samples"] += int(size)


# Work counters computed from the arguments of one wrapped call.
ARGUMENT_COUNTERS = {
    "learner.evaluate": _count_evaluate,
    "learner.gradient": _count_gradient,
    "channel.sample_intensities": _count_intensities,
}


class Tracer:
    """Records (name, start, end, parent, run id) spans and named counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.run_id = 0
        self.wrapped: list[str] = []
        self._stack: list[int] = []

    def wrap(self, name, fn):
        count = ARGUMENT_COUNTERS.get(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                count(self.counters, *args, **kwargs)
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind the traced modules' public functions for the block's duration."""
        modules = [importlib.import_module(f"optivote.{m}") for m in TRACED_MODULES]
        wrappers, names = {}, []
        for short, module in zip(TRACED_MODULES, modules):
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrappers[obj] = self.wrap(f"{short}.{attr}", obj)
                    names.append(f"{short}.{attr}")
        self.wrapped = names
        patched = []
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
                    patched.append((module, attr, obj))
        try:
            yield self
        finally:
            for module, attr, obj in patched:
                setattr(module, attr, obj)

    def totals(self) -> tuple[dict, dict]:
        """Per-name call counts and self time (span minus covered children)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: defaultdict[str, int] = defaultdict(int)
        self_s: defaultdict[str, float] = defaultdict(float)
        for (name, start, end, _, _), covered in zip(self.spans, child_time):
            calls[name] += 1
            self_s[name] += end - start - covered
        return dict(calls), dict(self_s)

    def write_spans(self, path) -> None:
        with open(path, "w") as f:
            for name, start, end, parent, run_id in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "run": run_id}) + "\n")
