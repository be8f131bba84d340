"""Self-test of the benchmark, at tiny sizes (about fifteen seconds).

    python3 perfbench/selftest.py

Checks that BENCHMARK.json keeps to its format limits, that the command
line it is called with is accepted, that a tiny
run of every workload emits every listed metric in both modes, that the
correctness gate trips on a corrupted metrics.csv and on an accuracy
floor, and that the benchmark fails without a result where the package
is missing.
"""

import contextlib
import dataclasses
import io
import json
import re
import shutil
import subprocess
import sys
from argparse import Namespace
from pathlib import Path

import run
import workloads

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")

TINY = {
    "desk": ("--run.rounds", "3"),
    "mnist_shape": ("--learner.dataset.n", "2000", "--learner.dataset.n_test", "500",
                    "--run.rounds", "2"),
}


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def check_spec(spec: dict) -> None:
    expect(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}, "BENCHMARK.json keys")
    expect(1 <= len(spec["paths"]) <= 16, "paths count")
    for path in spec["paths"]:
        expect(PATH.fullmatch(path) and not path.startswith("/") and ".." not in path,
               f"path {path!r}")
    expect(len(spec["command"]) <= 32 and all(len(a) <= 200 for a in spec["command"]),
           "command")
    expect(isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60,
           "run_seconds")
    expect(2 <= len(spec["workloads"]) <= 8, "workload count")
    expect(1 <= len(spec["end_to_end"]) <= 16, "end_to_end count")
    expect(1 <= len(spec["per_layer"]) <= 128, "per_layer count")
    names = [w["name"] for w in spec["workloads"]]
    for w in spec["workloads"]:
        expect(set(w) == {"name", "why"} and len(w["why"]) <= 200
               and "\n" not in w["why"], f"workload {w}")
    for m in spec["end_to_end"]:
        expect(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25,
               f"end_to_end metric {m}")
    for m in spec["per_layer"]:
        expect(set(m) == {"name", "unit", "better"}, f"per_layer metric {m}")
    metrics = spec["end_to_end"] + spec["per_layer"]
    names += [m["name"] for m in metrics]
    expect(all(NAME.fullmatch(n) for n in names), "metric or workload name format")
    expect(len(names) == len(set(names)), "names are used once")
    expect(all(UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
               for m in metrics), "units and directions")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    expect(setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in spec["end_to_end"])}],
           "setup_s has unit s, lower is better, and the largest bound")
    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS),
           "BENCHMARK.json and workloads.py list the same workloads")
    for w in spec["workloads"]:
        argv = ["--workload", w["name"], "--seed", "7", "--seconds",
                str(spec["run_seconds"]), "--trace", "1"]
        args = run.parse_args(argv, spec)
        expect((args.workload, args.seed, args.seconds, args.trace)
               == (w["name"], 7, spec["run_seconds"], 1),
               f"the command line {argv} is accepted")


def tiny_runs(spec: dict) -> None:
    """Every workload at tiny size, both modes: every listed metric is emitted."""
    for name, workload in workloads.WORKLOADS.items():
        if workload.config is None:
            tiny = dataclasses.replace(workload, samples=10_000)
        else:
            tiny = dataclasses.replace(workload, overrides=workload.overrides + TINY[name],
                                       floors={})
        workloads.WORKLOADS[name] = tiny
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = run.run_workload(
                    Namespace(workload=name, seed=1, seconds=0.01, trace=trace), spec)
            result = json.loads(out.getvalue().strip().splitlines()[-1])
            expect(code == 0 and result["correct"] and result["failed"] == 0,
                   f"{name} trace {trace}: {result}")
            expect(list(result["metrics"]) == [m["name"] for m in spec[section]],
                   f"{name} trace {trace}: metric names")
            expect(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
                   f"{name} trace {trace}: numeric values")
            print(f"selftest: {name} trace {trace}: {result['attempted']} operations ok")


def gate_trips(work: Path) -> None:
    """A corrupted metrics.csv and a missed accuracy floor each fail one operation."""
    desk = workloads.WORKLOADS["desk"]
    session = workloads.Session(run.ROOT, work, seed=1)
    with contextlib.redirect_stderr(io.StringIO()):
        session.simulate(desk, "optivote", ("--run.scheme", "optivote"))
        expect(not session.failures, "clean run passes the gate")
        metrics_csv = work / "optivote" / "metrics.csv"
        metrics_csv.write_text(metrics_csv.read_text().replace(",", ";", 1))
        session.check_digest("optivote", metrics_csv)
        expect(len(session.failed_ops) == 1, "corrupted metrics.csv trips the gate")
        strict = dataclasses.replace(desk, floors={"ideal_mv": 1.01})
        session.simulate(strict, "ideal_mv", ("--run.scheme", "ideal_mv"))
        expect(len(session.failed_ops) == 2, "accuracy below the floor trips the gate")
    print("selftest: gate trips on a corrupted hash and on an accuracy floor")


def fails_without_package(scratch: Path) -> None:
    """Where only BENCHMARK.json and perfbench/ exist, exit non-zero, print no result."""
    scratch.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", scratch)
    shutil.copytree(Path(__file__).parent, scratch / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk", "--seconds", "1"],
        cwd=scratch, capture_output=True, text=True, timeout=120)
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
           f"exit {proc.returncode} without a result, got {proc.stdout!r}")
    print("selftest: fails without a result where the package is missing")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    print("selftest: BENCHMARK.json keeps to its format limits")
    base = run.OUT / "selftest"
    shutil.rmtree(base, ignore_errors=True)
    run.OUT = base / "out"
    run.OUT.mkdir(parents=True)
    fails_without_package(base / "bare")
    tiny_runs(spec)
    gate_trips(base / "gate")
    shutil.rmtree(base)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
