"""optivote benchmark: one workload per process, or all of them in turn.

    python3 perfbench/run.py                          # every workload, seed 0
    python3 perfbench/run.py --workload desk --seed 3 --seconds 40 --trace 0

The second form is how BENCHMARK.json's ``command`` is called, one workload
at a time, so ``--seconds`` (default ``run_seconds``) must stay accepted.
``--trace 0`` measures the end-to-end metrics untraced.  ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics.
The metrics printed in the last line's JSON are the ones ``BENCHMARK.json``
lists for the mode; the table above it also shows the per-scheme figures.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import Tracer
from workloads import SCHEMES, WORKLOADS, Session, run_pass

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
MIN_PASSES = 3  # untraced passes per run, so set-up is sampled at least three times
# Units of the table-only figures; BENCHMARK.json gives the rest.
EXTRA_UNITS = {"verify_s": "s", "round_ms": "ms", "final_accuracy": "fraction",
               "vote_error_rate": "fraction"}


def pin_environment() -> int:
    """Cap BLAS/OpenMP threads at nproc and drop OPTIVOTE_SEED; call before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        wanted = int(value) if value.isdigit() and int(value) > 0 else nproc
        os.environ[var] = str(min(wanted, nproc))
    dropped = os.environ.pop("OPTIVOTE_SEED", None)
    if dropped is not None:
        print(f"note: ignoring OPTIVOTE_SEED={dropped!r}, which would override --seed",
              file=sys.stderr)
    return nproc


def import_package():
    """Import optivote from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "optivote" / "cli.py").is_file():
        raise ImportError(f"no optivote package under {src}")
    sys.path.insert(0, str(src))
    import optivote.cli

    if Path(optivote.cli.__file__).resolve().parent != src / "optivote":
        raise ImportError(f"optivote was imported from {optivote.cli.__file__}")


def environment(nproc: int, seed: int) -> dict:
    import numpy
    import pydantic
    import scipy

    return {
        "machine": platform.machine(), "platform": platform.platform(), "nproc": nproc,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "pydantic": pydantic.VERSION,
        "threads": {var: os.environ[var] for var in THREAD_VARS}, "seed": seed,
    }


def measure(session, workload, seconds: float, trace: bool):
    """Run passes until the next one would end past ``seconds``.

    With ``trace`` every untraced pass is followed by a traced one, after
    an untimed (but gated) pass that takes the in-process first-pass costs,
    such as fresh page faults, which would otherwise fall on one side only.
    """
    untraced, traced = [], []
    tracer = Tracer() if trace else None
    min_passes = 1 if trace else MIN_PASSES
    start = time.perf_counter()
    if trace:
        run_pass(session, workload)
    while True:
        untraced.append(run_pass(session, workload))
        if tracer is not None:
            session.tracer = tracer
            with tracer.installed():
                traced.append(run_pass(session, workload))
            session.tracer = None
        elapsed = time.perf_counter() - start
        if len(untraced) >= min_passes and elapsed * (1 + 1 / len(untraced)) > seconds:
            return untraced, traced, tracer


def upper_percentile(values):
    """Highest percentile with at least ten samples above it, or None."""
    n = len(values)
    if n < 20:
        return None
    return int(100 * (n - 10) / n), sorted(values)[n - 11]


def end_to_end(session, workload, passes) -> tuple[dict, dict]:
    """(metrics, samples per metric); also the per-scheme figures of the table."""
    setup = [p["setup"] for p in passes]
    walls = [sum(v for k, v in p.items() if k != "setup") for p in passes]
    slowest = [max(v for k, v in p.items() if k != "setup") for p in passes]
    setup_s = statistics.median(setup)
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "slowest_op_s": statistics.median(slowest),
        # Untraced operations run in child processes; this is the largest.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }
    samples = {"setup_s": setup, "wall_s": walls, "slowest_op_s": slowest}
    if workload.config is None:
        metrics["verify_s"] = statistics.median(p["verify"] for p in passes)
        samples["verify_s"] = [p["verify"] for p in passes]
        return metrics, samples
    if session.rounds:  # zero when every simulate failed the gate
        for scheme in SCHEMES:
            rounds_ms = [(p[scheme] - setup_s) / session.rounds * 1e3 for p in passes]
            metrics[f"round_ms.{scheme}"] = statistics.median(rounds_ms)
            samples[f"round_ms.{scheme}"] = rounds_ms
    for scheme, accuracy in session.accuracy.items():
        metrics[f"final_accuracy.{scheme}"] = accuracy
    if "optivote" in session.vote_error_rate:
        metrics["vote_error_rate.optivote"] = session.vote_error_rate["optivote"]
    return metrics, samples


def per_layer(session, tracer, untraced, traced) -> dict:
    calls, self_s = tracer.totals()
    n = len(traced)
    metrics = {}
    for name in tracer.wrapped:
        metrics[f"{name}.calls"] = calls.get(name, 0) / n
        metrics[f"{name}.self_s"] = self_s.get(name, 0.0) / n
    counters = tracer.counters
    metrics["learner.evaluate.gflop"] = counters["learner.evaluate.flop"] / 1e9 / n
    metrics["learner.gradient.gflop"] = counters["learner.gradient.flop"] / 1e9 / n
    metrics["channel.sample_intensities.samples"] = (
        counters["channel.sample_intensities.samples"] / n)
    metrics["cli.bytes_written"] = session.bytes_written / session.passes
    metrics["montecarlo.passed_ratio"] = (
        session.checks_passed / session.checks_run if session.checks_run else 0.0)
    # Median over the (untraced, traced) pass pairs, each run back to back.
    metrics["trace.overhead_s"] = statistics.median(
        sum(t.values()) - sum(u.values()) for u, t in zip(untraced, traced))
    return metrics


def print_layer_table(tracer, traced) -> None:
    calls, self_s = tracer.totals()
    n = len(traced)
    pass_s = statistics.fmean(sum(p.values()) for p in traced)
    print(f"per-layer, per traced pass ({n} passes, {pass_s:.3f} s each):")
    print(f"  {'function':40s} {'calls':>10s} {'self_s':>10s} {'share':>7s}")
    for name in sorted(calls, key=self_s.get, reverse=True):
        print(f"  {name:40s} {calls[name] / n:10.0f} {self_s[name] / n:10.4f} "
              f"{self_s[name] / n / pass_s:7.1%}")


def print_metric_table(metrics, units, samples) -> None:
    """Timings carry their sample count; the value is their median."""
    print(f"  {'metric':44s} {'value':>12s} {'unit':8s} {'n':>4s}  upper percentile")
    for name, value in metrics.items():
        values = samples.get(name, [])
        upper = upper_percentile(values)
        tail = f"p{upper[0]} {upper[1]:.6g}" if upper else ""
        print(f"  {name:44s} {value:12.6g} {units.get(name, ''):8s} "
              f"{len(values) or '':>4}  {tail}")


def run_workload(args, spec) -> int:
    nproc = pin_environment()
    try:
        import_package()
    except ImportError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = environment(nproc, args.seed)
    print(f"optivote benchmark: workload {workload.name}, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}")
    print("environment: " + json.dumps(env, sort_keys=True))

    work = OUT / "work" / f"{workload.name}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    session = Session(ROOT, work, args.seed, fork=not args.trace)
    untraced, traced, tracer = measure(session, workload, args.seconds, bool(args.trace))
    shutil.rmtree(work)

    if tracer is None:
        section = "end_to_end"
        metrics, samples = end_to_end(session, workload, untraced)
        shown = metrics
    else:
        section = "per_layer"
        metrics, samples = per_layer(session, tracer, untraced, traced), {}
        shown = {m["name"]: metrics[m["name"]] for m in spec[section]}
        tracer.write_spans(OUT / f"spans-{workload.name}-seed{args.seed}.jsonl")
        print_layer_table(tracer, traced)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update({name: EXTRA_UNITS[name.split(".")[0]] for name in metrics
                  if name.split(".")[0] in EXTRA_UNITS})
    print(f"{section} metrics, {len(untraced)} untraced and {len(traced)} traced passes:")
    print_metric_table(shown, units, samples)
    for key, digest in session.digests.items():
        print(f"  sha256 {key:22s} {digest}")

    result = {
        "correct": not session.failures,
        "attempted": session.attempted,
        "failed": len(session.failed_ops),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in spec[section]},
    }
    record = dict(result, workload=workload.name, trace=args.trace, environment=env,
                  all_metrics=metrics, samples=samples, digests=session.digests,
                  failures=session.failures,
                  passes={"untraced": untraced, "traced": traced})
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args, spec) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    results, code = {}, 0
    for name in (w["name"] for w in spec["workloads"]):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with code {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
        code = code or int(not results[name]["correct"])
    print(json.dumps({"correct": code == 0, "workloads": results}))
    return code


def parse_args(argv, spec) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, spec)
    OUT.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args, spec)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
