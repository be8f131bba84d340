"""Workloads, the passes that drive them, and the correctness gate.

Every operation goes through the package's public entry points: the
``simulate`` and ``verify`` commands of ``optivote.cli.main`` and, for the
CLI start-up, ``python -m optivote.cli`` in a child interpreter.  In an
untraced run each ``cli.main`` call runs in a child forked from a process
that has only imported the package, so, as for a user who starts
``optivote`` once per run, nothing one operation caches in memory reaches
the next.  A traced run makes every call in-process, so that spans reach
the tracer and untraced passes compare with traced ones like for like.

An operation counts as failed when it exits non-zero, when the SHA-256 of
its output differs from the first repetition of the same operation in this
run (``metrics.csv`` for ``simulate``, the report file for ``verify``), when
a run's final accuracy is below the workload's floor for its scheme, or when
``verify`` reports a failed check.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

SCHEMES = ("optivote", "optivote_fixed_power", "ideal_mv", "fedavg_air")


@dataclass(frozen=True)
class Workload:
    """One set of inputs; ``config`` is set for simulate workloads only."""

    name: str
    config: str | None = None  # relative to the checkout root
    overrides: tuple[str, ...] = ()  # dotted CLI overrides, after the config
    floors: dict[str, float] = field(default_factory=dict)  # scheme -> min accuracy
    samples: int = 0  # Monte Carlo samples per check, verify only


# Floors sit well below the lowest final accuracy seen over seeds 0-19
# (desk) and 0-11 (mnist_shape), listed in README.md, and far above chance
# (0.1), so a broken learner, vote or channel fails the gate on any seed.
# fedavg_air on mnist_shape stays at chance after 5 rounds, so only its
# metrics.csv hash is gated.
WORKLOADS = {
    "desk": Workload(
        "desk",
        config="configs/default.json",
        overrides=("--output.dump_power", "true", "--output.dump_slots", "true"),
        floors={"optivote": 0.88, "optivote_fixed_power": 0.88,
                "ideal_mv": 0.88, "fedavg_air": 0.7},
    ),
    "mnist_shape": Workload(
        "mnist_shape",
        config="perfbench/mnist_shape.json",
        floors={"optivote": 0.3, "optivote_fixed_power": 0.3, "ideal_mv": 0.35},
    ),
    "verify": Workload("verify", samples=100_000),
}


def call_main(argv: list[str]) -> tuple[int | None, float]:
    """``cli.main(argv)`` with its stdout dropped: (exit code or None, wall seconds)."""
    from optivote import cli  # looked up per call so a traced cli.main is used

    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    except Exception:
        traceback.print_exc()
        code = None
    return code, time.perf_counter() - start


def call_main_forked(argv: list[str]) -> tuple[int | None, float]:
    """``call_main`` in a forked child, whose peak RSS joins RUSAGE_CHILDREN."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            import numpy

            # Reseed numpy's global generator from the OS, as a fresh
            # interpreter does, so unseeded draws still differ between runs.
            numpy.random.seed()
            os.close(read_fd)
            with os.fdopen(write_fd, "w") as pipe:
                json.dump(call_main(argv), pipe)
            sys.stderr.flush()
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd) as pipe:
        reply = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not reply:
        print(f"forked cli.main ended with wait status {status}", file=sys.stderr)
        return None, 0.0
    return tuple(json.loads(reply))


class Session:
    """Runs operations for one seed and applies the correctness gate.

    ``cli.main`` runs in a forked child when ``fork`` is set, else in-process.
    ``tracer``, when set, has its run id advanced per operation so that the
    spans of one operation share an id.
    """

    def __init__(self, root: Path, work: Path, seed: int, fork: bool = True):
        self.root = root
        self.work = work
        self.seed = seed
        self.fork = fork
        self.tracer = None
        self.attempted = 0
        self.failures: list[str] = []
        self.failed_ops: set[int] = set()
        self.digests: dict[str, str] = {}
        self.accuracy: dict[str, float] = {}
        self.vote_error_rate: dict[str, float] = {}
        self.rounds = 0
        self.passes = 0
        self.bytes_written = 0
        self.checks_passed = 0
        self.checks_run = 0

    def _fail(self, what: str) -> None:
        """Count the current operation as failed, however many checks it fails."""
        self.failures.append(what)
        self.failed_ops.add(self.attempted)
        print(f"gate: {what}", file=sys.stderr)

    def _cli(self, argv: list[str]) -> tuple[int | None, float]:
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.run_id = self.attempted
        return call_main_forked(argv) if self.fork else call_main(argv)

    def check_digest(self, key: str, path: Path) -> None:
        """Gate: the file's SHA-256 must equal the first one seen for ``key``."""
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        first = self.digests.setdefault(key, digest)
        if digest != first:
            self._fail(f"{key}: {path.name} SHA-256 {digest[:16]} != {first[:16]}")

    def simulate(self, workload: Workload, key: str, extra: tuple[str, ...]) -> float:
        out = self.work / key
        code, wall = self._cli([
            "simulate", "--config", str(self.root / workload.config), *workload.overrides,
            "--run.seed", str(self.seed), "--output.dir", str(out), *extra,
        ])
        if code != 0:
            self._fail(f"simulate {key}: exit code {code}")
            return wall
        self.bytes_written += sum(p.stat().st_size for p in out.iterdir())
        self.check_digest(key, out / "metrics.csv")
        summary = json.loads((out / "summary.json").read_text())
        if summary["rounds"]:
            self.rounds = summary["rounds"]
            accuracy = summary["final_accuracy"]
            self.accuracy[key] = accuracy
            rates = [m["mv_error_rate"] for m in summary["metrics"]]
            self.vote_error_rate[key] = sum(rates) / len(rates)
            if accuracy < workload.floors.get(key, 0.0):
                self._fail(f"simulate {key}: final accuracy {accuracy} "
                           f"below floor {workload.floors[key]}")
        return wall

    def verify(self, workload: Workload) -> float:
        out = self.work / "verify.json"
        code, wall = self._cli([
            "verify", "--samples", str(workload.samples), "--seed", str(self.seed),
            "--output", str(out),
        ])
        if code not in (0, 2):
            self._fail(f"verify: exit code {code}")
            return wall
        self.bytes_written += out.stat().st_size
        self.check_digest("verify", out)
        reports = json.loads(out.read_text())
        passed = sum(1 for r in reports if r["passed"])
        self.checks_passed += passed
        self.checks_run += len(reports)
        if code != 0 or passed < len(reports) or not reports:
            self._fail(f"verify: {len(reports) - passed} of {len(reports)} checks failed")
        return wall

    def startup(self) -> float:
        """Start a fresh interpreter on the CLI, as each ``optivote`` call does."""
        self.attempted += 1
        path = os.pathsep.join(filter(None, [str(self.root / "src"),
                                             os.environ.get("PYTHONPATH")]))
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "optivote.cli", "verify", "--help"],
            cwd=self.root, env=dict(os.environ, PYTHONPATH=path),
            capture_output=True, text=True, timeout=120,
        )
        wall = time.perf_counter() - start
        if proc.returncode != 0 or "--samples" not in proc.stdout:
            self._fail(f"CLI start-up: exit code {proc.returncode}: {proc.stderr[-500:]}")
        return wall


def run_pass(session: Session, workload: Workload) -> dict[str, float]:
    """One pass of the workload: wall seconds per operation, set-up first."""
    session.passes += 1
    if workload.config is None:
        return {"setup": session.startup(), "verify": session.verify(workload)}
    walls = {"setup": session.simulate(workload, "setup", ("--run.rounds", "0"))}
    for scheme in SCHEMES:
        walls[scheme] = session.simulate(workload, scheme, ("--run.scheme", scheme))
    return walls
