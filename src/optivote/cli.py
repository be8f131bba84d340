"""Command-line surface: simulate, theory, verify, sweep, partition-inspect.

The CLI is a thin shell over the library; every behavior here is reachable
through the package API with identical results.  Config keys can be
overridden with dotted flags, e.g. ``--run.seed 7``.

Exit codes: 0 success, 1 config/usage error, 2 verification failure,
3 runtime numeric error.
"""

import argparse
import inspect
import itertools
import json
import math
import os
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import channel as ch
from . import montecarlo, orchestrator, theory
from .config import ChannelConfig, parse_config
from .errors import ConfigError, FormatError, NumericError, UsageError


def _collect_overrides(extras: list[str]) -> dict:
    """Turn leftover ``--a.b value`` pairs into a dotted-override dict."""
    overrides = {}
    for flag, value in itertools.zip_longest(extras[::2], extras[1::2]):
        if not flag.startswith("--") or "." not in flag:
            raise ConfigError(f"unrecognized argument {flag!r}")
        if value is None:
            raise ConfigError(f"override {flag!r} is missing a value")
        try:
            overrides[flag[2:]] = json.loads(value)
        except json.JSONDecodeError:
            overrides[flag[2:]] = value  # a bare string
    return overrides


def _emit(text: str, path: str | None) -> None:
    """Write ``text`` to ``path``, or to stdout without one."""
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_simulate(args, extras) -> int:
    state = orchestrator.run(parse_config(args.config, _collect_overrides(extras)),
                             threads=args.threads)
    print(f"final accuracy {state.final_accuracy:.4f}")
    return 0


# Theory operations: name -> (the flags it reads, in order; the module defining
# it).  A closed form reads its parameters; lambda_eff and lambda_oracle read the
# channel section's fields but sigma_n2, which neither uses.
THEORY_OPS = {
    **{op.__name__: (tuple(inspect.signature(op).parameters), theory) for op in (
        theory.theta, theory.energy_means, theory.error_bound, theory.q_bound,
        theory.error_bound_full, theory.corollary1_check, theory.convergence_bound)},
    **{op.__name__: (tuple(f.name for f in fields(ChannelConfig) if f.name != "sigma_n2"), ch)
       for op in (ch.lambda_eff, ch.lambda_oracle)},
}


def _finite(text: str) -> float:
    """The type of every float flag: a number that is neither NaN nor infinite."""
    if not math.isfinite(value := float(text)):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _integer(text: str) -> int:
    """The type of every integer flag: an int that a closed form can take as a float."""
    if abs(value := int(text)) > sys.float_info.max:
        raise argparse.ArgumentTypeError(f"must be at most {sys.float_info.max:.6g} in magnitude")
    return value


_finite.__name__, _integer.__name__ = "float", "int"  # for argparse's "invalid int value: 'a'"


# theory/sweep flags: name -> (type, default when not typed), the channel's from
# its config section.  --d-b sets d_b; a sweep axis --param d_b=1,4 takes the flag's type.
THEORY_FLAGS = {
    "M": (_integer, 10), "xi": (_finite, 1.0), "q": (_finite, 0.2), "g": (_finite, 1.0),
    "alpha": (_finite, 1.0), "d_b": (_integer, 1), "m_plus": (_integer, 0),
    "m_minus": (_integer, 0), "theta": (_finite, 1.0), "p_avg": (_finite, 1.0),
    "lam": (_finite, 1.0), "p_err": (_finite, 0.0), "L1": (_finite, 1.0), "gap": (_finite, 1.0),
    "sigma_l1": (_finite, 1.0), "N": (_integer, 100), "gamma": (_integer, 1),
    **{f.name: (_finite, f.default) for f in fields(ChannelConfig)},
}


def _sweep_axes(specs: list[str]) -> dict[str, list[tuple[str, object]]]:
    """Each ``name=v1,v2,...`` -> name: [(value as typed, value as the flag's type)]."""
    axes = {}
    for spec in specs:
        name, sep, values = spec.partition("=")
        if not sep:
            raise ConfigError(f"--param expects name=v1,v2,... got {spec!r}")
        if name not in THEORY_FLAGS:
            raise ConfigError(f"--param {name}: not a theory flag; "
                              f"choose from {', '.join(THEORY_FLAGS)}")
        if name in axes:
            raise ConfigError(f"--param {name}: the axis is repeated")
        try:
            axes[name] = [(text, THEORY_FLAGS[name][0](text)) for text in values.split(",")]
        except (ValueError, argparse.ArgumentTypeError) as err:
            raise ConfigError(f"--param {name}: {err}") from None
    return axes


def _cmd_theory(args, extras) -> int:
    """theory and sweep: evaluate --op at every point of the --param grid.

    theory has no axes, so its grid is one point, printed as JSON; sweep
    prints one CSV row per point, each axis value as typed and each element
    of a tuple-valued op in its own column (op_0, op_1, ...).
    """
    reads, module = THEORY_OPS[args.op]
    axes = _sweep_axes(args.param)
    typed = [name for name in vars(args) if name in THEORY_FLAGS]
    for name in [*typed, *axes]:
        flag = "--" + name.replace("_", "-")
        if name not in reads:
            raise ConfigError(f"--op {args.op} does not read {flag}")
        if name in axes and name in typed:
            raise ConfigError(f"--param {name} would override {flag}; give one of the two")
    rows = []
    for point in itertools.product(*axes.values()):
        given = {**vars(args), **{name: value for name, (_, value) in zip(axes, point)}}
        inputs = [given.get(name, THEORY_FLAGS[name][1]) for name in reads]
        if module is ch:  # the channel's ops take the section their flags build
            inputs = [ChannelConfig(**dict(zip(reads, inputs)))]
        try:  # looked up at call time, for perfbench's tracer
            result = getattr(module, args.op)(*inputs)
        except OverflowError:
            result = math.inf
        values = result if isinstance(result, tuple) else (result,)
        if not all(map(math.isfinite, values)):
            at = "".join(f" {name}={text}" for name, (text, _) in zip(axes, point))
            raise NumericError(f"--op {args.op} overflowed{at and ' at' + at}")
        rows.append(",".join([text for text, _ in point] + [f"{v}" for v in values]))
    if args.command == "theory":
        print(json.dumps({args.op: result}))
        return 0
    columns = [f"{args.op}_{i}" for i in range(len(values))] if len(values) > 1 else [args.op]
    _emit("\n".join([",".join([*axes, *columns]), *rows]) + "\n", args.output)
    return 0


def _cmd_verify(args, extras) -> int:
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    reports = montecarlo.run_default_suite(samples=args.samples, seed=args.seed,
                                           threads=args.threads)
    _emit(json.dumps([asdict(r) for r in reports], indent=2) + "\n", args.output)
    failures = [r for r in reports if not r.passed]
    for r in failures:
        print(f"FAIL {r.name}: empirical={r.empirical} vs {r.theoretical} "
              f"({r.tolerance_rule})", file=sys.stderr)
    return 2 if failures else 0


def _cmd_partition_inspect(args, extras) -> int:
    train_labels, shards = orchestrator.train_shards(
        parse_config(args.config, _collect_overrides(extras)))
    info = []
    for node, idx in enumerate(shards):
        labels, counts = np.unique(train_labels[idx], return_counts=True)
        info.append({
            "node": node,
            "samples": int(len(idx)),
            "labels": {int(l): int(c) for l, c in zip(labels, counts)},
        })
    print(json.dumps(info, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="optivote")
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    parser.add_argument("--threads", type=int, default=cpus,
                        help="worker threads of verify's Monte Carlo kernel and of the "
                             "synthetic data build (default: the CPUs this process may "
                             "use); no output depends on them")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a configured training simulation")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=_cmd_simulate)

    for command, summary in (("theory", "evaluate one closed-form expression"),
                             ("sweep", "evaluate a theory op over a parameter grid")):
        p = sub.add_parser(command, help=summary)
        p.add_argument("--op", required=True, choices=sorted(THEORY_OPS))
        for name, (kind, _) in THEORY_FLAGS.items():
            p.add_argument("--" + name.replace("_", "-"), type=kind, default=argparse.SUPPRESS)
        p.set_defaults(fn=_cmd_theory, param=[], output=None)
    p.add_argument("--param", action="append", default=[],
                   help="grid axis as name=v1,v2,... (repeatable); name is a "
                        "theory flag without dashes, e.g. d_b")
    p.add_argument("--output", default=None)

    p = sub.add_parser("verify", help="run the Monte Carlo verification suite")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default=None)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("partition-inspect", help="show per-node label histograms")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=_cmd_partition_inspect)
    return parser


def main(argv=None) -> int:
    try:
        args, extras = build_parser().parse_known_args(argv)
    except SystemExit as stop:  # argparse exits 2 on a usage error: exit 1, as for any bad input
        return 1 if stop.code else 0
    try:
        if args.threads < 1:
            raise UsageError(f"--threads must be >= 1, got {args.threads}")
        if (output := getattr(args, "output", None)) and not Path(output).parent.is_dir():
            raise UsageError(f"--output: {str(Path(output).parent)!r} is not a directory")
        if output and Path(output).is_dir():
            raise UsageError(f"--output: {output!r} is a directory")
        if extras and "config" not in args:  # only --config commands take overrides
            raise ConfigError(f"unrecognized arguments: {extras}")
        return args.fn(args, extras)
    except (ConfigError, UsageError, FormatError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except NumericError as err:
        print(f"numeric error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
