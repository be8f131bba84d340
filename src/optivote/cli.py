"""Command-line surface: simulate, theory, verify, sweep, partition-inspect.

The CLI is a thin shell over the library; every behavior here is reachable
through the package API with identical results.  Config keys can be
overridden with dotted flags, e.g. ``--run.seed 7``.

Exit codes: 0 success, 1 config/usage error, 2 verification failure,
3 runtime numeric error.
"""

import argparse
import itertools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import channel as ch
from . import montecarlo, orchestrator, theory
from .config import ChannelConfig, Config, load_config, parse_config
from .errors import ConfigError, FormatError, NumericError, UsageError


def _collect_overrides(extras: list[str]) -> dict:
    """Turn leftover ``--a.b value`` pairs into a dotted-override dict."""
    overrides = {}
    i = 0
    while i < len(extras):
        flag = extras[i]
        if not flag.startswith("--") or "." not in flag:
            raise ConfigError(f"unrecognized argument {flag!r}")
        if i + 1 >= len(extras):
            raise ConfigError(f"override {flag!r} is missing a value")
        try:
            overrides[flag[2:]] = json.loads(extras[i + 1])
        except json.JSONDecodeError:
            overrides[flag[2:]] = extras[i + 1]  # a bare string
        i += 2
    return overrides


def _load_run_config(args, extras) -> Config:
    overrides = _collect_overrides(extras)
    env_seed = os.environ.get("OPTIVOTE_SEED")
    if env_seed is not None:
        try:
            overrides["run.seed"] = int(env_seed)
        except ValueError:
            raise ConfigError(
                f"OPTIVOTE_SEED must be an integer, got {env_seed!r}") from None
    return parse_config(args.config, overrides)


def _emit(text: str, path: str | None) -> None:
    """Write ``text`` to ``path``, or to stdout without one."""
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_simulate(args, extras) -> int:
    summary = orchestrator.run(_load_run_config(args, extras))
    print(f"final accuracy {summary.final_accuracy:.4f}")
    return 0


# The channel flags of lambda_eff and lambda_oracle: all but sigma_n2.
_CHANNEL_FLAGS = ("d_min_km", "d_max_km", "lambda_opt_nm", "a0", "xi_p", "c_fspl")


def _channel(*values) -> ChannelConfig:
    """The _CHANNEL_FLAGS values, validated as the config's channel section."""
    return load_config({"channel": dict(zip(_CHANNEL_FLAGS, values))}).channel


# Theory operations: name -> (the flags it reads, fn of their values in that
# order).  Each fn looks its closed form up at call time, for perfbench's tracer.
THEORY_OPS = {
    "theta": (("p_avg", "lam"), lambda *v: theory.theta(*v)),
    "energy_means": (("m_plus", "m_minus", "theta", "sigma_n2"),
                     lambda *v: theory.energy_means(*v)),
    "error_bound": (("M", "xi", "q"), lambda *v: theory.error_bound(*v)),
    "q_bound": (("g", "alpha", "d_b"), lambda *v: theory.q_bound(*v)),
    "error_bound_full": (("M", "xi", "g", "alpha", "d_b"),
                         lambda *v: theory.error_bound_full(*v)),
    "corollary1_check": (("m_plus", "M", "p_err"), lambda *v: theory.corollary1_check(*v)),
    "convergence_bound": (("M", "xi", "L1", "gap", "sigma_l1", "N", "gamma"),
                          lambda *v: theory.convergence_bound(theory.TheoryInputs(*v))),
    "lambda_eff": (_CHANNEL_FLAGS, lambda *v: ch.lambda_eff(_channel(*v))),
    "lambda_oracle": (_CHANNEL_FLAGS, lambda *v: ch.lambda_oracle(_channel(*v))),
}


# theory/sweep flags: name -> (type, default), the channel's from its config
# section.  --d-b sets d_b; a sweep axis --param d_b=1,4 takes the flag's type.
THEORY_FLAGS = {
    "M": (int, 10), "xi": (float, 1.0), "q": (float, 0.2), "g": (float, 1.0),
    "alpha": (float, 1.0), "d_b": (int, 1), "m_plus": (int, 0), "m_minus": (int, 0),
    "theta": (float, 1.0), "p_avg": (float, 1.0), "lam": (float, 1.0),
    "p_err": (float, 0.0), "L1": (float, 1.0), "gap": (float, 1.0),
    "sigma_l1": (float, 1.0), "N": (int, 100), "gamma": (int, 1),
    **{name: (float, f.default) for name, f in ChannelConfig.model_fields.items()},
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
        except ValueError as err:
            raise ConfigError(f"--param {name}: {err}") from None
    return axes


class _Typed(argparse.Action):
    """Stores a theory flag and records its name in ``typed``."""

    def __call__(self, parser, namespace, value, option_string=None):
        setattr(namespace, self.dest, value)
        namespace.typed = [*namespace.typed, self.dest]


def _cmd_theory(args, extras) -> int:
    """theory and sweep: evaluate --op at every point of the --param grid.

    theory has no axes, so its grid is one point, printed as JSON; sweep
    prints one CSV row per point, each axis value as typed and each element
    of a tuple-valued op in its own column (op_0, op_1, ...).
    """
    reads, op = THEORY_OPS[args.op]
    axes = _sweep_axes(args.param)
    for name in [*args.typed, *axes]:
        if name not in reads:
            raise ConfigError(f"--op {args.op} does not read --{name.replace('_', '-')}")
    rows = []
    for point in itertools.product(*axes.values()):
        for name, (_, value) in zip(axes, point):
            setattr(args, name, value)
        result = op(*(getattr(args, name) for name in reads))
        values = result if isinstance(result, tuple) else (result,)
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
    _emit(json.dumps([r.to_dict() for r in reports], indent=2) + "\n", args.output)
    failures = [r for r in reports if not r.passed]
    for r in failures:
        print(f"FAIL {r.name}: empirical={r.empirical} vs {r.theoretical} "
              f"({r.tolerance_rule})", file=sys.stderr)
    return 2 if failures else 0


def _cmd_partition_inspect(args, extras) -> int:
    cfg = _load_run_config(args, extras)
    train, _, shards = orchestrator.build_data(cfg)
    info = []
    for node, idx in enumerate(shards):
        labels, counts = np.unique(train.labels[idx], return_counts=True)
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
                        help="worker threads of verify's Monte Carlo kernel "
                             "(default: the CPUs this process may use); results "
                             "do not depend on it, and simulate does not use it yet")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a configured training simulation")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=_cmd_simulate)

    for command, summary in (("theory", "evaluate one closed-form expression"),
                             ("sweep", "evaluate a theory op over a parameter grid")):
        p = sub.add_parser(command, help=summary)
        p.add_argument("--op", required=True, choices=sorted(THEORY_OPS))
        for name, (kind, default) in THEORY_FLAGS.items():
            p.add_argument("--" + name.replace("_", "-"), type=kind, default=default,
                           action=_Typed)
        p.set_defaults(fn=_cmd_theory, param=[], output=None, typed=[])
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
    parser = build_parser()
    args, extras = parser.parse_known_args(argv)
    try:
        if args.threads < 1:
            raise UsageError(f"--threads must be >= 1, got {args.threads}")
        if extras and "config" not in args:  # only --config commands take overrides
            raise ConfigError(f"unrecognized arguments: {extras}")
        return args.fn(args, extras)
    except (ConfigError, UsageError, FormatError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (NumericError, FloatingPointError) as err:
        print(f"numeric error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
