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
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import channel as ch
from . import montecarlo, orchestrator, theory
from .config import ChannelConfig, Config, load_config, parse_config, resolved_json
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
    cfg = _load_run_config(args, extras)
    summary = orchestrator.run(cfg)
    out = Path(cfg.output.dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "resolved_config.json").write_text(resolved_json(cfg) + "\n")
    (out / "metrics.csv").write_text(orchestrator.metrics_csv(summary))
    (out / "summary.json").write_text(json.dumps({
        "config_hash": summary.config_hash,
        "seed": summary.seed,
        "rounds": len(summary.metrics),
        "final_accuracy": summary.final_accuracy,
        "wall_time": summary.wall_time,
        "metrics": [asdict(m) for m in summary.metrics],
    }, indent=2) + "\n")
    if cfg.output.dump_power:
        (out / "power.csv").write_text(
            orchestrator.csv_text("round,node_id,p,a", summary.power_rows))
    if cfg.output.dump_slots:
        (out / "slots.csv").write_text(orchestrator.csv_text(
            "round,coord,e_plus,e_minus,delta", summary.slot_rows))
    print(f"wrote {out / 'metrics.csv'} (final accuracy {summary.final_accuracy:.4f})")
    return 0


def _channel_params(a) -> ch.ChannelParams:
    """The channel flags, validated and converted to SI as the config's are."""
    section = {key: getattr(a, key) for key in ChannelConfig.model_fields}
    return load_config({"channel": section}).channel.to_params()


def _theory_inputs(a) -> theory.TheoryInputs:
    return theory.TheoryInputs(M=a.M, xi_snr=a.xi, L1=a.L1, gap=a.gap,
                               sigma_l1=a.sigma_l1, N=a.N, gamma=a.gamma)


# Theory operation registry: name -> fn of the parsed flags.
THEORY_OPS = {
    "theta": lambda a: theory.theta(a.p_avg, a.lam),
    "energy_means": lambda a: theory.energy_means(a.m_plus, a.m_minus, a.theta, a.sigma_n2),
    "error_bound": lambda a: theory.error_bound(a.M, a.xi, a.q),
    "q_bound": lambda a: theory.q_bound(a.g, a.alpha, a.d_b),
    "error_bound_full": lambda a: theory.error_bound_full(a.M, a.xi, a.g, a.alpha, a.d_b),
    "corollary1_check": lambda a: theory.corollary1_check(a.m_plus, a.M, a.p_err),
    "convergence_bound": lambda a: theory.convergence_bound(_theory_inputs(a)),
    "lambda_eff": lambda a: ch.lambda_eff(_channel_params(a)),
    "lambda_oracle": lambda a: ch.lambda_oracle(_channel_params(a)),
}


# theory/sweep flags: name -> (type, default).  --d-b sets d_b, and a sweep
# axis --param d_b=1,4 converts each value with the flag's type.
THEORY_FLAGS = {
    "M": (int, 10), "xi": (float, 1.0), "q": (float, 0.2), "g": (float, 1.0),
    "alpha": (float, 1.0), "d_b": (int, 1), "m_plus": (int, 0), "m_minus": (int, 0),
    "theta": (float, 1.0), "sigma_n2": (float, 0.1), "p_avg": (float, 1.0),
    "lam": (float, 1.0), "p_err": (float, 0.0), "L1": (float, 1.0), "gap": (float, 1.0),
    "sigma_l1": (float, 1.0), "N": (int, 100), "gamma": (int, 1),
    "d_min_km": (float, 500.0), "d_max_km": (float, 2000.0), "lambda_opt_nm": (float, 1550.0),
    "a0": (float, 0.9), "xi_p": (float, 1.5), "c_fspl": (float, None),
}


def _sweep_axis(spec: str) -> tuple[str, list[tuple[str, object]]]:
    """``name=v1,v2,...`` -> (name, [(value as typed, value as the flag's type)])."""
    name, sep, values = spec.partition("=")
    if not sep:
        raise ConfigError(f"--param expects name=v1,v2,... got {spec!r}")
    if name not in THEORY_FLAGS:
        raise ConfigError(f"--param {name}: not a theory flag; "
                          f"choose from {', '.join(THEORY_FLAGS)}")
    kind = THEORY_FLAGS[name][0]
    try:
        return name, [(text, kind(text)) for text in values.split(",")]
    except ValueError as err:
        raise ConfigError(f"--param {name}: {err}") from None


def _cmd_theory(args, extras) -> int:
    """theory and sweep: evaluate --op at every point of the --param grid.

    theory has no axes, so its grid is one point, printed as JSON; sweep
    prints one CSV row per point, each axis value as typed.
    """
    axes = dict(_sweep_axis(spec) for spec in args.param)
    lines = [",".join([*axes, args.op])]
    for point in itertools.product(*axes.values()):
        for name, (_, value) in zip(axes, point):
            setattr(args, name, value)
        result = THEORY_OPS[args.op](args)
        lines.append(",".join([text for text, _ in point] + [f"{result}"]))
    if args.command == "theory":
        print(json.dumps({args.op: result}))
        return 0
    _emit("\n".join(lines) + "\n", args.output)
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
            p.add_argument("--" + name.replace("_", "-"), type=kind, default=default)
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
