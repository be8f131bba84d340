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


def _parse_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


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
        overrides[flag[2:]] = _parse_value(extras[i + 1])
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
        lines = ["round,node_id,p,a"]
        lines += [f"{r},{n},{p:.17g},{a:.17g}" for r, n, p, a in summary.power_rows]
        (out / "power.csv").write_text("\n".join(lines) + "\n")
    if cfg.output.dump_slots:
        lines = ["round,coord,e_plus,e_minus,delta"]
        lines += [f"{r},{c},{ep:.17g},{em:.17g},{d:.17g}"
                  for r, c, ep, em, d in summary.slot_rows]
        (out / "slots.csv").write_text("\n".join(lines) + "\n")
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


def _add_theory_flags(p: argparse.ArgumentParser):
    p.add_argument("--op", required=True, choices=sorted(THEORY_OPS))
    p.add_argument("--M", type=int, default=10)
    p.add_argument("--xi", type=float, default=1.0)
    p.add_argument("--q", type=float, default=0.2)
    p.add_argument("--g", type=float, default=1.0)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--d-b", dest="d_b", type=int, default=1)
    p.add_argument("--m-plus", dest="m_plus", type=int, default=0)
    p.add_argument("--m-minus", dest="m_minus", type=int, default=0)
    p.add_argument("--theta", type=float, default=1.0)
    p.add_argument("--sigma-n2", dest="sigma_n2", type=float, default=0.1)
    p.add_argument("--p-avg", dest="p_avg", type=float, default=1.0)
    p.add_argument("--lam", type=float, default=1.0)
    p.add_argument("--p-err", dest="p_err", type=float, default=0.0)
    p.add_argument("--L1", type=float, default=1.0)
    p.add_argument("--gap", type=float, default=1.0)
    p.add_argument("--sigma-l1", dest="sigma_l1", type=float, default=1.0)
    p.add_argument("--N", type=int, default=100)
    p.add_argument("--gamma", type=int, default=1)
    p.add_argument("--d-min-km", dest="d_min_km", type=float, default=500.0)
    p.add_argument("--d-max-km", dest="d_max_km", type=float, default=2000.0)
    p.add_argument("--lambda-opt-nm", dest="lambda_opt_nm", type=float, default=1550.0)
    p.add_argument("--a0", type=float, default=0.9)
    p.add_argument("--xi-p", dest="xi_p", type=float, default=1.5)
    p.add_argument("--c-fspl", dest="c_fspl", type=float, default=None)


def _cmd_theory(args, extras) -> int:
    if extras:
        raise ConfigError(f"unrecognized arguments: {extras}")
    result = THEORY_OPS[args.op](args)
    print(json.dumps({args.op: result}))
    return 0


def _cmd_sweep(args, extras) -> int:
    if extras:
        raise ConfigError(f"unrecognized arguments: {extras}")
    grid: dict[str, list] = {}
    for spec in args.param:
        if "=" not in spec:
            raise ConfigError(f"--param expects name=v1,v2,... got {spec!r}")
        name, values = spec.split("=", 1)
        grid[name] = [_parse_value(v) for v in values.split(",")]
    names = list(grid)
    lines = [",".join(names + [args.op])]
    for combo in itertools.product(*grid.values()):
        for name, value in zip(names, combo):
            setattr(args, name, value)
        result = THEORY_OPS[args.op](args)
        lines.append(",".join(str(v) for v in combo) + f",{result}")
    text = "\n".join(lines) + "\n"
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify(args, extras) -> int:
    if extras:
        raise ConfigError(f"unrecognized arguments: {extras}")
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    reports = montecarlo.run_default_suite(samples=args.samples, seed=args.seed,
                                           threads=args.threads)
    payload = json.dumps([r.to_dict() for r in reports], indent=2) + "\n"
    if args.output:
        Path(args.output).write_text(payload)
    else:
        sys.stdout.write(payload)
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
    parser.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                        help="worker threads of verify's Monte Carlo kernel "
                             "(default: the CPU count); results do not depend on "
                             "it, and simulate does not use it yet")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a configured training simulation")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("theory", help="evaluate one closed-form expression")
    _add_theory_flags(p)
    p.set_defaults(fn=_cmd_theory)

    p = sub.add_parser("sweep", help="evaluate a theory op over a parameter grid")
    _add_theory_flags(p)
    p.add_argument("--param", action="append", default=[],
                   help="grid axis as name=v1,v2,... (repeatable)")
    p.add_argument("--output", default=None)
    p.set_defaults(fn=_cmd_sweep)

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
        return args.fn(args, extras)
    except (ConfigError, UsageError, FormatError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (NumericError, FloatingPointError) as err:
        print(f"numeric error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
