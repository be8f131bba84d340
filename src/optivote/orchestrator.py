"""End-to-end federated rounds under a chosen aggregation scheme.

Every scheme runs one round pipeline: select active nodes, compute local
mini-batch gradients, sign-quantize, (for the adaptive schemes) refresh
consistency scores against the previous broadcast vote and update
powers, draw the channel, aggregate, step the global model, evaluate.
Schemes differ only in their entry of ``_SCHEMES``: whether they draw a
channel, whether they adapt power, and how they aggregate.  The downlink
is error-free, so a single global model is stored.
"""

import json
import os
import sys
import tempfile
import time
from contextlib import ExitStack
from dataclasses import asdict, astuple, dataclass, fields
from itertools import repeat
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import channel as ch
from . import learner, phy, power, theory
from .config import Config, config_hash, resolved_json
from .errors import ConfigError, NumericError, UsageError
from .rng import TAG_CHANNEL, TAG_DATA, TAG_GRADIENT, TAG_NOISE, TAG_SELECT, derive


@dataclass(frozen=True)
class RoundMetrics:
    round: int
    train_loss: float
    test_accuracy: float
    mv_error_rate: float
    mean_power: float
    mean_consistency: float


@dataclass
class RunSummary:
    metrics: list[RoundMetrics]
    final_accuracy: float
    final_w: np.ndarray


def select_active(M: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform sample of m distinct node ids."""
    if not (1 <= m <= M):
        raise UsageError("require 1 <= m <= M")
    return np.sort(rng.choice(M, size=m, replace=False))


def aggregate_fedavg_air(
    gradients: np.ndarray,
    powers: np.ndarray,
    intensities: np.ndarray,
    sigma_n2: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Uncompensated analog superposition: (1/m) sum P_m I_m g_m + noise.

    No CSI inversion is applied, so heterogeneous fading biases the mean.
    """
    gradients = np.asarray(gradients, dtype=float)
    if gradients.ndim != 2 or len(gradients) < 1:
        raise UsageError("gradients must be a nonempty (m, q) matrix")
    m, q = gradients.shape
    weights = np.asarray(powers, dtype=float) * np.asarray(intensities, dtype=float)
    agg = (weights[:, None] * gradients).sum(axis=0) / m
    if sigma_n2 > 0:
        agg = agg + rng.normal(0.0, np.sqrt(sigma_n2), size=q)
    return agg


def build_data(cfg: Config) -> tuple[learner.Dataset, learner.Dataset, list[np.ndarray]]:
    """(train, test, per-node training shards), deterministic in run.seed."""
    ds, seed, M = cfg.learner.dataset, cfg.run.seed, cfg.run.M
    if ds.type == "synthetic":
        full = learner.make_synthetic(
            ds.num_classes, ds.n + ds.n_test, ds.d, ds.separation,
            seed=int(derive(seed, TAG_DATA).integers(2**31)),
        )
        train = learner.Dataset(full.features[: ds.n], full.labels[: ds.n], ds.num_classes)
        test = learner.Dataset(full.features[ds.n :], full.labels[ds.n :], ds.num_classes)
    else:
        train = learner.load_mnist_idx(ds.train_images, ds.train_labels)
        test = learner.load_mnist_idx(ds.test_images, ds.test_labels)
    part = cfg.learner.partition
    shards = learner.partition(
        train, M, part.mode,
        seed=int(derive(seed, TAG_DATA, 1).integers(2**31)),
        labels_per_node=part.labels_per_node,
    )
    empty = sum(len(s) == 0 for s in shards)
    if empty:
        raise ConfigError(
            f"run.M / learner.partition: {empty} of run.M = {M} shards are empty "
            f"when {train.n} training samples are split with mode {part.mode!r}"
        )
    return train, test, shards


class _Uplink(NamedTuple):
    """What the active cohort sends in one round, and the link it crosses."""

    grads: np.ndarray  # (m, q) local gradients
    signs: np.ndarray  # (m, q) their one-bit quantization
    ideal: np.ndarray  # (q,) error-free majority of ``signs``
    powers: np.ndarray  # (m,) transmit powers
    intensities: np.ndarray | None  # (m,) block-fading gains; None off the air
    sigma_n2: float
    noise_rng: np.random.Generator | None


# Aggregators: uplink -> (descent direction, vote, slot energies or None).
# They look the layer functions up at call time, so a wrapper rebound onto
# a module attribute (perfbench's tracer) sees the call.
def _vote_over_air(up: _Uplink):
    e_plus, e_minus = phy.superpose_frame(
        up.signs, up.powers, up.intensities, up.sigma_n2, up.noise_rng)
    mv = phy.detect_mv(e_plus, e_minus)
    return mv, mv, (e_plus, e_minus)


def _vote_error_free(up: _Uplink):
    return up.ideal, up.ideal, None


def _analog_over_air(up: _Uplink):
    # sign(agg) with the detector's tie rule; unlike sign_quantize, a NaN passes to run's guard
    agg = aggregate_fedavg_air(
        up.grads, up.powers, up.intensities, up.sigma_n2, up.noise_rng)
    return agg, np.where(agg >= 0.0, 1, -1).astype(np.int8), None


class _Scheme(NamedTuple):
    aggregate: Callable
    over_air: bool = True  # draw block fading and receiver noise
    adapts_power: bool = False  # score signs against the last vote, step powers
    rho: float | None = None  # overrides power.rho when set


# One entry per name in config.SCHEMES.  The fixed-power variant is the
# adaptive scheme with the step size pinned to zero, so the two share one
# code path bit-for-bit.
_SCHEMES = {
    "optivote": _Scheme(_vote_over_air, adapts_power=True),
    "optivote_fixed_power": _Scheme(_vote_over_air, adapts_power=True, rho=0.0),
    "ideal_mv": _Scheme(_vote_error_free, over_air=False),
    "fedavg_air": _Scheme(_analog_over_air),
}


# Below this effective SNR p_avg * lambda_eff / sigma_n2 an over-the-air
# aggregate is mostly receiver noise (a vote-error rate near 1/2).
_LOW_SNR = 1e-3


def _require_finite(n: int, what: str, values) -> None:
    if not np.isfinite(values).all():
        raise NumericError(f"round {n}: {what} is not finite")


# Overflow and invalid-value warnings are silenced: every non-finite value
# they would announce reaches a _require_finite check, which names the round.
@np.errstate(over="ignore", invalid="ignore")
def run(cfg: Config) -> RunSummary:
    """Execute one configured training run; deterministic in (config, seed).

    Writes every file of the run into ``output.dir``.  They are staged in a
    temporary directory beside it, each dump row written as its round
    finishes, and moved in only when the run has finished, so a run that
    raises leaves neither directory behind.

    Raises ``NumericError`` naming the round when a local gradient, the
    stepped model or the training loss is not finite.  Warns once on
    stderr when an over-the-air scheme runs below ``_LOW_SNR``.
    """
    t0 = time.monotonic()
    rc = cfg.run
    seed = rc.seed
    scheme = _SCHEMES[rc.scheme]

    params = cfg.channel
    pparams = cfg.power
    if scheme.rho is not None:
        pparams = pparams.model_copy(update={"rho": scheme.rho})
    if scheme.over_air and params.sigma_n2 > 0:
        snr = theory.theta(pparams.p_avg, ch.lambda_eff(params)) / params.sigma_n2
        if snr < _LOW_SNR:
            print(f"warning: effective SNR p_avg * lambda_eff / sigma_n2 = {snr:.3g} "
                  f"is below {_LOW_SNR:g}, so the over-the-air aggregate is mostly "
                  "receiver noise (check channel.c_fspl and channel.sigma_n2)",
                  file=sys.stderr)

    train, test, shards = build_data(cfg)
    model = learner.Model.init(
        cfg.learner.model.arch, train.d, train.num_classes,
        hidden=cfg.learner.model.hidden,
        seed=int(derive(seed, TAG_DATA, 2).integers(2**31)),
    )

    eta = rc.eta
    if rc.lr == "theorem1":
        eta = theory.theorem1_eta(rc.L1_estimate, rc.d_b)

    pstate = power.PowerState.initial(rc.M, pparams)
    last_mv: np.ndarray | None = None  # the last broadcast vote
    metrics: list[RoundMetrics] = []
    out = Path(cfg.output.dir)
    out.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out.parent, prefix=".optivote-") as tmp, \
            ExitStack() as files:
        staging = Path(tmp)
        write_metrics = _csv(files, staging / "metrics.csv", METRICS_HEADER)
        write_power = _csv(files, staging / "power.csv", "round,node_id,p,a",
                           cfg.output.dump_power)
        write_slots = _csv(files, staging / "slots.csv", "round,coord,e_plus,e_minus,delta",
                           cfg.output.dump_slots)

        for n in range(rc.rounds):
            active = select_active(rc.M, rc.m, derive(seed, TAG_SELECT, n))

            grads = np.stack([
                learner.local_gradient(
                    model, train, shards[node], rc.d_b,
                    derive(seed, TAG_GRADIENT, n, node),
                    local_steps=cfg.learner.local_steps, eta=eta,
                )
                for node in active
            ])
            _require_finite(n, "a local gradient", grads)
            signs = learner.sign_quantize(grads)
            ideal = phy.ideal_majority(signs)

            if scheme.adapts_power and last_mv is not None:
                pstate.a[active] = power.consistency_score(signs, last_mv)
                pstate = power.update_powers(pstate, pparams, active=active)
            intensities = noise_rng = None
            if scheme.over_air:
                intensities = np.array([
                    ch.sample_channel(params, derive(seed, TAG_CHANNEL, n, node))
                    for node in active
                ])
                noise_rng = derive(seed, TAG_NOISE, n)

            direction, last_mv, slots = scheme.aggregate(_Uplink(
                grads, signs, ideal, pstate.p[active], intensities, params.sigma_n2,
                noise_rng,
            ))
            model = learner.apply_update(model, direction, eta)
            _require_finite(n, "the model after the step", model.w)
            if slots is not None:
                e_plus, e_minus = slots
                write_slots(zip(repeat(n), range(model.q), e_plus, e_minus, e_plus - e_minus))

            train_loss, _ = learner.evaluate(model, train)
            _require_finite(n, "the training loss", train_loss)
            _, test_acc = learner.evaluate(model, test)
            metrics.append(RoundMetrics(
                round=n,
                train_loss=train_loss,
                test_accuracy=test_acc,
                mv_error_rate=float(np.mean(last_mv != ideal)),
                mean_power=float(pstate.p.mean()),
                mean_consistency=float(pstate.a.mean()),
            ))
            write_metrics([astuple(metrics[-1])])
            write_power(zip(repeat(n), range(rc.M), pstate.p, pstate.a))

        files.close()

        summary = RunSummary(metrics, metrics[-1].test_accuracy if metrics else 0.0,
                             model.w.copy())
        (staging / "resolved_config.json").write_text(resolved_json(cfg) + "\n")
        (staging / "summary.json").write_text(json.dumps({
            "config_hash": config_hash(cfg),
            "seed": seed,
            "rounds": len(summary.metrics),
            "final_accuracy": summary.final_accuracy,
            "wall_time": time.monotonic() - t0,
            "metrics": [asdict(m) for m in summary.metrics],
        }, indent=2) + "\n")
        out.mkdir(exist_ok=True)
        for name in ("power.csv", "slots.csv"):  # an earlier run's dumps
            (out / name).unlink(missing_ok=True)
        for path in staging.iterdir():
            os.replace(path, out / path.name)
    return summary


METRICS_HEADER = ",".join(f.name for f in fields(RoundMetrics))


def _csv(files: ExitStack, path: Path, header: str, on: bool = True) -> Callable:
    """Row appender for a new CSV at ``path``, closed with ``files``, or a
    no-op that creates no file when off.  Every value prints as %.17g (an
    int as itself), so floats round-trip and replays are byte-identical."""
    if not on:
        return lambda rows: None
    f = files.enter_context(open(path, "w"))
    f.write(header + "\n")
    row = ",".join(["%.17g"] * (header.count(",") + 1)) + "\n"
    return lambda rows: f.writelines(row % values for values in rows)
