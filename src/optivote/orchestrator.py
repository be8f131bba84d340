"""End-to-end federated rounds under a chosen aggregation scheme.

Every scheme runs one round pipeline: select active nodes, compute local
mini-batch gradients, sign-quantize, (for the adaptive schemes) refresh
consistency scores against the previous broadcast vote and update
powers, draw the channel, aggregate, step the global model, evaluate.
Schemes differ only in their entry of ``_SCHEMES``: whether they draw a
channel, whether they adapt power, and how they aggregate.  The downlink
is error-free, so a single global model is stored.
"""

import sys
import time
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

from . import channel as ch
from . import learner, phy, power, theory
from .config import Config, config_hash
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
    config_hash: str = ""
    seed: int = 0
    metrics: list[RoundMetrics] = field(default_factory=list)
    final_accuracy: float = 0.0
    wall_time: float = 0.0
    power_rows: list[tuple] = field(default_factory=list)  # (round, node, p, a)
    slot_rows: list[tuple] = field(default_factory=list)  # (round, coord, e+, e-, delta)
    final_w: np.ndarray | None = None


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
        train = learner.Dataset(full.features[: ds.n], full.labels[: ds.n],
                                full.num_classes, full.name)
        test = learner.Dataset(full.features[ds.n :], full.labels[ds.n :],
                               full.num_classes, full.name)
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


# Aggregators: (model, eta, uplink) -> (stepped model, vote or None, slot
# energies or None).  They look the layer functions up at call time, so a
# wrapper rebound onto a module attribute (perfbench's tracer) sees the call.
def _vote_over_air(model, eta, up: _Uplink):
    e_plus, e_minus = phy.superpose_frame(
        up.signs, up.powers, up.intensities, up.sigma_n2, up.noise_rng)
    mv = phy.detect_mv(e_plus, e_minus)
    return learner.apply_mv_update(model, mv, eta), mv, (e_plus, e_minus)


def _vote_error_free(model, eta, up: _Uplink):
    return learner.apply_mv_update(model, up.ideal, eta), up.ideal, None


def _analog_over_air(model, eta, up: _Uplink):
    agg = aggregate_fedavg_air(
        up.grads, up.powers, up.intensities, up.sigma_n2, up.noise_rng)
    return learner.apply_gradient_update(model, agg, eta), None, None


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

    Raises ``NumericError`` naming the round when a local gradient, the
    stepped model or the training loss is not finite.  Warns once on
    stderr when an over-the-air scheme runs below ``_LOW_SNR``.
    """
    t0 = time.monotonic()
    rc = cfg.run
    seed = rc.seed
    scheme = _SCHEMES[rc.scheme]

    params = cfg.channel.to_params()
    pparams = cfg.power.to_params()
    if scheme.rho is not None:
        pparams = replace(pparams, rho=scheme.rho)
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
    last_mv: np.ndarray | None = None
    summary = RunSummary(config_hash=config_hash(cfg), seed=seed)

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
        signs = np.stack([learner.sign_quantize(g) for g in grads])
        ideal = phy.ideal_majority(signs)

        if scheme.adapts_power and last_mv is not None:
            for row, node in enumerate(active):
                pstate.a[node] = power.consistency_score(signs[row], last_mv)
            pstate = power.update_powers(pstate, pparams, active=active)
        intensities = noise_rng = None
        if scheme.over_air:
            intensities = np.array([
                ch.sample_channel(params, derive(seed, TAG_CHANNEL, n, node)).intensity
                for node in active
            ])
            noise_rng = derive(seed, TAG_NOISE, n)

        model, mv, slots = scheme.aggregate(model, eta, _Uplink(
            grads, signs, ideal, pstate.p[active], intensities, params.sigma_n2,
            noise_rng,
        ))
        _require_finite(n, "the model after the step", model.w)
        mv_error_rate = 0.0
        if mv is not None:
            mv_error_rate = float(np.mean(mv != ideal))
            last_mv = mv
        if slots is not None and cfg.output.dump_slots:
            e_plus, e_minus = slots
            for i in range(model.q):
                summary.slot_rows.append(
                    (n, i, e_plus[i], e_minus[i], e_plus[i] - e_minus[i])
                )

        train_loss, _ = learner.evaluate(model, train)
        _require_finite(n, "the training loss", train_loss)
        _, test_acc = learner.evaluate(model, test)
        summary.metrics.append(RoundMetrics(
            round=n,
            train_loss=train_loss,
            test_accuracy=test_acc,
            mv_error_rate=mv_error_rate,
            mean_power=float(pstate.p.mean()),
            mean_consistency=float(pstate.a.mean()),
        ))
        if cfg.output.dump_power:
            for node in range(rc.M):
                summary.power_rows.append((n, node, pstate.p[node], pstate.a[node]))

    if summary.metrics:
        summary.final_accuracy = summary.metrics[-1].test_accuracy
    summary.final_w = model.w.copy()
    summary.wall_time = time.monotonic() - t0
    return summary


METRICS_HEADER = "round,train_loss,test_accuracy,mv_error_rate,mean_power,mean_consistency"


def metrics_csv(summary: RunSummary) -> str:
    """Plot-ready CSV; formatting is fixed so replays are byte-identical."""
    lines = [METRICS_HEADER]
    for r in summary.metrics:
        lines.append(
            f"{r.round},{r.train_loss:.17g},{r.test_accuracy:.17g},"
            f"{r.mv_error_rate:.17g},{r.mean_power:.17g},{r.mean_consistency:.17g}"
        )
    return "\n".join(lines) + "\n"
