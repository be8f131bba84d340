"""End-to-end federated rounds under a chosen aggregation scheme.

Every scheme runs one round function, ``_round``, on one ``RunState``:
select active nodes, compute local mini-batch gradients, sign-quantize,
run the scheme's power hook (once a vote has been broadcast), draw the
channel, aggregate, step the global model, evaluate.  Schemes differ only
in their entry of ``_SCHEMES``: how they aggregate, whether they draw a
channel, and how they set power.  The downlink is error-free, so a single
global model is stored.
"""

import json
import os
import sys
import tempfile
import time
from contextlib import ExitStack
from dataclasses import asdict, astuple, dataclass, field, fields
from itertools import chain, repeat
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import channel as ch
from . import learner, phy, power, theory
from .config import Config, config_hash, resolved_json
from .errors import ConfigError, FormatError, NumericError
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
class RunState:
    """What a run carries from one round to the next; the power hooks write ``p`` and ``a``."""

    model: learner.Model
    p: np.ndarray  # (M,) transmit powers
    a: np.ndarray  # (M,) last-known consistency scores
    last_mv: np.ndarray | None = None  # the last broadcast vote; None before round 0's
    metrics: list[RoundMetrics] = field(default_factory=list)

    @property
    def final_accuracy(self) -> float:
        return self.metrics[-1].test_accuracy if self.metrics else 0.0


def select_active(M: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform sample of m distinct node ids."""
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
    m, q = gradients.shape
    weights = np.asarray(powers, dtype=float) * np.asarray(intensities, dtype=float)
    agg = (weights[:, None] * gradients).sum(axis=0) / m
    if sigma_n2 > 0:
        agg = agg + rng.normal(0.0, np.sqrt(sigma_n2), size=q)
    return agg


def build_data(cfg: Config,
               threads: int = 1) -> tuple[learner.Dataset, learner.Dataset, list[np.ndarray]]:
    """(train, test, per-node training shards), deterministic in run.seed at any ``threads``."""
    ds = cfg.learner.dataset
    if ds.type == "synthetic":
        full = learner.make_synthetic(ds.num_classes, ds.n + ds.n_test, ds.d, ds.separation,
                                      seed=_data_seed(cfg), threads=threads)
        train = learner.Dataset(full.features[: ds.n], full.labels[: ds.n], ds.num_classes)
        test = learner.Dataset(full.features[ds.n :], full.labels[ds.n :], ds.num_classes)
    else:
        train = learner.load_mnist_idx(ds.train_images, ds.train_labels)
        test = learner.load_mnist_idx(ds.test_images, ds.test_labels)
        if test.d != train.d:
            raise FormatError(f"learner.dataset.test_images: {test.d} pixels an image, "
                              f"where the training images have {train.d}")
    return train, test, _shards(cfg, train.labels)


def train_shards(cfg: Config) -> tuple[np.ndarray, list[np.ndarray]]:
    """(training labels, per-node shards) as ``build_data`` makes them, drawing no
    synthetic feature."""
    ds = cfg.learner.dataset
    if ds.type == "synthetic":
        labels = learner.synthetic_labels(ds.num_classes, ds.n + ds.n_test, ds.d,
                                          seed=_data_seed(cfg))[: ds.n]
    else:
        labels = learner.load_mnist_idx(ds.train_images, ds.train_labels, pixels=False).labels
    return labels, _shards(cfg, labels)


def _data_seed(cfg: Config) -> int:
    return int(derive(cfg.run.seed, TAG_DATA).integers(2**31))


def _shards(cfg: Config, labels: np.ndarray) -> list[np.ndarray]:
    part, M = cfg.learner.partition, cfg.run.M
    shards = learner.partition(
        labels, M, part.mode,
        seed=int(derive(cfg.run.seed, TAG_DATA, 1).integers(2**31)),
        labels_per_node=part.labels_per_node,
    )
    empty = sum(len(s) == 0 for s in shards)
    if empty:
        raise ConfigError(
            f"run.M / learner.partition: {empty} of run.M = {M} shards are empty "
            f"when {len(labels)} training samples are split with mode {part.mode!r}"
        )
    return shards


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
    # A NaN aggregate votes -1 here; _round's guard on the stepped model reports it.
    agg = aggregate_fedavg_air(
        up.grads, up.powers, up.intensities, up.sigma_n2, up.noise_rng)
    return agg, phy.detect_mv(agg, 0.0), None


# Power hooks (state, cohort signs, active ids, power config) write state.a and state.p.
def _score(state: RunState, signs, active, params) -> None:
    state.a[active] = power.consistency_score(signs, state.last_mv)


def _score_and_step(state: RunState, signs, active, params) -> None:
    _score(state, signs, active, params)
    state.p = power.update_powers(state.p, state.a, params, active)


class _Scheme(NamedTuple):
    aggregate: Callable
    over_air: bool = True  # draw block fading and receiver noise
    power: Callable | None = None  # the power hook; None keeps every power at p_avg


# One entry per name in config.SCHEMES.  Fixed power scores but never steps (a step at
# rho = 0 keeps p_avg bit for bit), so it reads no power.rho, p_min, p_max or abar_scope.
_SCHEMES = {
    "optivote": _Scheme(_vote_over_air, power=_score_and_step),
    "optivote_fixed_power": _Scheme(_vote_over_air, power=_score),
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
def _round(cfg: Config, data, eta: float, state: RunState, n: int):
    """Step ``state`` through round ``n``; return (its metrics, slot energies or None)."""
    rc, params = cfg.run, cfg.channel
    scheme = _SCHEMES[rc.scheme]
    train, test, shards = data
    active = select_active(rc.M, rc.m, derive(rc.seed, TAG_SELECT, n))

    grads = np.stack([
        learner.local_gradient(
            state.model, train, shards[node], rc.d_b,
            derive(rc.seed, TAG_GRADIENT, n, node),
            local_steps=cfg.learner.local_steps, eta=eta,
        )
        for node in active
    ])
    _require_finite(n, "a local gradient", grads)
    signs = learner.sign_quantize(grads)
    ideal = phy.ideal_majority(signs)

    if scheme.power is not None and state.last_mv is not None:
        scheme.power(state, signs, active, cfg.power)
    intensities = noise_rng = None
    if scheme.over_air:
        intensities = np.array([
            ch.sample_channel(params, derive(rc.seed, TAG_CHANNEL, n, node))
            for node in active
        ])
        noise_rng = derive(rc.seed, TAG_NOISE, n)

    direction, state.last_mv, slots = scheme.aggregate(_Uplink(
        grads, signs, ideal, state.p[active], intensities, params.sigma_n2, noise_rng))
    state.model = learner.apply_update(state.model, direction, eta)
    _require_finite(n, "the model after the step", state.model.w)

    train_loss, test_acc = learner.evaluate(state.model, train, test)
    _require_finite(n, "the training loss", train_loss)
    return RoundMetrics(
        n, train_loss, test_acc, mv_error_rate=float(np.mean(state.last_mv != ideal)),
        mean_power=float(state.p.mean()), mean_consistency=float(state.a.mean()),
    ), slots


def run(cfg: Config, threads: int = 1) -> RunState:
    """Execute one configured training run; deterministic in (config, seed),
    whatever the ``threads`` that build a synthetic dataset.

    Writes every file of the run into ``output.dir``.  They are staged in a
    temporary directory beside it, each dump row written as its round
    finishes, and moved in only when the run has finished, so a run that
    raises leaves neither directory behind.

    Raises ``NumericError`` naming the round when a local gradient, the
    stepped model or the training loss is not finite.  Warns once on
    stderr when an over-the-air scheme runs below ``_LOW_SNR``.
    """
    t0 = time.monotonic()
    rc, params = cfg.run, cfg.channel
    data = build_data(cfg, threads)  # the last rejection before round 0, so warn after it
    if _SCHEMES[rc.scheme].over_air and params.sigma_n2 > 0:
        snr = theory.theta(cfg.power.p_avg, ch.lambda_eff(params)) / params.sigma_n2
        if snr < _LOW_SNR:
            print(f"warning: effective SNR p_avg * lambda_eff / sigma_n2 = {snr:.3g} "
                  f"is below {_LOW_SNR:g}, so the over-the-air aggregate is mostly "
                  "receiver noise (check channel.c_fspl and channel.sigma_n2)",
                  file=sys.stderr)

    state = RunState(learner.Model.init(
        cfg.learner.model.arch, data[0].d, data[0].num_classes, hidden=cfg.learner.model.hidden,
        seed=int(derive(rc.seed, TAG_DATA, 2).integers(2**31)),
    ), p=np.full(rc.M, cfg.power.p_avg), a=np.full(rc.M, 0.5))  # scores start neutral
    eta = theory.theorem1_eta(rc.L1_estimate, rc.d_b) if rc.L1_estimate is not None else rc.eta

    out = Path(cfg.output.dir)
    out.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out.parent, prefix=".optivote-") as tmp, \
            ExitStack() as files:
        staging = Path(tmp)
        write_metrics = _csv(files, staging / "metrics.csv", METRICS_HEADER)
        write_power = _csv(files, staging / "power.csv", "round,node_id,p,a",
                           cfg.output.dump_power)
        write_slots = _csv(files, staging / "slots.csv", "round,coord,e_plus,e_minus",
                           cfg.output.dump_slots)

        for n in range(rc.rounds):
            row, slots = _round(cfg, data, eta, state, n)
            state.metrics.append(row)
            write_metrics([astuple(row)])
            write_power(zip(repeat(n), range(rc.M), state.p, state.a))
            if slots is not None:
                write_slots(zip(repeat(n), range(state.model.q), *slots))

        files.close()

        (staging / "resolved_config.json").write_text(resolved_json(cfg) + "\n")
        (staging / "summary.json").write_text(json.dumps({
            "config_hash": config_hash(cfg),
            "seed": rc.seed,
            "rounds": len(state.metrics),
            "final_accuracy": state.final_accuracy,
            "wall_time": time.monotonic() - t0,
            "metrics": [asdict(m) for m in state.metrics],
        }, indent=2) + "\n")
        out.mkdir(exist_ok=True)
        for name in ("power.csv", "slots.csv"):  # an earlier run's dumps
            (out / name).unlink(missing_ok=True)
        for path in staging.iterdir():
            os.replace(path, out / path.name)
    return state


METRICS_HEADER = ",".join(f.name for f in fields(RoundMetrics))


def _csv(files: ExitStack, path: Path, header: str, on: bool = True) -> Callable:
    """Block appender for a new CSV at ``path``, closed with ``files`` (off: no file, rows unread).
    One ``%`` prints a call's rows, each value as %.17g (an int as itself), so floats round-trip."""
    if not on:
        return lambda rows: None
    f = files.enter_context(open(path, "w"))
    f.write(header + "\n")
    row = ",".join(["%.17g"] * (header.count(",") + 1)) + "\n"

    def write(rows):
        values = tuple(chain.from_iterable(rows))
        f.write(row * (len(values) // row.count("%")) % values)
    return write
