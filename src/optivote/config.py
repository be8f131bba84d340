"""JSON configuration schema, validation, and resolved-config emission.

A run is fully described by one JSON file; unknown keys are rejected and
every applied default survives a round trip through the resolved config
written next to the outputs.  Every range check of a run lives here, once,
including the rule that a ``theorem1`` step size is positive, and a bad
value fails with its dotted key (``power.rho: Input should be greater than
or equal to 0``).  The library functions a run calls take these validated
values and do not check them again.  ``ChannelConfig`` and ``PowerConfig``
are also the parameter types of the channel and power layers: the channel
section takes kilometers, and the samplers read its distances in meters.
"""

import hashlib
import json
import math
import operator
import os
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Literal, Optional, Union, get_args, get_origin

from . import channel as ch
from . import theory
from .errors import ConfigError

SCHEMES = ("optivote", "optivote_fixed_power", "ideal_mv", "fedavg_air")

_BOUNDS = {"gt": ("greater than", operator.gt), "ge": ("greater than or equal to", operator.ge),
           "le": ("less than or equal to", operator.le)}
_KINDS = {bool: "boolean", int: "integer", float: "number", str: "string"}


def _field(default, **bounds):
    """A field with its range as ``gt``/``ge``/``le`` bounds, checked when set."""
    return field(default=default, metadata=bounds)


def _checked(f, value, key: str):
    """``value`` as field ``f`` holds it: an int widened for a float field,
    a dict built into its section; ``ConfigError`` naming ``key`` if it does
    not fit the field's type or range."""
    kind = f.type
    if get_origin(kind) is Union:  # Optional[kind]
        if value is None:
            return None
        kind = get_args(kind)[0]
    if isinstance(kind, type) and issubclass(kind, _Section):
        return value if isinstance(value, kind) else _build(kind, value)
    if get_origin(kind) is Literal:
        if value not in get_args(kind):
            *rest, last = map(repr, get_args(kind))
            raise ConfigError(f"{key}: Input should be {', '.join(rest)} or {last}")
        return value
    if kind in (int, float) and isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{key}: Input should be a finite number")
    if kind is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            value = float(value)
        except OverflowError:  # an int past the float range
            raise ConfigError(f"{key}: Input should be a finite number") from None
    if type(value) is not kind:
        raise ConfigError(f"{key}: Input should be a valid {_KINDS[kind]}")
    for name, bound in f.metadata.items():
        words, holds = _BOUNDS[name]
        if not holds(value, bound):
            raise ConfigError(f"{key}: Input should be {words} {bound}")
    return value


def _build(cls, data):
    """The section ``cls`` from a raw dict; every error of the dict's tree in one ``ConfigError``."""
    if not isinstance(data, dict):
        raise ConfigError(f"{cls._key or '<root>'}: Input should be a valid dictionary "
                          f"or instance of {cls.__name__}")
    names = {f.name for f in fields(cls)}
    errors = [f"{cls._key}.{k}".lstrip(".") + ": Extra inputs are not permitted"
              for k in data if k not in names]
    try:
        section = cls(**{k: v for k, v in data.items() if k in names})
    except ConfigError as err:
        errors.insert(0, str(err))
    if errors:
        raise ConfigError("; ".join(errors))
    return section


class _Section:
    """A frozen config section: each field is checked against its type and
    range whenever one is made (``load_config``, direct construction or
    ``dataclasses.replace``), then the section's cross-field ``_check``."""

    _key = ""  # the section's dotted path in a config

    def __post_init__(self):
        errors = []
        for f in fields(self):
            try:
                value = _checked(f, getattr(self, f.name), f"{self._key}.{f.name}".lstrip("."))
            except ConfigError as err:
                errors.append(str(err))
            else:  # the value widened or built into its section
                object.__setattr__(self, f.name, value)
        if errors:
            raise ConfigError("; ".join(errors))
        self._check()

    def _check(self):
        pass

    def _unused(self, switch: str, value: str, keys: tuple):
        """Under ``switch = value`` none of ``keys`` is read, so each must keep its default."""
        if getattr(self, switch) != value:
            return
        for f in fields(self):
            if f.name in keys and getattr(self, f.name) != f.default:
                raise ConfigError(f"{self._key}.{switch} / {self._key}.{f.name}: unused by {value}")


@dataclass(frozen=True)
class ChannelConfig(_Section):
    _key = "channel"
    d_min_km: float = _field(500.0, gt=0)
    d_max_km: float = 2000.0
    a0: float = _field(0.9, gt=0, le=1)
    xi_p: float = _field(1.5, gt=0)
    sigma_n2: float = _field(0.1, ge=0)
    # C_FSPL = (lambda_opt / 4 pi)^2, lambda_opt in meters: 1550 nm by default
    c_fspl: float = _field((1550.0 * 1e-9 / (4.0 * math.pi)) ** 2, gt=0)

    @property
    def d_min(self) -> float:  # meters
        return self.d_min_km * 1e3

    @property
    def d_max(self) -> float:  # meters
        return self.d_max_km * 1e3

    def _check(self):
        if not self.d_min_km < self.d_max_km:
            raise ConfigError("channel.d_min_km / channel.d_max_km: require d_min_km < d_max_km")
        try:
            lam = ch.lambda_eff(self)
        except ArithmeticError:  # a power overflowed or the shell volume underflowed
            lam = math.nan
        if not 0 < lam < math.inf:
            raise ConfigError("channel.d_min_km / channel.d_max_km / channel.a0 / channel.xi_p / "
                              f"channel.c_fspl: lambda_eff = {lam} is not a positive finite number")


@dataclass(frozen=True)
class PowerConfig(_Section):
    _key = "power"
    p_avg: float = 1.0
    p_min: float = _field(0.1, gt=0)
    p_max: float = 2.0
    rho: float = _field(0.05, ge=0)
    abar_scope: Literal["all", "active"] = "all"

    def _check(self):
        if not self.p_min <= self.p_avg <= self.p_max:
            raise ConfigError("power.p_min / power.p_avg / power.p_max: "
                              "require p_min <= p_avg <= p_max")


@dataclass(frozen=True)
class DatasetConfig(_Section):
    _key = "learner.dataset"
    type: Literal["synthetic", "mnist"] = "synthetic"
    # synthetic
    num_classes: int = _field(10, ge=1)
    n: int = _field(2000, ge=1)
    n_test: int = _field(500, ge=1)
    d: int = _field(20, ge=1)
    separation: float = 4.0
    # mnist (IDX paths)
    train_images: Optional[str] = None
    train_labels: Optional[str] = None
    test_images: Optional[str] = None
    test_labels: Optional[str] = None

    def _check(self):
        idx = ("train_images", "train_labels", "test_images", "test_labels")
        for key in idx:
            path = getattr(self, key)
            if self.type == "mnist" and not os.path.isfile(path or ""):
                raise ConfigError(f"learner.dataset.{key}: mnist needs an IDX file, got {path!r}")
        self._unused("type", "synthetic", idx)
        self._unused("type", "mnist", ("num_classes", "n", "n_test", "d", "separation"))


@dataclass(frozen=True)
class ModelConfig(_Section):
    _key = "learner.model"
    arch: Literal["logistic", "mlp"] = "logistic"
    hidden: int = _field(32, ge=1)

    def _check(self):
        self._unused("arch", "logistic", ("hidden",))


@dataclass(frozen=True)
class PartitionConfig(_Section):
    _key = "learner.partition"
    mode: Literal["iid", "noniid"] = "iid"
    labels_per_node: int = _field(2, ge=1)

    def _check(self):
        self._unused("mode", "iid", ("labels_per_node",))


@dataclass(frozen=True)
class LearnerConfig(_Section):
    _key = "learner"
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    partition: PartitionConfig = field(default_factory=PartitionConfig)
    local_steps: int = _field(1, ge=1)


@dataclass(frozen=True)
class RunConfig(_Section):
    _key = "run"
    M: int = 20
    m: int = 4
    rounds: int = _field(200, ge=0)
    d_b: int = _field(64, ge=1)
    eta: float = _field(0.05, gt=0)
    L1_estimate: Optional[float] = _field(None, gt=0)  # set: the theorem1 step, in place of eta
    scheme: Literal[SCHEMES] = "optivote"
    seed: int = _field(0, ge=0)

    def _check(self):
        if not (1 <= self.m <= self.M):
            raise ConfigError("run.m / run.M: require 1 <= m <= M")
        if self.L1_estimate is None:
            return
        if not theory.theorem1_eta(self.L1_estimate, self.d_b) > 0:
            raise ConfigError("run.L1_estimate / run.d_b: the theorem1 step "
                              "1 / sqrt(L1_estimate * d_b) is not positive")
        if self.eta != RunConfig.eta:
            raise ConfigError("run.L1_estimate / run.eta: unused by theorem1")


@dataclass(frozen=True)
class OutputConfig(_Section):
    _key = "output"
    dir: str = "out"
    dump_power: bool = False
    dump_slots: bool = False

    def _check(self):
        nearest = next(p for p in (Path(self.dir), *Path(self.dir).parents) if p.exists())
        if not nearest.is_dir():
            raise ConfigError(f"output.dir: {str(nearest)!r} exists and is not a directory")


@dataclass(frozen=True)
class Config(_Section):
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    power: PowerConfig = field(default_factory=PowerConfig)
    learner: LearnerConfig = field(default_factory=LearnerConfig)
    run: RunConfig = field(default_factory=RunConfig)
    output: OutputConfig = field(default_factory=OutputConfig)


def load_config(data: dict, overrides: dict | None = None) -> Config:
    """Validate a raw config dict, applying dotted-path overrides first."""
    if overrides:
        data = json.loads(json.dumps(data))  # deep copy
        for dotted, value in overrides.items():
            node = data
            keys = dotted.split(".")
            for k in keys[:-1]:
                node = node.setdefault(k, {})
                if not isinstance(node, dict):
                    raise ConfigError(f"override path {dotted!r} crosses a non-object")
            node[keys[-1]] = value
    return _build(Config, data)


def parse_config(path: str | Path, overrides: dict | None = None) -> Config:
    """Read, validate, and default-fill a JSON config file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from err
    return load_config(data, overrides)


def resolved_json(cfg: Config) -> str:
    """Canonical JSON with every default made explicit."""
    return json.dumps(asdict(cfg), indent=2, sort_keys=True)


def config_hash(cfg: Config) -> str:
    return hashlib.sha256(
        json.dumps(asdict(cfg), sort_keys=True).encode()
    ).hexdigest()[:16]
