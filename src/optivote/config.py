"""JSON configuration schema, validation, and resolved-config emission.

A run is fully described by one JSON file; unknown keys are rejected and
every applied default survives a round trip through the resolved config
written next to the outputs.  Every range check of a run lives here, once,
including the rule that a ``theorem1`` step size is positive, and a bad
value fails with its dotted key (``power.rho: Input should be greater than
or equal to 0``).  The library functions a run calls take these validated
values and do not check them again.  ``ChannelConfig`` and ``PowerConfig``
are also the parameter types of the channel and power layers: the channel
section takes kilometers and nanometers, and the samplers read its SI
properties.
"""

import hashlib
import json
import math
import os
from pathlib import Path
from typing import Literal, Optional

from pydantic import BaseModel, ConfigDict, Field, ValidationError, model_validator

from . import channel as ch
from . import theory
from .errors import ConfigError

SCHEMES = ("optivote", "optivote_fixed_power", "ideal_mv", "fedavg_air")


class _Strict(BaseModel):
    model_config = ConfigDict(extra="forbid", allow_inf_nan=False, frozen=True)

    def model_copy(self, *, update: dict | None = None):
        """A copy with ``update`` applied, validated as ``load_config`` validates."""
        return self.model_validate({**self.model_dump(), **(update or {})})


class ChannelConfig(_Strict):
    d_min_km: float = Field(500.0, gt=0)
    d_max_km: float = 2000.0
    lambda_opt_nm: Optional[float] = Field(None, gt=0)  # 1550 when c_fspl is unset
    a0: float = Field(0.9, gt=0, le=1)
    xi_p: float = Field(1.5, gt=0)
    sigma_n2: float = Field(0.1, ge=0)
    c_fspl: Optional[float] = Field(None, gt=0)  # C_FSPL in place of the wavelength's

    @property
    def d_min(self) -> float:  # meters
        return self.d_min_km * 1e3

    @property
    def d_max(self) -> float:  # meters
        return self.d_max_km * 1e3

    @property
    def fspl_constant(self) -> float:
        """``c_fspl``, or (lambda_opt / 4 pi)^2 with lambda_opt in meters."""
        if self.c_fspl is not None:
            return self.c_fspl
        return (self.lambda_opt_nm * 1e-9 / (4.0 * math.pi)) ** 2

    @model_validator(mode="before")
    @classmethod
    def _default_wavelength(cls, data):
        if isinstance(data, dict) and data.get("c_fspl") is None \
                and data.get("lambda_opt_nm") is None:
            data = {**data, "lambda_opt_nm": 1550.0}
        return data

    @model_validator(mode="after")
    def _check(self):
        if self.lambda_opt_nm is not None and self.c_fspl is not None:
            raise ValueError("channel.lambda_opt_nm / channel.c_fspl: set one of the two")
        if not self.d_min_km < self.d_max_km:
            raise ValueError("channel.d_min_km / channel.d_max_km: require d_min_km < d_max_km")
        try:
            lam = ch.lambda_eff(self)
        except ArithmeticError:  # a power overflowed or the shell volume underflowed
            lam = math.nan
        if not 0 < lam < math.inf:
            fspl = "channel.lambda_opt_nm" if self.c_fspl is None else "channel.c_fspl"
            raise ValueError(f"channel.d_min_km / channel.d_max_km / channel.a0 / channel.xi_p"
                             f" / {fspl}: lambda_eff = {lam} is not a positive finite number")
        return self


class PowerConfig(_Strict):
    p_avg: float = 1.0
    p_min: float = Field(0.1, gt=0)
    p_max: float = 2.0
    rho: float = Field(0.05, ge=0)
    abar_scope: Literal["all", "active"] = "all"

    @model_validator(mode="after")
    def _check(self):
        if not self.p_min <= self.p_avg <= self.p_max:
            raise ValueError("power.p_min / power.p_avg / power.p_max: "
                             "require p_min <= p_avg <= p_max")
        return self


class DatasetConfig(_Strict):
    type: Literal["synthetic", "mnist"] = "synthetic"
    # synthetic
    num_classes: int = Field(10, ge=1)
    n: int = Field(2000, ge=1)
    n_test: int = Field(500, ge=1)
    d: int = Field(20, ge=1)
    separation: float = 4.0
    # mnist (IDX paths)
    train_images: Optional[str] = None
    train_labels: Optional[str] = None
    test_images: Optional[str] = None
    test_labels: Optional[str] = None

    @model_validator(mode="after")
    def _check(self):
        for key in ("train_images", "train_labels", "test_images", "test_labels"):
            path = getattr(self, key)
            if self.type == "mnist" and not os.path.isfile(path or ""):
                raise ValueError(f"learner.dataset.{key}: mnist needs an IDX file, got {path!r}")
            if self.type == "synthetic" and path is not None:
                raise ValueError(f"learner.dataset.type / learner.dataset.{key}: unused by synthetic")
        return self


class ModelConfig(_Strict):
    arch: Literal["logistic", "mlp"] = "logistic"
    hidden: int = Field(32, ge=1)


class PartitionConfig(_Strict):
    mode: Literal["iid", "noniid"] = "iid"
    labels_per_node: int = Field(2, ge=1)


class LearnerConfig(_Strict):
    dataset: DatasetConfig = DatasetConfig()
    model: ModelConfig = ModelConfig()
    partition: PartitionConfig = PartitionConfig()
    local_steps: int = Field(1, ge=1)


class RunConfig(_Strict):
    M: int = 20
    m: int = 4
    rounds: int = Field(200, ge=0)
    d_b: int = Field(64, ge=1)
    eta: float = Field(0.05, gt=0)
    lr: Literal["constant", "theorem1"] = "constant"
    L1_estimate: Optional[float] = Field(None, gt=0)
    scheme: Literal[SCHEMES] = "optivote"
    seed: int = Field(0, ge=0)

    @model_validator(mode="after")
    def _check(self):
        if not (1 <= self.m <= self.M):
            raise ValueError("run.m must satisfy 1 <= m <= M")
        if (self.lr == "theorem1") != (self.L1_estimate is not None):
            raise ValueError("run.lr / run.L1_estimate: set L1_estimate exactly when lr = 'theorem1'")
        if self.lr == "theorem1" and not theory.theorem1_eta(self.L1_estimate, self.d_b) > 0:
            raise ValueError("run.lr / run.L1_estimate / run.d_b: the theorem1 step "
                             "1 / sqrt(L1_estimate * d_b) is not positive")
        return self


class OutputConfig(_Strict):
    dir: str = "out"
    dump_power: bool = False
    dump_slots: bool = False

    @model_validator(mode="after")
    def _check(self):
        nearest = next(p for p in (Path(self.dir), *Path(self.dir).parents) if p.exists())
        if not nearest.is_dir():
            raise ValueError(f"output.dir: {str(nearest)!r} exists and is not a directory")
        return self


class Config(_Strict):
    channel: ChannelConfig = ChannelConfig()
    power: PowerConfig = PowerConfig()
    learner: LearnerConfig = LearnerConfig()
    run: RunConfig = RunConfig()
    output: OutputConfig = OutputConfig()


def _format_validation_error(err: ValidationError) -> str:
    # A cross-field rule raises a ValueError whose message names its keys.
    return "; ".join(str(e["ctx"]["error"]) if e["type"] == "value_error"
                     else f"{'.'.join(map(str, e['loc'])) or '<root>'}: {e['msg']}"
                     for e in err.errors())


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
    try:
        return Config.model_validate(data)
    except ValidationError as err:
        raise ConfigError(_format_validation_error(err)) from err


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
    return json.dumps(cfg.model_dump(), indent=2, sort_keys=True)


def config_hash(cfg: Config) -> str:
    return hashlib.sha256(
        json.dumps(cfg.model_dump(), sort_keys=True).encode()
    ).hexdigest()[:16]
