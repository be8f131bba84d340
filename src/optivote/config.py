"""JSON configuration schema, validation, and resolved-config emission.

A run is fully described by one JSON file; unknown keys are rejected and
every applied default survives a round trip through the resolved config
written next to the outputs.  Distances come in as kilometers and the
optical wavelength in nanometers; everything downstream is SI.
"""

import hashlib
import json
import re
from pathlib import Path
from typing import ClassVar, Literal, Optional

from pydantic import BaseModel, ConfigDict, Field, ValidationError, model_validator

from .channel import ChannelParams
from .errors import ConfigError, UsageError
from .power import PowerParams

SCHEMES = ("optivote", "optivote_fixed_power", "ideal_mv", "fedavg_air")


class _Strict(BaseModel):
    model_config = ConfigDict(extra="forbid", allow_inf_nan=False)


class _Section(_Strict):
    """A section whose range checks live in the parameter dataclass it builds.

    Those checks name the dataclass's SI fields (``d_min``); the error
    names the config keys they come from (``channel.d_min_km``).
    """

    _key: ClassVar[str]

    @model_validator(mode="after")
    def _check(self):
        try:
            self.to_params()
        except UsageError as err:
            named = set(re.findall(r"\w+", str(err)))
            keys = [f"{self._key}.{k}" for k in type(self).model_fields
                    if k.removesuffix("_km").removesuffix("_nm") in named]
            raise ValueError(f"{' / '.join(keys) or self._key}: {err}") from err
        return self


class ChannelConfig(_Section):
    _key = "channel"
    d_min_km: float = 500.0
    d_max_km: float = 2000.0
    lambda_opt_nm: float = 1550.0
    a0: float = 0.9
    xi_p: float = 1.5
    sigma_n2: float = 0.1
    c_fspl: Optional[float] = None

    def to_params(self) -> ChannelParams:
        return ChannelParams(
            d_min=self.d_min_km * 1e3,
            d_max=self.d_max_km * 1e3,
            lambda_opt=self.lambda_opt_nm * 1e-9,
            a0=self.a0,
            xi_p=self.xi_p,
            sigma_n2=self.sigma_n2,
            c_fspl=self.c_fspl,
        )


class PowerConfig(_Section):
    _key = "power"
    p_avg: float = 1.0
    p_min: float = 0.1
    p_max: float = 2.0
    rho: float = 0.05
    abar_scope: Literal["all", "active"] = "all"

    def to_params(self) -> PowerParams:
        return PowerParams(
            p_avg=self.p_avg, p_min=self.p_min, p_max=self.p_max,
            rho=self.rho, abar_scope=self.abar_scope,
        )


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
        if self.type == "mnist":
            missing = [k for k in ("train_images", "train_labels", "test_images",
                                   "test_labels") if getattr(self, k) is None]
            if missing:
                raise ValueError(f"learner.dataset.{missing[0]} is required for mnist")
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
        if self.lr == "theorem1" and self.L1_estimate is None:
            raise ValueError("run.L1_estimate is required when run.lr = 'theorem1'")
        return self


class OutputConfig(_Strict):
    dir: str = "out"
    dump_power: bool = False
    dump_slots: bool = False


class Config(_Strict):
    channel: ChannelConfig = ChannelConfig()
    power: PowerConfig = PowerConfig()
    learner: LearnerConfig = LearnerConfig()
    run: RunConfig = RunConfig()
    output: OutputConfig = OutputConfig()


def _format_validation_error(err: ValidationError) -> str:
    parts = []
    for e in err.errors():
        loc = ".".join(str(p) for p in e["loc"] if p != "_check")
        parts.append(f"{loc or '<root>'}: {e['msg']}")
    return "; ".join(parts)


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
