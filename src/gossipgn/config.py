"""Declarative experiment configuration loaded from YAML.

The schema is strict: unknown keys anywhere raise ConfigError naming the
offending field path, so typos fail fast instead of silently running a
different experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .errors import ConfigError

ALGORITHMS = ("centralized", "ggn", "diffusion")
PROTOCOLS = ("cse", "ure")
SCHEDULE_KINDS = ("constant", "incrementing")
STEP_KINDS = ("diminishing", "constant")


@dataclass(frozen=True)
class ProtocolConfig:
    kind: str = "cse"
    beta: float = 0.3
    link_failure_prob: float = 0.0
    comm_interval: int = 1

    def validate(self, path: str):
        if self.kind not in PROTOCOLS:
            raise ConfigError(f"{path}.kind: must be one of {PROTOCOLS}, got {self.kind!r}")
        if not 0.0 < self.beta < 1.0:
            raise ConfigError(f"{path}.beta: must lie in (0, 1), got {self.beta}")
        if not 0.0 <= self.link_failure_prob < 1.0:
            raise ConfigError(f"{path}.link_failure_prob: must lie in [0, 1)")
        if self.comm_interval < 1:
            raise ConfigError(f"{path}.comm_interval: must be >= 1")


@dataclass(frozen=True)
class ScheduleConfig:
    kind: str = "constant"
    base: int = 3

    def validate(self, path: str):
        if self.kind not in SCHEDULE_KINDS:
            raise ConfigError(f"{path}.kind: must be one of {SCHEDULE_KINDS}")
        if self.base < 1:
            raise ConfigError(f"{path}.base: must be >= 1")


@dataclass(frozen=True)
class DiffusionConfig:
    step_scale: float = 0.3
    step_kind: str = "diminishing"
    total_exchanges: int = 900

    def validate(self, path: str):
        if self.step_kind not in STEP_KINDS:
            raise ConfigError(f"{path}.step_kind: must be one of {STEP_KINDS}")
        if self.step_scale <= 0.0:
            raise ConfigError(f"{path}.step_scale: must be positive")
        if self.total_exchanges < 1:
            raise ConfigError(f"{path}.total_exchanges: must be >= 1")


@dataclass(frozen=True)
class CertificateConfig:
    xi: float = 0.25
    n_samples: int = 24

    def validate(self, path: str):
        if not 0.0 < self.xi < 0.5:
            raise ConfigError(f"{path}.xi: must lie in (0, 1/2)")
        if self.n_samples < 2:
            raise ConfigError(f"{path}.n_samples: must be >= 2")


@dataclass(frozen=True)
class ExperimentConfig:
    case_path: str = "case30"
    algorithm: str = "ggn"
    sites: int = 3
    protocol: ProtocolConfig = field(default_factory=ProtocolConfig)
    alpha: float = 0.5
    exchanges: ScheduleConfig = field(default_factory=ScheduleConfig)
    max_updates: int = 15
    stop_tol: float = 1e-12
    ridge: float = 1e-8
    sigma2: float = 1e-6
    snapshots: int = 1
    load_scale: float = 1.0
    seed: int = 1
    repetitions: int = 20
    output_dir: str = "out"
    true_state_path: str | None = None
    theta_max: float = 1.5707963267948966
    v_max: float = 1.5
    diffusion: DiffusionConfig = field(default_factory=DiffusionConfig)
    certificate: CertificateConfig = field(default_factory=CertificateConfig)

    def validate(self):
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"algorithm: must be one of {ALGORITHMS}, got {self.algorithm!r}")
        if self.sites < 1:
            raise ConfigError("sites: must be >= 1")
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigError("alpha: must lie in (0, 1]")
        if self.max_updates < 1:
            raise ConfigError("max_updates: must be >= 1")
        if self.stop_tol <= 0.0:
            raise ConfigError("stop_tol: must be positive")
        if self.ridge < 0.0:
            raise ConfigError("ridge: must be nonnegative")
        if self.sigma2 < 0.0:
            raise ConfigError("sigma2: must be nonnegative")
        if self.snapshots < 1:
            raise ConfigError("snapshots: must be >= 1")
        if self.load_scale < 0.0:
            raise ConfigError("load_scale: must be nonnegative")
        if self.repetitions < 1:
            raise ConfigError("repetitions: must be >= 1")
        if self.theta_max <= 0.0 or self.v_max <= 0.0:
            raise ConfigError("theta_max and v_max must be positive")
        self.protocol.validate("protocol")
        self.exchanges.validate("exchanges")
        self.diffusion.validate("diffusion")
        self.certificate.validate("certificate")


_SECTION_TYPES = {
    "protocol": ProtocolConfig,
    "exchanges": ScheduleConfig,
    "diffusion": DiffusionConfig,
    "certificate": CertificateConfig,
}


def _build_section(cls, data: dict, path: str):
    known = {f for f in cls.__dataclass_fields__}
    kwargs = {}
    for key, value in data.items():
        if key not in known:
            raise ConfigError(f"{path}.{key}: unknown key")
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"{path}: {exc}")


def config_from_mapping(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    known = set(ExperimentConfig.__dataclass_fields__)
    kwargs = {}
    for key, value in data.items():
        if key not in known:
            raise ConfigError(f"{key}: unknown key")
        if key in _SECTION_TYPES:
            if not isinstance(value, dict):
                raise ConfigError(f"{key}: expected a mapping")
            kwargs[key] = _build_section(_SECTION_TYPES[key], value, key)
        else:
            kwargs[key] = value
    try:
        cfg = ExperimentConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(str(exc))
    cfg.validate()
    return cfg


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = yaml.safe_load(path.read_text())
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: {exc}")
    if data is None:
        data = {}
    return config_from_mapping(data)
