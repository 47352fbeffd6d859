"""Declarative experiment configuration loaded from YAML.

Each YAML section is the type the run consumes: `protocol` is a
gossip.GossipConfig, `exchanges` a ggn.ExchangeSchedule, `diffusion` a
ggn.DiffusionConfig, and each checks its own values when built. The schema
is strict: unknown or repeated keys, values of the wrong type and
non-finite numbers anywhere raise ConfigError naming the offending field
path, so typos fail fast instead of silently running a different experiment.
"""

from __future__ import annotations

import dataclasses
import math
import re
import typing
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .errors import ConfigError, InvalidArgumentError
from .ggn import DiffusionConfig, ExchangeSchedule, GgnConfig
from .gossip import GossipConfig

ALGORITHMS = ("centralized", "ggn", "diffusion")


@dataclass(frozen=True)
class CertificateConfig:
    xi: float = 0.25
    n_samples: int = 24

    def __post_init__(self):
        if not 0.0 < self.xi < 0.5:
            raise InvalidArgumentError(f"xi: must lie in (0, 1/2), got {self.xi}")
        if self.n_samples < 2:
            raise InvalidArgumentError(f"n_samples: must be >= 2, got {self.n_samples}")


@dataclass(frozen=True)
class ExperimentConfig:
    case_path: str = "case30"
    algorithm: str = "ggn"
    sites: int = 3
    protocol: GossipConfig = field(default_factory=GossipConfig)
    alpha: float = 0.5
    exchanges: ExchangeSchedule = field(default_factory=ExchangeSchedule)
    max_updates: int = 15
    stop_tol: float = 1e-12
    ridge: float = 1e-8
    sigma2: float = 1e-6
    snapshots: int = 1
    seed: int = 1
    repetitions: int = 20
    output_dir: str = "out"
    diffusion: DiffusionConfig = field(default_factory=DiffusionConfig)
    certificate: CertificateConfig = field(default_factory=CertificateConfig)

    def ggn_config(self) -> GgnConfig:
        """The GGN run's parameters; GgnConfig checks alpha, max_updates, stop_tol and ridge."""
        return GgnConfig(
            alpha=self.alpha, schedule=self.exchanges, max_updates=self.max_updates,
            stop_tol=self.stop_tol, ridge=self.ridge,
        )

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"algorithm: must be one of {ALGORITHMS}, got {self.algorithm!r}")
        if self.sites < 1:
            raise ConfigError("sites: must be >= 1")
        if self.protocol.kind == "ure" and self.sites < 2 and self.algorithm != "centralized":
            raise ConfigError(f"protocol.kind: ure needs at least two sites, got {self.sites}")
        if not 0.0 <= self.sigma2 < math.inf:
            raise ConfigError(f"sigma2: must be nonnegative and finite, got {self.sigma2}")
        if self.snapshots < 1:
            raise ConfigError("snapshots: must be >= 1")
        if self.repetitions < 1:
            raise ConfigError("repetitions: must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed: must be a non-negative integer, got {self.seed}")
        try:
            self.ggn_config()
        except InvalidArgumentError as exc:
            raise ConfigError(str(exc)) from exc


_EXPECTED = {int: "an integer", float: "a finite number", str: "a string"}


def _accepts(kind: type, value) -> bool:
    """Whether a YAML value may fill a field of type kind."""
    if isinstance(value, bool):
        return False
    if kind is float:
        return isinstance(value, int) or (isinstance(value, float) and math.isfinite(value))
    return isinstance(value, kind)


def _build(cls, data, path: str):
    """An instance of the dataclass cls from the YAML mapping at `path` ('' for the root).

    Keys must be cls's fields, each value of its annotated type: a mapping
    for a dataclass section, a non-bool int for int, a finite int or float
    for float and a str for str, so null fills no field. The rules cls checks
    itself surface as ConfigError under the field path.
    """
    prefix = f"{path}." if path else ""
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a mapping" if path else "config root must be a mapping")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for key, value in data.items():
        name = f"{prefix}{key}"
        if key not in hints:
            raise ConfigError(f"{name}: unknown key")
        if dataclasses.is_dataclass(hints[key]):
            value = _build(hints[key], value, name)
        elif not _accepts(hints[key], value):
            raise ConfigError(f"{name}: expected {_EXPECTED[hints[key]]}, got {value!r}")
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except InvalidArgumentError as exc:
        raise ConfigError(f"{prefix}{exc}") from exc


def config_from_mapping(data: dict) -> ExperimentConfig:
    return _build(ExperimentConfig, data, "")


class _Loader(yaml.SafeLoader):
    """SafeLoader that also reads 1e-6, 1E-6 and 1.0e6, strings in YAML 1.1, as floats."""


_EXPONENT_FLOAT = re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9][0-9_]*)[eE][-+]?[0-9]+$")
_Loader.add_implicit_resolver("tag:yaml.org,2002:float", _EXPONENT_FLOAT, list("-+0123456789."))


def _load_yaml(text: str):
    """yaml.safe_load(text) with _Loader's floats, except that a key repeated
    in the root mapping or in one of its sections, where safe_load keeps the
    last value, is a ConfigError naming its field path. Keys compare by
    resolved tag and text."""
    loader = _Loader(text)
    try:
        root = loader.get_single_node()
        mappings = [(root, "")]
        if isinstance(root, yaml.MappingNode):
            mappings += [(value, f"{key.value}.") for key, value in root.value]
        for node, prefix in mappings:
            if not isinstance(node, yaml.MappingNode):
                continue
            seen = set()
            for key, _ in node.value:
                if (key.tag, str(key.value)) in seen:
                    line = key.start_mark.line + 1
                    raise ConfigError(f"{prefix}{key.value}: duplicate key (line {line})")
                seen.add((key.tag, str(key.value)))
        return None if root is None else loader.construct_document(root)
    finally:
        loader.dispose()


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    try:
        data = _load_yaml(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8: {exc.reason} at byte {exc.start}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: {exc}")
    if data is None:
        data = {}
    return config_from_mapping(data)
