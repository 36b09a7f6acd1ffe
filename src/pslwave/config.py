"""Experiment configuration: defaults, INI-file loading, per-trial reproducible RNG."""

from __future__ import annotations

import configparser
from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np

from .constellation import ConstellationSpec, SubcarrierMask
from .optimizer import OptimizerConfig
from .sensing import MIN_SEPARATION, CfarConfig, cfar_threshold_factor
from .spectrum import LagWeights

__all__ = ["ExperimentConfig", "load_config", "trial_rng", "ConfigError"]


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    # waveform
    n_subcarriers: int = 128
    n_antennas: int = 4
    n_cp: int = 32
    # constellation / similarity region
    family: str = "psk"
    order: int = 4
    rho: float = 0.15
    eps_a: float = 0.2
    unused_fraction: float = 0.05
    # optimizer
    p: int = 50
    l_max: int = 10
    # a constant, not a setting: perfbench/workloads.py records it in its input record
    accelerated: ClassVar[bool] = True
    # sensing
    cfar_p_fa: float = 1e-4
    cfar_n_ref: int = 7
    cfar_n_guard: int = 1
    n_targets: int = 1
    sense_snr_db: tuple[float, ...] = (-6.0, -5.0, -4.0, -3.0, -2.0, -1.0, 0.0, 1.0, 2.0)
    # comms
    n_rx: int = 4
    ber_snr_db: tuple[float, ...] = (0.0, 4.0, 8.0, 12.0, 16.0, 20.0, 24.0, 28.0, 32.0)
    # campaign
    trials: int = 200
    seed: int = 0
    out_dir: str = "results"
    workers: int = 1
    timestamp: bool = True

    def __post_init__(self):
        if self.n_subcarriers < 2 or self.n_antennas < 1:
            raise ConfigError("need n_subcarriers >= 2 and n_antennas >= 1")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        # n_rx >= n_antennas, which zero forcing needs, is checked by the ber command
        if self.n_rx < 1:
            raise ConfigError("n_rx must be >= 1")
        for name in ("sense_snr_db", "ber_snr_db"):
            snr = getattr(self, name)
            if len(snr) == 0 or not np.all(np.isfinite(snr)):
                raise ConfigError(f"{name} must be a non-empty list of finite values")
        n = self.n_subcarriers
        # SubcarrierMask.random leaves round(f * N) carriers of each antenna unused
        if not (0.0 <= self.unused_fraction < 1.0 and round(self.unused_fraction * n) < n):
            raise ConfigError("need unused_fraction >= 0 with round(unused_fraction * N) < N")
        # each placed target blocks 2 * MIN_SEPARATION - 1 cells; the last one needs a free cell
        if self.n_targets < 1 or (self.n_targets - 1) * (2 * MIN_SEPARATION - 1) >= n:
            raise ConfigError(
                f"need 1 <= n_targets with (n_targets - 1) * {2 * MIN_SEPARATION - 1} < N = {n}"
            )
        try:
            self.constellation()
            self.optimizer()
            self.lag_weights()
            cfar = self.cfar()
            cfar_threshold_factor(cfar.p_fa, cfar.n_ref)
            cfar.check_profile_length(self.n_subcarriers)  # the range profile has N cells
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def constellation(self) -> ConstellationSpec:
        return ConstellationSpec(
            family=self.family, order=self.order, rho=self.rho, eps_a=self.eps_a
        )

    def lag_weights(self) -> LagWeights:
        return LagWeights(self.n_subcarriers, self.n_cp)

    def optimizer(self) -> OptimizerConfig:
        return OptimizerConfig(p=self.p, l_max=self.l_max)

    def cfar(self) -> CfarConfig:
        return CfarConfig(
            p_fa=self.cfar_p_fa, n_ref=self.cfar_n_ref, n_guard=self.cfar_n_guard
        )

    def mask(self, rng: np.random.Generator) -> SubcarrierMask:
        return SubcarrierMask.random(
            rng, self.n_subcarriers, self.n_antennas, self.unused_fraction
        )


# INI section each field is read from; unknown keys in the file are rejected
_SECTIONS = {
    "waveform": ["n_subcarriers", "n_antennas", "n_cp"],
    "constellation": ["family", "order", "rho", "eps_a", "unused_fraction"],
    "optimizer": ["p", "l_max"],
    "sensing": ["cfar_p_fa", "cfar_n_ref", "cfar_n_guard", "n_targets", "sense_snr_db"],
    "comms": ["n_rx", "ber_snr_db"],
    "campaign": ["trials", "seed", "out_dir", "workers", "timestamp"],
}


def load_config(path: str | None = None, overrides: dict | None = None) -> ExperimentConfig:
    """Defaults, optionally updated from an INI file, then from CLI overrides."""
    values: dict = {}
    if path is not None:
        parser = configparser.ConfigParser(interpolation=None)  # a "%" in a value is literal
        try:
            read = parser.read(path, encoding="utf-8")
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError(f"malformed config file {path}: {exc}") from exc
        if not read:
            raise ConfigError(f"cannot read config file: {path}")
        if parser.defaults():
            # configparser copies [DEFAULT] keys into every section
            keys = ", ".join(parser.defaults())
            raise ConfigError(f"keys under [DEFAULT] are not supported ({keys}); "
                              "put each key in its own section")
        known = {key: sec for sec, keys in _SECTIONS.items() for key in keys}
        for section in parser.sections():
            if section not in _SECTIONS:
                raise ConfigError(f"unknown config section [{section}]")
            for key, raw in parser.items(section):
                if known.get(key) != section:
                    raise ConfigError(f"unknown key '{key}' in section [{section}]")
                try:
                    values[key] = _parse(key, raw)
                except ValueError as exc:
                    raise ConfigError(f"bad value for {key}: {raw!r}") from exc
    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})
    try:
        return ExperimentConfig(**values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}


def _parse(key: str, raw: str):
    kind = _FIELD_TYPES[key]
    raw = raw.strip()
    if kind == "int":
        return int(raw)
    if kind == "float":
        return float(raw)
    if kind == "bool":
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"bad boolean for {key}: {raw}")
    if kind == "tuple[float, ...]":
        return tuple(float(t) for t in raw.replace(",", " ").split())
    return raw


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Independent, reproducible stream for one trial: usable in isolation or in a pool."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(trial,)))
