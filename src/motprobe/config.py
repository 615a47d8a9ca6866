"""Run configuration: JSON in, validated dataclasses out.

Keys carry their units explicitly (w_cs_um, beta_rbcs_cm3_per_s) and unknown
keys are rejected so a typo cannot silently fall back to a default. Lengths
are given in micrometers at the boundary and converted to centimeters for
the physics layer.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .gillespie import ExperimentSchedule
from .photon import DetectionCalibration
from .physics import PhysicalParams

__all__ = ["ConfigError", "GridSpec", "RunConfig", "load_config"]

_UM_TO_CM = 1e-4


class ConfigError(ValueError):
    pass


def _check_keys(section, allowed: set[str], where: str) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object, got {section!r}")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")


def _require_int(value, key: str) -> int:
    """value itself if it is an integer; a float or a bool is refused, not
    truncated."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return value


def _finite_values(section: dict, keys: set[str], where: str) -> dict[str, float]:
    """The section's values of keys as floats; anything but a finite real
    number is refused, naming its key: a bool, a string even if it spells a
    number, and an integer past the float range."""
    out = {}
    for key in sorted(keys):
        value = section[key]
        try:
            number = float(value) if isinstance(value, numbers.Real) else math.nan
        except OverflowError:
            number = math.inf
        if isinstance(value, bool) or not math.isfinite(number):
            raise ConfigError(f"{where}.{key} must be a finite number, got {value!r}")
        out[key] = number
    return out


@dataclass(frozen=True)
class GridSpec:
    """Companion-number grid: min, min+step, ... up to and including max."""

    min: int = 0
    max: int = 3300
    step: int = 220

    def __post_init__(self) -> None:
        for key in ("min", "max", "step"):
            _require_int(getattr(self, key), f"grid.{key}")
        if self.min < 0 or self.max < self.min or self.step <= 0:
            raise ConfigError(f"invalid grid spec {self!r}")

    def values(self) -> np.ndarray:
        return np.arange(self.min, self.max + 1, self.step)


@dataclass
class RunConfig:
    physics: dict = field(default_factory=dict)
    calibration: dict = field(default_factory=dict)
    schedule: dict = field(default_factory=dict)
    grid: GridSpec = field(default_factory=GridSpec)
    traces_per_bin: int = 200
    master_seed: int = 1234
    out_dir: str = "runs/default"

    _PHYSICS_KEYS = {
        "r0_per_s", "alpha_per_s_per_rb", "gamma_per_s",
        "beta_rbcs_cm3_per_s", "beta_cscs_cm3_per_s", "w_cs_um", "w_rb_um",
    }
    _CAL_KEYS = {"rate_per_atom_per_s", "background_rate_per_s", "dark_rate_per_s", "bin_s"}
    _SCHED_KEYS = {"detect_s", "off_s", "background_s"}
    _TOP_KEYS = {"physics", "calibration", "schedule", "grid", "traces_per_bin", "master_seed", "out_dir"}

    @classmethod
    def default(cls) -> "RunConfig":
        return cls.from_dict({})

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        _check_keys(raw, cls._TOP_KEYS, "config")
        for name, allowed in (("physics", cls._PHYSICS_KEYS), ("calibration", cls._CAL_KEYS),
                              ("schedule", cls._SCHED_KEYS), ("grid", {"min", "max", "step"})):
            _check_keys(raw.get(name, {}), allowed, name)
        physics = {**_DEFAULT_PHYSICS, **raw.get("physics", {})}
        calibration = {**_DEFAULT_CAL, **raw.get("calibration", {})}
        schedule = {**_DEFAULT_SCHED, **raw.get("schedule", {})}
        grid = GridSpec(**{**_DEFAULT_GRID, **raw.get("grid", {})})
        traces = _require_int(raw.get("traces_per_bin", 200), "traces_per_bin")
        if traces < 1:
            raise ConfigError(f"traces_per_bin must be >= 1, got {traces}")
        seed = _require_int(raw.get("master_seed", 1234), "master_seed")
        if seed < 0:
            raise ConfigError(f"master_seed must be non-negative, got {seed}")
        out_dir = raw.get("out_dir", "runs/default")
        if not isinstance(out_dir, str):
            raise ConfigError(f"out_dir must be a string, got {out_dir!r}")
        cfg = cls(
            physics=physics,
            calibration=calibration,
            schedule=schedule,
            grid=grid,
            traces_per_bin=traces,
            master_seed=seed,
            out_dir=out_dir,
        )
        # Fail fast on physically invalid values by building the typed objects.
        cfg.physical_params()
        cfg.detection_calibration()
        cfg.experiment_schedule()
        return cfg

    def to_dict(self) -> dict:
        return {
            "physics": dict(self.physics),
            "calibration": dict(self.calibration),
            "schedule": dict(self.schedule),
            "grid": asdict(self.grid),
            "traces_per_bin": self.traces_per_bin,
            "master_seed": self.master_seed,
            "out_dir": self.out_dir,
        }

    def physical_params(self) -> PhysicalParams:
        p = _finite_values(self.physics, self._PHYSICS_KEYS, "physics")
        try:
            return PhysicalParams(
                r0=p["r0_per_s"],
                alpha=p["alpha_per_s_per_rb"],
                gamma=p["gamma_per_s"],
                beta_rbcs=p["beta_rbcs_cm3_per_s"],
                beta_cscs=p["beta_cscs_cm3_per_s"],
                w_cs=p["w_cs_um"] * _UM_TO_CM,
                w_rb=p["w_rb_um"] * _UM_TO_CM,
            )
        except ValueError as exc:
            raise ConfigError(f"invalid physics section: {exc}") from exc

    def detection_calibration(self) -> DetectionCalibration:
        c = _finite_values(self.calibration, self._CAL_KEYS, "calibration")
        try:
            return DetectionCalibration(
                rate_per_atom=c["rate_per_atom_per_s"],
                background_rate=c["background_rate_per_s"],
                dark_rate=c["dark_rate_per_s"],
                bin_s=c["bin_s"],
            )
        except ValueError as exc:
            raise ConfigError(f"invalid calibration section: {exc}") from exc

    def experiment_schedule(self) -> ExperimentSchedule:
        s = _finite_values(self.schedule, self._SCHED_KEYS, "schedule")
        try:
            return ExperimentSchedule(
                detect_s=s["detect_s"],
                off_s=s["off_s"],
                background_s=s["background_s"],
            )
        except ValueError as exc:
            raise ConfigError(f"invalid schedule section: {exc}") from exc


_DEFAULT_PHYSICS = {
    "r0_per_s": 1.48,
    "alpha_per_s_per_rb": 2.3e-4,
    "gamma_per_s": 0.03,
    "beta_rbcs_cm3_per_s": 1.6e-10,
    "beta_cscs_cm3_per_s": 0.0,
    "w_cs_um": 6.6,
    "w_rb_um": 26.4,
}
_DEFAULT_CAL = {
    "rate_per_atom_per_s": 1.0e4,
    "background_rate_per_s": 5.0e3,
    "dark_rate_per_s": 0.0,
    "bin_s": 0.02,
}
_DEFAULT_SCHED = {"detect_s": 3.0, "off_s": 0.5, "background_s": 0.2}
_DEFAULT_GRID = {"min": 0, "max": 3300, "step": 220}


def load_config(path: "str | Path | None") -> RunConfig:
    """Read a JSON config file; None gives the built-in defaults."""
    if path is None:
        return RunConfig.default()
    text = Path(path).read_text()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return RunConfig.from_dict(raw)
