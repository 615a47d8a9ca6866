"""Run configuration: JSON in, validated dataclasses out.

Keys carry their units explicitly (w_cs_um, beta_rbcs_cm3_per_s) and unknown
keys are rejected so a typo cannot silently fall back to a default. Lengths
are given in micrometers at the boundary and converted to centimeters for
the physics layer. The config is parsed once: RunConfig holds the typed
objects each layer takes, and an omitted key takes the default of the field
it feeds. The grid includes both endpoints, so its max must lie on the step.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .gillespie import ExperimentSchedule
from .photon import DetectionCalibration
from .physics import PhysicalParams

__all__ = ["ConfigError", "GridSpec", "RunConfig", "load_config"]

_UM_TO_CM = 1e-4


class ConfigError(ValueError):
    pass


def _check_keys(section, allowed, where: str) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object, got {section!r}")
    unknown = set(section).difference(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")


def _require_int(value, key: str) -> int:
    """value itself if it is an integer; a float or a bool is refused, not
    truncated."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return value


def _finite_values(section: dict, where: str) -> dict[str, float]:
    """The section's values as floats; anything but a finite real number is
    refused, naming its key: a bool, a string even if it spells a number,
    and an integer past the float range."""
    out = {}
    for key in sorted(section):
        value = section[key]
        try:
            number = float(value) if isinstance(value, numbers.Real) else math.nan
        except OverflowError:
            number = math.inf
        if isinstance(value, bool) or not math.isfinite(number):
            raise ConfigError(f"{where}.{key} must be a finite number, got {value!r}")
        out[key] = number
    return out


def _build(kind, where: str, **kwargs):
    """kind(**kwargs), with the constructor's ValueError naming the section."""
    try:
        return kind(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"invalid {where} section: {exc}") from exc


def _field_names(cls) -> set[str]:
    return {f.name for f in fields(cls)}


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
        off = (self.max - self.min) % self.step
        if off:
            below = self.max - off
            raise ConfigError(
                f"grid.max {self.max} is not min + k * step (min {self.min}, "
                f"step {self.step}); the nearest grid values are {below} and "
                f"{below + self.step}"
            )

    def values(self) -> np.ndarray:
        return np.arange(self.min, self.max + 1, self.step)


# Physics key -> (PhysicalParams field, default, scale to the field's unit).
# Physics has no dataclass defaults; these are the config's.
_PHYSICS = {
    "r0_per_s": ("r0", 1.48, 1.0),
    "alpha_per_s_per_rb": ("alpha", 2.3e-4, 1.0),
    "gamma_per_s": ("gamma", 0.03, 1.0),
    "beta_rbcs_cm3_per_s": ("beta_rbcs", 1.6e-10, 1.0),
    "beta_cscs_cm3_per_s": ("beta_cscs", 0.0, 1.0),
    "w_cs_um": ("w_cs", 6.6, _UM_TO_CM),
    "w_rb_um": ("w_rb", 26.4, _UM_TO_CM),
}
# Calibration key -> DetectionCalibration field.
_CAL_FIELDS = {
    "rate_per_atom_per_s": "rate_per_atom",
    "background_rate_per_s": "background_rate",
    "dark_rate_per_s": "dark_rate",
    "bin_s": "bin_s",
}


def _physics_from(section: dict) -> PhysicalParams:
    given = _finite_values(section, "physics")
    return _build(PhysicalParams, "physics", **{
        name: given.get(key, default) * scale
        for key, (name, default, scale) in _PHYSICS.items()
    })


@dataclass(frozen=True)
class RunConfig:
    """The typed objects each layer takes, built and checked once.

    from_dict reports the first error in this order: keys, grid, physics,
    calibration, schedule, then the three scalars. __post_init__ checks
    that each section is its own dataclass, then the scalars, so a config
    made with dataclasses.replace is checked too: traces_per_bin an integer
    >= 1, master_seed a non-negative integer and out_dir a string.
    """

    physics: PhysicalParams
    calibration: DetectionCalibration
    schedule: ExperimentSchedule
    grid: GridSpec
    traces_per_bin: int = 200
    master_seed: int = 1234
    out_dir: str = "runs/default"

    def __post_init__(self) -> None:
        for name, kind in (
            ("physics", PhysicalParams),
            ("calibration", DetectionCalibration),
            ("schedule", ExperimentSchedule),
            ("grid", GridSpec),
        ):
            section = getattr(self, name)
            if not isinstance(section, kind):
                raise ConfigError(f"{name} must be a {kind.__name__}, got {section!r}")
        traces = _require_int(self.traces_per_bin, "traces_per_bin")
        if traces < 1:
            raise ConfigError(f"traces_per_bin must be >= 1, got {traces}")
        seed = _require_int(self.master_seed, "master_seed")
        if seed < 0:
            raise ConfigError(f"master_seed must be non-negative, got {seed}")
        if not isinstance(self.out_dir, str):
            raise ConfigError(f"out_dir must be a string, got {self.out_dir!r}")

    @classmethod
    def default(cls) -> "RunConfig":
        return cls.from_dict({})

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        _check_keys(raw, _field_names(cls), "config")
        sections = {
            "physics": _PHYSICS,
            "calibration": _CAL_FIELDS,
            "schedule": _field_names(ExperimentSchedule),
            "grid": _field_names(GridSpec),
        }
        for name, allowed in sections.items():
            _check_keys(raw.get(name, {}), allowed, name)
        grid = GridSpec(**raw.get("grid", {}))
        physics = _physics_from(raw.get("physics", {}))
        cal = _finite_values(raw.get("calibration", {}), "calibration")
        calibration = _build(
            DetectionCalibration, "calibration",
            **{_CAL_FIELDS[key]: value for key, value in cal.items()},
        )
        schedule = _build(
            ExperimentSchedule, "schedule",
            **_finite_values(raw.get("schedule", {}), "schedule"),
        )
        scalars = {key: value for key, value in raw.items() if key not in sections}
        return cls(physics, calibration, schedule, grid, **scalars)


def load_config(path: "str | Path | None") -> RunConfig:
    """Read a JSON config file; None gives the built-in defaults."""
    if path is None:
        return RunConfig.default()
    text = Path(path).read_text(encoding="utf-8")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return RunConfig.from_dict(raw)
