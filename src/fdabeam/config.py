"""INI config parsing for the CLI: unit-suffixed values, strict schemas.

All quantities cross this boundary in human units (GHz/MHz, dBm/dBW, deg)
and are converted to the linear SI values used internally.  Unknown sections
or keys are rejected by name rather than ignored.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass

import numpy as np

from .experiments import ExperimentConfig
from .scenario import ArrayGeometry, NodePlacement, RfParams, Scenario


class ConfigError(ValueError):
    pass


_FREQ_UNITS = {"hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9}
_LENGTH_UNITS = {"m": 1.0, "cm": 1e-2, "mm": 1e-3, "km": 1e3}
_TIME_UNITS = {"s": 1.0, "ms": 1e-3, "us": 1e-6, "µs": 1e-6, "ns": 1e-9}


def _split_unit(text: str) -> tuple[float, str]:
    parts = text.strip().split()
    if len(parts) == 1:
        return float(parts[0]), ""
    if len(parts) == 2:
        return float(parts[0]), parts[1].lower()
    raise ValueError(f"cannot parse quantity {text!r}")


def parse_frequency(text: str) -> float:
    value, unit = _split_unit(text)
    if unit == "":
        return value
    if unit in _FREQ_UNITS:
        return value * _FREQ_UNITS[unit]
    raise ValueError(f"unknown frequency unit {unit!r}")


def parse_power(text: str) -> float:
    """Power in W from '3 W', '5 mW', '-100 dBm' or '0 dBW' (bare = W)."""
    value, unit = _split_unit(text)
    if unit in ("", "w"):
        return value
    if unit == "mw":
        return value * 1e-3
    if unit == "dbw":
        return 10.0 ** (value / 10.0)
    if unit == "dbm":
        return 10.0 ** ((value - 30.0) / 10.0)
    raise ValueError(f"unknown power unit {unit!r}")


def parse_angle(text: str) -> float:
    value, unit = _split_unit(text)
    if unit in ("", "rad"):
        return value
    if unit == "deg":
        return math.radians(value)
    raise ValueError(f"unknown angle unit {unit!r}")


def parse_length(text: str) -> float:
    value, unit = _split_unit(text)
    if unit == "":
        return value
    if unit in _LENGTH_UNITS:
        return value * _LENGTH_UNITS[unit]
    raise ValueError(f"unknown length unit {unit!r}")


def parse_time(text: str) -> float:
    value, unit = _split_unit(text)
    if unit == "":
        return value
    if unit in _TIME_UNITS:
        return value * _TIME_UNITS[unit]
    raise ValueError(f"unknown time unit {unit!r}")


def parse_int(text: str) -> int:
    return int(text.strip())


def parse_float(text: str) -> float:
    return float(text.strip())


def parse_int_list(text: str) -> tuple:
    return tuple(int(p) for p in text.replace(",", " ").split())


def parse_names(text: str) -> tuple:
    return tuple(p.strip() for p in text.split(",") if p.strip())


def parse_power_grid(text: str) -> tuple:
    """Either 'lo : hi : count' (dB-equispaced) or a comma list of powers."""
    if ":" in text:
        lo_s, hi_s, count_s = (p.strip() for p in text.split(":"))
        lo_db = 10.0 * math.log10(parse_power(lo_s))
        hi_db = 10.0 * math.log10(parse_power(hi_s))
        count = int(count_s)
        if count < 2:
            raise ValueError("power grid needs at least 2 points")
        return tuple(10.0 ** (d / 10.0) for d in np.linspace(lo_db, hi_db, count))
    return tuple(parse_power(p) for p in text.split(","))


def format_mhz(hz: float) -> str:
    return f"{hz / 1e6:.17g} MHz"


def format_dbm(watts: float) -> str:
    return f"{10.0 * math.log10(watts) + 30.0:.17g} dBm"


@dataclass
class SolverOptions:
    """Per-solve knobs from the optional [solver] section."""

    target_rate: float | None = None
    power_budget: float | None = None
    time: float = 0.0
    tolerance: float = 1e-8
    max_outer: int = 50
    initialization: str = "zero"


_SCENARIO_SCHEMA = {
    "rf": {
        "carrier_frequency": parse_frequency,
        "max_offset": parse_frequency,
        "noise_power_bob": parse_power,
        "noise_power_eve": parse_power,
        "wave_speed": parse_float,
    },
    "array": {
        "element_count": parse_int,
        "first_element_x": parse_length,
        "spacing": parse_length,
    },
    "bob": {"range": parse_length, "angle": parse_angle},
    "eve": {"range": parse_length, "angle": parse_angle},
    "solver": {
        "target_rate": parse_float,
        "power_budget": parse_power,
        "time": parse_time,
        "tolerance": parse_float,
        "max_outer": parse_int,
        "initialization": str.strip,
    },
}

_SCENARIO_REQUIRED = {
    "rf": ("carrier_frequency", "max_offset", "noise_power_bob", "noise_power_eve"),
    "array": ("element_count",),
    "bob": ("range", "angle"),
    "eve": ("range", "angle"),
}

_EXPERIMENT_SCHEMA = {
    "experiment": {
        "realizations": parse_int,
        "seed": parse_int,
        "antenna_counts": parse_int_list,
        "target_rate": parse_float,
        "power_grid": parse_power_grid,
        "baselines": parse_names,
        "time_samples": parse_int,
        "time_horizon": parse_time,
        "range_min": parse_length,
        "range_max": parse_length,
        "range_gap": parse_length,
        "angle_min": parse_angle,
        "angle_max": parse_angle,
    },
}


def _read_sections(path, overrides: tuple, schema: dict) -> dict:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    with open(path) as fh:
        parser.read_file(fh)
    raw = {sec: dict(parser.items(sec)) for sec in parser.sections()}
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override {item!r} must look like section.key=value")
        target, value = item.split("=", 1)
        sec, key = target.split(".", 1)
        raw.setdefault(sec.strip(), {})[key.strip()] = value.strip()
    parsed = {}
    for sec, entries in raw.items():
        if sec not in schema:
            raise ConfigError(f"unknown section [{sec}]")
        parsed[sec] = {}
        for key, text in entries.items():
            if key not in schema[sec]:
                raise ConfigError(f"unknown key {key!r} in section [{sec}]")
            try:
                parsed[sec][key] = schema[sec][key](text)
            except ValueError as exc:
                raise ConfigError(f"invalid value for {sec}.{key}: {exc}") from exc
    return parsed


def load_scenario_config(path, overrides: tuple = ()) -> tuple[Scenario, SolverOptions]:
    """Parse a single-scenario config file into a Scenario plus solver options."""
    parsed = _read_sections(path, overrides, _SCENARIO_SCHEMA)
    for sec, keys in _SCENARIO_REQUIRED.items():
        if sec not in parsed:
            raise ConfigError(f"missing section [{sec}]")
        for key in keys:
            if key not in parsed[sec]:
                raise ConfigError(f"missing key {key!r} in section [{sec}]")
    rf_keys = parsed["rf"]
    try:
        rf = RfParams(carrier_frequency=rf_keys["carrier_frequency"],
                      max_offset=rf_keys["max_offset"],
                      noise_power_bob=rf_keys["noise_power_bob"],
                      noise_power_eve=rf_keys["noise_power_eve"],
                      wave_speed=rf_keys.get("wave_speed", 299_792_458.0))
        arr = parsed["array"]
        geom = ArrayGeometry(element_count=arr["element_count"],
                             first_element_x=arr.get("first_element_x", 0.0),
                             spacing=arr.get("spacing", rf.wavelength / 2.0))
        scenario = Scenario(
            rf=rf, array=geom,
            bob=NodePlacement(range_m=parsed["bob"]["range"],
                              angle_rad=parsed["bob"]["angle"]),
            eve=NodePlacement(range_m=parsed["eve"]["range"],
                              angle_rad=parsed["eve"]["angle"]))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    solver = parsed.get("solver", {})
    opts = SolverOptions(target_rate=solver.get("target_rate"),
                         power_budget=solver.get("power_budget"),
                         time=solver.get("time", 0.0),
                         tolerance=solver.get("tolerance", 1e-8),
                         max_outer=solver.get("max_outer", 50),
                         initialization=solver.get("initialization", "zero"))
    if opts.initialization not in ("zero", "linear"):
        raise ConfigError("solver.initialization must be 'zero' or 'linear'")
    return scenario, opts


def load_experiment_config(path, overrides: tuple = ()) -> ExperimentConfig:
    """Parse a Monte Carlo config file into an ExperimentConfig."""
    parsed = _read_sections(path, overrides, _EXPERIMENT_SCHEMA)
    exp = parsed.get("experiment", {})
    kwargs = {}
    if "realizations" in exp:
        kwargs["realizations"] = exp["realizations"]
    if "seed" in exp:
        kwargs["rng_seed"] = exp["seed"]
    if "antenna_counts" in exp:
        kwargs["antenna_counts"] = exp["antenna_counts"]
    if "target_rate" in exp:
        kwargs["target_rate"] = exp["target_rate"]
    if "power_grid" in exp:
        kwargs["power_grid"] = exp["power_grid"]
    if "baselines" in exp:
        kwargs["baselines"] = exp["baselines"]
    if "range_min" in exp or "range_max" in exp:
        lo = exp.get("range_min", 50.0)
        hi = exp.get("range_max", 150.0)
        kwargs["range_interval"] = (lo, hi)
    if "range_gap" in exp:
        kwargs["range_gap"] = exp["range_gap"]
    if "angle_min" in exp or "angle_max" in exp:
        kwargs["angle_interval"] = (exp.get("angle_min", 0.0),
                                    exp.get("angle_max", math.pi))
    count = exp.get("time_samples", 21)
    horizon = exp.get("time_horizon", 20e-6)
    if count < 1:
        raise ConfigError("experiment.time_samples must be at least 1")
    if not math.isfinite(horizon):
        raise ConfigError("experiment.time_horizon must be finite")
    kwargs["time_samples"] = tuple(float(t) for t in np.linspace(0.0, horizon, count))
    try:
        return ExperimentConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
