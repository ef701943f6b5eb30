"""INI config parsing for the CLI: unit-suffixed values, strict schemas.

All quantities cross this boundary in human units (GHz/MHz, dBm/dBW, deg)
and are converted to the linear SI values used internally.  Unknown sections
or keys are rejected by name rather than ignored.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .beamforming import PowerBudget, SecrecyTarget
from .experiments import TIME_HORIZON, ExperimentConfig
from .scenario import ArrayGeometry, NodePlacement, RfParams, Scenario, _check_times


class ConfigError(ValueError):
    pass


def _split_unit(text: str) -> tuple[float, str]:
    parts = text.strip().split()
    if len(parts) == 1:
        return float(parts[0]), ""
    if len(parts) == 2:
        return float(parts[0]), parts[1].lower()
    raise ValueError(f"cannot parse quantity {text!r}")


def _unit_parser(kind: str, units: dict):
    """Parser of '<value> <unit>' into SI units; ``units`` maps each lower-case
    unit, and "" for a bare number, to its SI factor."""

    def parse(text: str) -> float:
        value, unit = _split_unit(text)
        if unit not in units:
            raise ValueError(f"unknown {kind} unit {unit!r}")
        return value * units[unit]

    return parse


parse_frequency = _unit_parser(
    "frequency", {"": 1.0, "hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9})
parse_length = _unit_parser(
    "length", {"": 1.0, "m": 1.0, "cm": 1e-2, "mm": 1e-3, "km": 1e3})
parse_time = _unit_parser(
    "time", {"": 1.0, "s": 1.0, "ms": 1e-3, "us": 1e-6, "µs": 1e-6, "ns": 1e-9})
parse_angle = _unit_parser("angle", {"": 1.0, "rad": 1.0, "deg": math.pi / 180.0})


_parse_linear_power = _unit_parser("power", {"": 1.0, "w": 1.0, "mw": 1e-3})


def parse_power(text: str) -> float:
    """Power in W from '3 W', '5 mW', '-100 dBm' or '0 dBW' (bare = W)."""
    value, unit = _split_unit(text)
    if unit not in ("dbw", "dbm"):
        return _parse_linear_power(text)
    try:
        return 10.0 ** ((value if unit == "dbw" else value - 30.0) / 10.0)
    except OverflowError:
        raise ValueError(f"{text.strip()!r} is past the float range") from None


def parse_int_list(text: str) -> tuple:
    return tuple(int(p) for p in text.replace(",", " ").split())


def parse_names(text: str) -> tuple:
    return tuple(p.strip() for p in text.split(",") if p.strip())


def parse_power_grid(text: str) -> tuple:
    """Either 'lo : hi : count' (dB-equispaced) or a comma list of powers."""
    if ":" in text:
        lo_s, hi_s, count_s = (p.strip() for p in text.split(":"))
        lo, hi = parse_power(lo_s), parse_power(hi_s)
        if not (0.0 < lo < math.inf and 0.0 < hi < math.inf):
            raise ValueError("power grid ends must be finite and positive")
        lo_db, hi_db = 10.0 * math.log10(lo), 10.0 * math.log10(hi)
        count = int(count_s)
        if count < 2:
            raise ValueError("power grid needs at least 2 points")
        return tuple(10.0 ** (d / 10.0) for d in np.linspace(lo_db, hi_db, count))
    return tuple(parse_power(p) for p in text.split(","))


def format_mhz(hz: float) -> str:
    return f"{hz / 1e6:.17g} MHz"


def format_dbm(watts: float) -> str:
    """'<value> dBm' with 17 significant digits; 0 W is '-inf dBm'."""
    dbm = -math.inf if watts == 0.0 else 10.0 * math.log10(watts) + 30.0
    return f"{dbm:.17g} dBm"


@dataclass
class SolverOptions:
    """Per-solve knobs from the optional [solver] section."""

    target_rate: float | None = None
    power_budget: float | None = None
    time: float = 0.0
    tolerance: float = 1e-8
    max_outer: int = 50
    initialization: str = "zero"

    def __post_init__(self):
        # every command rejects a bad value, not only the one that reads it;
        # load_scenario_config checks the time against the scenario's band
        if self.initialization not in ("zero", "linear"):
            raise ValueError("solver.initialization must be 'zero' or 'linear'")
        if self.target_rate is not None:
            SecrecyTarget(self.target_rate)
        if self.power_budget is not None:
            PowerBudget(self.power_budget)


_NODE_KEYS = {"range": parse_length, "angle": parse_angle}

_SCENARIO_SECTIONS = {
    "rf": (RfParams, {
        "carrier_frequency": parse_frequency,
        "max_offset": parse_frequency,
        "noise_power_bob": parse_power,
        "noise_power_eve": parse_power,
        "wave_speed": float,
    }),
    "array": (ArrayGeometry, {
        "element_count": int,
        "first_element_x": parse_length,
        "spacing": parse_length,
    }),
    "bob": (NodePlacement, _NODE_KEYS),
    "eve": (NodePlacement, _NODE_KEYS),
    "solver": (SolverOptions, {
        "target_rate": float,
        "power_budget": parse_power,
        "time": parse_time,
        "tolerance": float,
        "max_outer": int,
        "initialization": str,
    }),
}
"""Each section's dataclass and its keys' parsers; the dataclass's fields
without a default are the section's required keys."""

_EXPERIMENT_KEYS = {
    "realizations": int,
    "seed": int,
    "antenna_counts": parse_int_list,
    "target_rate": float,
    "power_grid": parse_power_grid,
    "baselines": parse_names,
    "time_samples": int,
    "time_horizon": parse_time,
    "range_min": parse_length,
    "range_max": parse_length,
    "range_gap": parse_length,
    "angle_min": parse_angle,
    "angle_max": parse_angle,
}
"""[experiment] keys; the min/max pairs and time_samples/time_horizon each
build one tuple field, every other key sets one ExperimentConfig field."""

_FIELD_OF_KEY = {"range": "range_m", "angle": "angle_rad", "seed": "rng_seed"}
"""INI keys that differ from the name of the field they set."""


def _read_sections(path, overrides: tuple, schema: dict) -> dict:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    with open(path) as fh:
        try:
            parser.read_file(fh)
            raw = {sec: dict(parser.items(sec)) for sec in parser.sections()}
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse {path}: {exc}") from exc
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override {item!r} must look like section.key=value")
        target, value = item.split("=", 1)
        sec, key = target.split(".", 1)
        # keys as the parser stored the file's: configparser lowercases them
        raw.setdefault(sec.strip(), {})[parser.optionxform(key.strip())] = value.strip()
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


def _section_kwargs(parsed: dict, sec: str, cls) -> dict:
    """Field values of ``cls`` given in section ``sec``; every init field of
    ``cls`` without a default must be among them."""
    kwargs = {_FIELD_OF_KEY.get(key, key): value
              for key, value in parsed.get(sec, {}).items()}
    for field in fields(cls):
        if (field.init and field.default is MISSING
                and field.default_factory is MISSING and field.name not in kwargs):
            if sec not in parsed:
                raise ConfigError(f"missing section [{sec}]")
            key = next((k for k, name in _FIELD_OF_KEY.items() if name == field.name),
                       field.name)
            raise ConfigError(f"missing key {key!r} in section [{sec}]")
    return kwargs


def load_scenario_config(path, overrides: tuple = ()) -> tuple[Scenario, SolverOptions]:
    """Parse a single-scenario config file into a Scenario plus solver options.

    Absent keys take the defaults of the dataclass their section builds,
    except ``array.spacing``, which defaults to half the carrier wavelength.
    """
    parsed = _read_sections(path, overrides,
                            {sec: keys for sec, (_, keys) in _SCENARIO_SECTIONS.items()})
    kwargs = {sec: _section_kwargs(parsed, sec, cls)
              for sec, (cls, _) in _SCENARIO_SECTIONS.items()}
    try:
        rf = RfParams(**kwargs["rf"])
        array = ArrayGeometry(**{"spacing": rf.wavelength / 2.0, **kwargs["array"]})
        scenario = Scenario(rf=rf, array=array, bob=NodePlacement(**kwargs["bob"]),
                            eve=NodePlacement(**kwargs["eve"]))
        options = SolverOptions(**kwargs["solver"])
        _check_times(rf, (options.time,))
        return scenario, options
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_experiment_config(path, overrides: tuple = ()) -> ExperimentConfig:
    """Parse a Monte Carlo config file into an ExperimentConfig.

    Absent keys take ExperimentConfig's defaults; ``time_samples`` points
    spread evenly over [0, ``time_horizon``].
    """
    parsed = _read_sections(path, overrides, {"experiment": _EXPERIMENT_KEYS})
    exp = parsed.setdefault("experiment", {})
    lo, hi = ExperimentConfig.range_interval
    range_interval = (exp.pop("range_min", lo), exp.pop("range_max", hi))
    lo, hi = ExperimentConfig.angle_interval
    angle_interval = (exp.pop("angle_min", lo), exp.pop("angle_max", hi))
    count = exp.pop("time_samples", len(ExperimentConfig.time_samples))
    horizon = exp.pop("time_horizon", TIME_HORIZON)
    if count < 1:
        raise ConfigError("experiment.time_samples must be at least 1")
    if not math.isfinite(horizon):
        raise ConfigError("experiment.time_horizon must be finite")
    times = tuple(float(t) for t in np.linspace(0.0, horizon, count))
    try:
        return ExperimentConfig(**_section_kwargs(parsed, "experiment", ExperimentConfig),
                                range_interval=range_interval,
                                angle_interval=angle_interval, time_samples=times)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
