"""Monte Carlo harness: baseline frequency plans, random scenario sampling
and the power/rate/convergence sweeps behind the CLI.

Scenarios follow a fixed template: carrier 2.4 GHz, offset budget 3 MHz,
-100 dBm noise at both receivers, half-wavelength spacing with the first
element at the origin.  Bob's range is drawn uniformly, Eve sits a fixed
gap behind Bob on the same bearing, and the shared angle is drawn uniformly
as well.  Per-realization RNG substreams derive from (seed, realization
index), so results do not depend on how realizations are distributed over
workers.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .beamforming import (
    PowerBudget,
    SecrecyTarget,
    lambda1_closed_form,
    lambda_delta_closed_form,
    mrt_rate,
    mrt_required_power,
    stacked_channel_stats,
)
from .coupling import g_value, optimize_offsets
from .scenario import (
    ArrayGeometry,
    FrequencyPlan,
    NodePlacement,
    RfParams,
    Scenario,
    channel_pairs,
)

CARRIER_FREQUENCY = 2.4e9
MAX_OFFSET = 3e6
NOISE_POWER = 1e-13
TIME_HORIZON = 20e-6

SCHEMES = ("bound", "proposed", "linear", "phased", "mrt")

_DEFAULT_POWER_GRID = tuple(10.0 ** (0.1 * d) for d in range(-10, 11))
_DEFAULT_TIME_SAMPLES = tuple(float(t) for t in np.linspace(0.0, TIME_HORIZON, 21))


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs of the Monte Carlo sweeps; defaults reproduce the reference
    setup (antenna sweep at a 10 bit target, 20 dB power grid)."""

    realizations: int = 1000
    rng_seed: int = 0
    antenna_counts: tuple = (2, 4, 6, 8)
    power_grid: tuple = _DEFAULT_POWER_GRID
    target_rate: float = 10.0
    range_interval: tuple = (50.0, 150.0)
    range_gap: float = 20.0
    angle_interval: tuple = (0.0, math.pi)
    time_samples: tuple = _DEFAULT_TIME_SAMPLES
    baselines: tuple = SCHEMES

    def __post_init__(self):
        if self.realizations < 1:
            raise ValueError("realizations must be at least 1")
        if not self.antenna_counts or any(n < 1 for n in self.antenna_counts):
            raise ValueError("antenna_counts must be positive")
        if not (self.power_grid and _all_finite(self.power_grid)
                and all(p > 0 for p in self.power_grid)):
            raise ValueError("power_grid entries must be finite and positive")
        if not (math.isfinite(self.target_rate) and self.target_rate > 0):
            raise ValueError("target_rate must be finite and positive")
        unknown = set(self.baselines) - set(SCHEMES)
        if unknown:
            raise ValueError(f"unknown baselines: {sorted(unknown)}")
        lo, hi = self.range_interval
        if not (_all_finite(self.range_interval) and 0 < lo <= hi):
            raise ValueError("range_interval must be finite, positive and ordered")
        if not (math.isfinite(self.range_gap) and self.range_gap >= 0):
            raise ValueError("range_gap must be finite and non-negative")
        lo, hi = self.angle_interval
        if not 0.0 <= lo <= hi <= math.pi:
            raise ValueError("angle_interval must be finite, ordered and within [0, pi]")
        if not _all_finite(self.time_samples):
            raise ValueError("time_samples must be finite")


def _all_finite(values) -> bool:
    return bool(np.all(np.isfinite(np.asarray(values, dtype=float))))


@dataclass
class SweepResult:
    """Per-scheme metric matrices over one sweep axis.

    ``values[scheme]`` has shape (len(axis), realizations); infeasible
    realizations are NaN.  ``time_spread`` records the worst relative
    deviation of any scheme metric across the configured time samples.
    """

    axis_name: str
    axis: np.ndarray
    metric_name: str
    values: dict
    schemes: tuple
    time_spread: dict = field(default_factory=dict)

    def mean(self, scheme: str) -> np.ndarray:
        return _nanstat(np.nanmean, self.values[scheme])

    def percentile(self, scheme: str, q: float) -> np.ndarray:
        return _nanstat(partial(np.nanpercentile, q=q), self.values[scheme])

    def infeasible_fraction(self, scheme: str) -> np.ndarray:
        return np.mean(np.isnan(self.values[scheme]), axis=1)


@dataclass
class ConvergenceResult:
    """Mean objective per sweep of the offset optimizer, per antenna count."""

    antenna_counts: tuple
    iterations: np.ndarray
    mean_history: dict
    median_outer: dict
    outer_counts: dict


def _nanstat(fn, block: np.ndarray) -> np.ndarray:
    out = np.empty(block.shape[0])
    for i, row in enumerate(block):
        good = row[~np.isnan(row)]
        out[i] = fn(good) if good.size else math.nan
    return out


def linear_fda_plan(element_count: int, max_offset: float) -> FrequencyPlan:
    """Linearly increasing offsets ``(n / N) f_m`` for n = 1..N."""
    n = np.arange(1, element_count + 1)
    return FrequencyPlan(n / element_count * max_offset)


def phased_array_plan(element_count: int) -> FrequencyPlan:
    """All offsets zero: every element on the carrier."""
    return FrequencyPlan(np.zeros(element_count))


def sample_scenario(rng: np.random.Generator, config: ExperimentConfig,
                    element_count: int | None = None) -> Scenario:
    """Draw one random wiretap layout under the fixed RF template."""
    if element_count is None:
        element_count = config.antenna_counts[0]
    rf = RfParams(carrier_frequency=CARRIER_FREQUENCY, max_offset=MAX_OFFSET,
                  noise_power_bob=NOISE_POWER, noise_power_eve=NOISE_POWER)
    geom = ArrayGeometry(element_count=element_count, first_element_x=0.0,
                         spacing=rf.wavelength / 2.0)
    r_b = rng.uniform(*config.range_interval)
    theta = rng.uniform(*config.angle_interval)
    return Scenario(rf=rf, array=geom,
                    bob=NodePlacement(range_m=r_b, angle_rad=theta),
                    eve=NodePlacement(range_m=r_b + config.range_gap,
                                      angle_rad=theta))


def _relative_spread(values, reference: float) -> float:
    if len(values) == 0 or not math.isfinite(reference) or reference == 0.0:
        return 0.0
    return float(np.max(np.abs(np.asarray(values) - reference)) / abs(reference))


_PLAN_SCHEMES = ("proposed", "linear", "phased")
"""Schemes with a frequency plan, in the row order of :func:`_plan_stats`."""


def _plan_stats(scenario: Scenario, plan_star: FrequencyPlan,
                times: tuple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(B, E, x) of one realization from a single channel synthesis.

    Rows 0-2 are the proposed, linear-FDA and phased-array plans at the
    first time sample; row 3 + k is the proposed plan at ``times[1 + k]``.
    """
    n = scenario.array.element_count
    plans = (plan_star, linear_fda_plan(n, MAX_OFFSET), phased_array_plan(n))
    rows = len(times) - 1
    h_bob, h_eve = channel_pairs(scenario, plans + (plan_star,) * rows,
                                 (times[0],) * len(plans) + tuple(times[1:]))
    return stacked_channel_stats(h_bob, h_eve)


def _power_realization(config: ExperimentConfig, task: tuple) -> tuple:
    n, index = task
    rng = np.random.default_rng((config.rng_seed, index))
    scenario = sample_scenario(rng, config, n)
    target = SecrecyTarget(config.target_rate)
    times = config.time_samples or (0.0,)
    plan_star, _ = optimize_offsets(scenario)
    b, e, x = _plan_stats(scenario, plan_star, times)
    lam1 = lambda1_closed_form(b, e, x, target.rate)
    # Minimum power (2^R - 1) / lambda1; infinite where lambda1 <= 0.
    power = np.divide(2.0**target.rate - 1.0, lam1, out=np.full(lam1.shape, math.inf),
                      where=lam1 > 0.0)
    out = {}
    spread = {}
    if "bound" in config.baselines:
        out["bound"] = (2.0**target.rate - 1.0) / b[2]
    for k, scheme in enumerate(_PLAN_SCHEMES):
        if scheme in config.baselines:
            out[scheme] = float(power[k]) if lam1[k] > 0.0 else math.nan
    if "mrt" in config.baselines:
        p_mrt = mrt_required_power(b[0], target, g_value(scenario, plan_star))
        out["mrt"] = p_mrt if math.isfinite(p_mrt) else math.nan
    # The optimized designs depend on geometry only; confirm across time.
    if len(times) > 1:
        for scheme in ("proposed", "mrt"):
            if scheme not in config.baselines or math.isnan(out.get(scheme, math.nan)):
                continue
            if scheme == "proposed":
                samples = power[3:]
            else:
                # Scalar calls, one solve each: wrappers of
                # mrt_required_power (perfbench's tracer) count solves per call.
                samples = [mrt_required_power(b_t, target, x_t)
                           for b_t, x_t in zip(b[3:], x[3:])]
            spread[scheme] = _relative_spread(samples, out[scheme])
    return out, spread


def _rate_realization(config: ExperimentConfig, index: int) -> tuple:
    n = config.antenna_counts[0]
    rng = np.random.default_rng((config.rng_seed, index))
    scenario = sample_scenario(rng, config, n)
    times = config.time_samples or (0.0,)
    plan_star, _ = optimize_offsets(scenario)
    b, e, x = _plan_stats(scenario, plan_star, times)
    grid = np.array(config.power_grid, dtype=float)
    out = {}
    if "bound" in config.baselines:
        out["bound"] = np.log2(1.0 + grid * b[0])
    lam = lambda_delta_closed_form(b[:3, None], e[:3, None], x[:3, None], grid)
    rates = np.maximum(np.log2(lam), 0.0)
    for k, scheme in enumerate(_PLAN_SCHEMES):
        if scheme in config.baselines:
            out[scheme] = rates[k]
    if "mrt" in config.baselines:
        out["mrt"] = mrt_rate(b[0], PowerBudget(grid), x[0])
    spread = {}
    if len(times) > 1:
        p_ref = grid[-1]
        if "proposed" in out:
            samples = np.log2(lambda_delta_closed_form(b[3:], e[3:], x[3:], p_ref))
            spread["proposed"] = _relative_spread(samples, out["proposed"][-1])
        if "mrt" in out:
            samples = mrt_rate(b[3:], PowerBudget(p_ref), x[3:])
            spread["mrt"] = _relative_spread(samples, out["mrt"][-1])
    return out, spread


def _convergence_realization(config: ExperimentConfig, task: tuple) -> tuple:
    n, index = task
    rng = np.random.default_rng((config.rng_seed, index))
    scenario = sample_scenario(rng, config, n)
    _, trace = optimize_offsets(scenario)
    per_sweep = trace.objective_history[::n]
    return per_sweep, trace.outer_iterations


def _map_tasks(fn, tasks: list, workers: int) -> list:
    if workers <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        chunk = max(1, len(tasks) // (4 * workers))
        return list(pool.map(fn, tasks, chunksize=chunk))


def run_power_sweep(config: ExperimentConfig, workers: int = 1) -> SweepResult:
    """Required transmit power versus antenna count for every scheme.

    Builds no beamformer vectors: each realization synthesizes its channels
    once, reduces them to (B, E, x) per plan and time sample, and evaluates
    the closed forms on those arrays.  The time-invariance re-check of the
    proposed and MRT powers runs on the same (B, E, x) at every configured
    sample.
    """
    counts = list(config.antenna_counts)
    schemes = tuple(config.baselines)
    values = {s: np.full((len(counts), config.realizations), np.nan) for s in schemes}
    tasks = [(n, idx) for n in counts for idx in range(config.realizations)]
    results = _map_tasks(partial(_power_realization, config), tasks, workers)
    spread = {}
    for k, (row, sp) in enumerate(results):
        i, idx = divmod(k, config.realizations)
        for s in schemes:
            if s in row:
                values[s][i, idx] = row[s]
        for s, v in sp.items():
            spread[s] = max(spread.get(s, 0.0), v)
    return SweepResult(axis_name="element_count", axis=np.array(counts, dtype=float),
                       metric_name="power_w", values=values, schemes=schemes,
                       time_spread=spread)


def run_rate_sweep(config: ExperimentConfig, workers: int = 1) -> SweepResult:
    """Achievable secrecy rate versus transmit power for every scheme.

    Builds no beamformer vectors: the closed forms run on (B, E, x) arrays
    over the whole power grid, and the time-invariance re-check of the
    proposed and MRT rates at the largest power uses (B, E, x) at every
    configured sample.
    """
    grid = np.array(config.power_grid, dtype=float)
    schemes = tuple(config.baselines)
    values = {s: np.full((len(grid), config.realizations), np.nan) for s in schemes}
    tasks = list(range(config.realizations))
    results = _map_tasks(partial(_rate_realization, config), tasks, workers)
    spread = {}
    for idx, (row, sp) in zip(tasks, results):
        for s in schemes:
            if s in row:
                values[s][:, idx] = row[s]
        for s, v in sp.items():
            spread[s] = max(spread.get(s, 0.0), v)
    return SweepResult(axis_name="power_w", axis=grid, metric_name="rate_bits",
                       values=values, schemes=schemes, time_spread=spread)


def run_convergence_study(config: ExperimentConfig, workers: int = 1) -> ConvergenceResult:
    """Mean coupling after each optimizer sweep, per antenna count."""
    counts = tuple(config.antenna_counts)
    reps = config.realizations
    tasks = [(n, idx) for n in counts for idx in range(reps)]
    results = _map_tasks(partial(_convergence_realization, config), tasks, workers)
    mean_history = {}
    median_outer = {}
    outer_counts = {}
    longest = 1
    for i, n in enumerate(counts):
        block = results[i * reps:(i + 1) * reps]
        histories = [r[0] for r in block]
        outers = np.array([r[1] for r in block], dtype=float)
        depth = max(len(h) for h in histories)
        padded = np.array([h + [h[-1]] * (depth - len(h)) for h in histories])
        mean_history[n] = padded.mean(axis=0)
        median_outer[n] = float(np.median(outers))
        outer_counts[n] = outers
        longest = max(longest, depth)
    return ConvergenceResult(antenna_counts=counts,
                             iterations=np.arange(longest, dtype=float),
                             mean_history=mean_history,
                             median_outer=median_outer,
                             outer_counts=outer_counts)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_sweep_csv(result: SweepResult, path) -> None:
    """One row per (axis value, scheme) with mean, 5/95 percentiles and the
    infeasible fraction; floats carry 17 significant digits."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["axis", "scheme", "mean_metric", "p05", "p95",
                         "infeasible_fraction"])
        stats = {s: (result.mean(s), result.percentile(s, 5.0),
                     result.percentile(s, 95.0), result.infeasible_fraction(s))
                 for s in result.schemes}
        for i, x in enumerate(result.axis):
            for s in result.schemes:
                mean, p05, p95, frac = stats[s]
                writer.writerow([_fmt(x), s, _fmt(mean[i]), _fmt(p05[i]),
                                 _fmt(p95[i]), _fmt(frac[i])])


def write_convergence_csv(result: ConvergenceResult, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "element_count", "mean_g"])
        for n in result.antenna_counts:
            for i, g in enumerate(result.mean_history[n]):
                writer.writerow([i, n, _fmt(g)])


def write_trace_csv(history, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "g"])
        for i, g in enumerate(history):
            writer.writerow([i, _fmt(g)])
