"""Monte Carlo harness: baseline frequency plans, random scenario sampling
and the power/rate/convergence sweeps behind the CLI.

Scenarios follow a fixed template: carrier 2.4 GHz, offset budget 3 MHz,
-100 dBm noise at both receivers, half-wavelength spacing with the first
element at the origin.  Bob's range is drawn uniformly, Eve sits a fixed
gap behind Bob on the same bearing, and the shared angle is drawn uniformly
as well.  Per-realization RNG substreams derive from (seed, realization
index), so results do not depend on how realizations are distributed over
workers.

Every sweep realization runs one pipeline: :func:`_draw` samples it and
descends to the proposed plan, one channel synthesis gives (B, E, x), the
closed forms give all five schemes, and :func:`_sweep` places the results
and keeps the ``baselines`` schemes.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .beamforming import (
    lambda1_closed_form,
    lambda_delta_closed_form,
    mrt_rate,
    mrt_required_power,
    stacked_channel_stats,
)
from .coupling import optimize_offsets
from .scenario import (
    ArrayGeometry,
    FrequencyPlan,
    NodePlacement,
    RfParams,
    Scenario,
    _is_int,
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
        if not _is_int(self.realizations) or self.realizations < 1:
            raise ValueError("realizations must be an integer of at least 1")
        if not _is_int(self.rng_seed) or self.rng_seed < 0:
            raise ValueError("rng_seed must be a non-negative integer")
        if not self.antenna_counts or not all(_is_int(n) and n >= 1
                                              for n in self.antenna_counts):
            raise ValueError("antenna_counts must be positive integers")
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

    ``values[scheme]`` has shape (len(axis), realizations) for each of
    ``schemes`` (the config's baselines); infeasible realizations are NaN.
    ``time_spread`` records the worst relative deviation of the proposed and
    MRT metrics across the configured time samples.
    """

    axis_name: str
    axis: np.ndarray
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
                    element_count: int) -> Scenario:
    """Draw one random wiretap layout under the fixed RF template."""
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


def _draw(config: ExperimentConfig, n: int, index: int) -> tuple:
    """Realization ``index`` at ``n`` elements: its scenario from the
    (seed, index) substream, the optimized plan and the descent trace."""
    rng = np.random.default_rng((config.rng_seed, index))
    scenario = sample_scenario(rng, config, n)
    return scenario, *optimize_offsets(scenario)


def _spreads(times: tuple, checks: dict) -> dict:
    """Worst relative deviation of each metric over the later time samples.

    ``checks`` maps a scheme to (first-sample value, callable giving the
    later values); a NaN (infeasible) value is not re-checked at all.
    """
    spread = {}
    for scheme, (reference, later) in checks.items():
        if len(times) > 1 and not math.isnan(reference):
            deviation = np.max(np.abs(np.asarray(later()) - reference))
            spread[scheme] = float(deviation / abs(reference)) if reference else 0.0
    return spread


def _power_realization(config: ExperimentConfig, task: tuple) -> tuple:
    """Required power of every scheme in :data:`SCHEMES` order (NaN where
    infeasible) and the time spreads of the proposed and MRT powers."""
    n, index = task
    scenario, plan_star, _ = _draw(config, n, index)
    rate = config.target_rate
    times = config.time_samples or (0.0,)
    b, e, x = _plan_stats(scenario, plan_star, times)
    lam1 = lambda1_closed_form(b, e, x, rate)
    if not np.isfinite(lam1).all():  # lambda1 >= 0: its max is the inf or NaN
        raise OverflowError(f"lambda1 is {lam1.max()} at a {rate:g}-bit target")
    # Minimum power (2^R - 1) / lambda1; infinite where lambda1 <= 0.
    excess = 2.0**rate - 1.0
    power = np.divide(excess, lam1, out=np.full(lam1.shape, math.inf), where=lam1 > 0.0)
    p_mrt = mrt_required_power(b[0], rate, x[0])  # MRT under the proposed plan
    row = np.array([excess / b[2], *power[:3], p_mrt])
    row[~np.isfinite(row)] = math.nan  # infeasible
    # The optimized designs depend on geometry only; confirm across time.
    # Scalar MRT calls, one solve each: wrappers of mrt_required_power
    # (perfbench's tracer) count solves per call.
    spread = _spreads(times, {
        "proposed": (row[1], lambda: power[3:]),
        "mrt": (row[4], lambda: [mrt_required_power(b_t, rate, x_t)
                                 for b_t, x_t in zip(b[3:], x[3:])]),
    })
    return row, spread


def _rate_realization(config: ExperimentConfig, index: int) -> tuple:
    """Secrecy rate of every scheme in :data:`SCHEMES` order over the power
    grid, and the time spreads of the proposed and MRT rates at its top."""
    scenario, plan_star, _ = _draw(config, config.antenna_counts[0], index)
    times = config.time_samples or (0.0,)
    b, e, x = _plan_stats(scenario, plan_star, times)
    grid = np.array(config.power_grid, dtype=float)
    with np.errstate(over="ignore"):
        free = 1.0 + grid * b[0]
    lam = lambda_delta_closed_form(b[:3, None], e[:3, None], x[:3, None], grid)
    finite = np.isfinite(free) & np.isfinite(lam).all(axis=0)
    if not finite.all():
        raise OverflowError(f"lambda_delta or the bound is not finite at a "
                            f"{grid[~finite][0]:g} W budget")
    rates = np.vstack([np.log2(free), np.maximum(np.log2(lam), 0.0),
                       mrt_rate(b[0], grid, x[0])])
    p_ref = grid[-1]
    spread = _spreads(times, {
        "proposed": (rates[1, -1], lambda: np.log2(
            lambda_delta_closed_form(b[3:], e[3:], x[3:], p_ref))),
        "mrt": (rates[4, -1], lambda: mrt_rate(b[3:], p_ref, x[3:])),
    })
    return rates, spread


def _convergence_realization(config: ExperimentConfig, task: tuple) -> tuple:
    n, index = task
    _, _, trace = _draw(config, n, index)
    return trace.objective_history[::n], trace.outer_iterations


def _map_tasks(fn, tasks: list, workers: int) -> list:
    if workers <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        chunk = max(1, len(tasks) // (4 * workers))
        return list(pool.map(fn, tasks, chunksize=chunk))


def _sweep(config: ExperimentConfig, realization, tasks: list, axis_name: str,
           axis: np.ndarray, workers: int) -> SweepResult:
    """Run ``realization`` on every task, place the metrics of all
    :data:`SCHEMES` it returns (a value, or one per power) and keep the
    ``config.baselines`` ones, the only reader of that field.  Power task k
    fills row ``k // realizations``; rate columns are the transpose.
    """
    results = _map_tasks(partial(realization, config), tasks, workers)
    reps = config.realizations
    table = np.array([m for m, _ in results])
    table = table.reshape(len(tasks) // reps, reps, len(SCHEMES), -1)
    spread = {}
    for _, sp in results:
        for s, v in sp.items():
            spread[s] = max(spread.get(s, 0.0), v)
    schemes = tuple(config.baselines)
    return SweepResult(
        axis_name=axis_name, axis=axis, schemes=schemes,
        # (row, realization, point) -> (row * point, realization)
        values={s: table[:, :, SCHEMES.index(s)].swapaxes(1, 2).reshape(-1, reps)
                for s in schemes},
        time_spread={s: v for s, v in spread.items() if s in schemes})


def run_power_sweep(config: ExperimentConfig, workers: int = 1) -> SweepResult:
    """Required transmit power versus antenna count for every scheme.

    One task per (count, realization) through the shared pipeline; the MRT
    time re-check runs only where MRT is feasible.  A 2^R E so large that
    lambda1 overflows raises :class:`OverflowError`.
    """
    counts = list(config.antenna_counts)
    tasks = [(n, idx) for n in counts for idx in range(config.realizations)]
    return _sweep(config, _power_realization, tasks, "element_count",
                  np.array(counts, dtype=float), workers)


def run_rate_sweep(config: ExperimentConfig, workers: int = 1) -> SweepResult:
    """Achievable secrecy rate versus transmit power for every scheme.

    One task per realization at ``antenna_counts[0]`` elements through the
    shared pipeline, every power of the grid at once; the time re-check runs
    at the largest power.  A power at which lambda_delta or the bound
    overflows raises :class:`OverflowError`.
    """
    grid = np.array(config.power_grid, dtype=float)
    return _sweep(config, _rate_realization, list(range(config.realizations)),
                  "power_w", grid, workers)


def run_convergence_study(config: ExperimentConfig, workers: int = 1) -> ConvergenceResult:
    """Mean coupling after each optimizer sweep, per antenna count."""
    counts = tuple(config.antenna_counts)
    reps = config.realizations
    tasks = [(n, idx) for n in counts for idx in range(reps)]
    results = _map_tasks(partial(_convergence_realization, config), tasks, workers)
    mean_history = {}
    median_outer = {}
    outer_counts = {}
    for i, n in enumerate(counts):
        block = results[i * reps:(i + 1) * reps]
        histories = [r[0] for r in block]
        outers = np.array([r[1] for r in block], dtype=float)
        depth = max(len(h) for h in histories)
        padded = np.array([h + [h[-1]] * (depth - len(h)) for h in histories])
        mean_history[n] = padded.mean(axis=0)
        median_outer[n] = float(np.median(outers))
        outer_counts[n] = outers
    return ConvergenceResult(antenna_counts=counts,
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
