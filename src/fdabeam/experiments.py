"""Monte Carlo harness: baseline frequency plans, random scenario sampling
and the power/rate/convergence sweeps behind the CLI.

Scenarios follow a fixed template: carrier 2.4 GHz, offset budget 3 MHz,
-100 dBm noise at both receivers, half-wavelength spacing with the first
element at the origin.  Bob's range is drawn uniformly, Eve sits a fixed
gap behind Bob on the same bearing, and the shared angle is drawn uniformly
as well.  Per-realization RNG substreams derive from (seed, realization
index), so results do not depend on how realizations are distributed over
workers.

A power or rate sweep runs in two stages.  Each task (one realization)
samples its layout and descends to the proposed plan (:func:`_draw`), and
returns the element distances and the optimized offsets.  :func:`_sweep`
then takes the realizations of one antenna count at a time, in blocks of
bounded size: one channel synthesis over (R, K, N), one (B, E, x)
reduction, and the closed forms and time re-checks on (R, K) arrays give
all five schemes.  Every entry is computed as the per-realization pipeline
computes it, so the results do not depend on the block size or on how the
tasks are spread over workers.  :func:`_sweep` places the results and
keeps the ``baselines`` schemes.
"""

from __future__ import annotations

import csv
import math
import os
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
    _channels,
    _is_int,
)

CARRIER_FREQUENCY = 2.4e9
MAX_OFFSET = 3e6
NOISE_POWER = 1e-13
TIME_HORIZON = 20e-6

SCHEMES = ("bound", "proposed", "linear", "phased", "mrt")

_RF = RfParams(carrier_frequency=CARRIER_FREQUENCY, max_offset=MAX_OFFSET,
               noise_power_bob=NOISE_POWER, noise_power_eve=NOISE_POWER)

_BLOCK_ENTRIES = 1 << 16
"""Channel entries (realization, row, element) per receiver that the sweep
stage synthesizes at once; bounds its memory at any N and realization
count."""

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
        return _nanstat(np.mean, self.values[scheme])

    def percentile(self, scheme: str, q: float) -> np.ndarray:
        return _nanstat(partial(np.percentile, q=q), self.values[scheme])

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
    rows = (row[~np.isnan(row)] for row in block)
    return np.array([fn(good) if good.size else math.nan for good in rows], dtype=float)


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
    geom = ArrayGeometry(element_count=element_count, first_element_x=0.0,
                         spacing=_RF.wavelength / 2.0)
    r_b = rng.uniform(*config.range_interval)
    theta = rng.uniform(*config.angle_interval)
    return Scenario(rf=_RF, array=geom,
                    bob=NodePlacement(range_m=r_b, angle_rad=theta),
                    eve=NodePlacement(range_m=r_b + config.range_gap,
                                      angle_rad=theta))


def _draw(config: ExperimentConfig, n: int, index: int) -> tuple:
    """Realization ``index`` at ``n`` elements: its scenario from the
    (seed, index) substream, the optimized plan and the descent trace."""
    rng = np.random.default_rng((config.rng_seed, index))
    scenario = sample_scenario(rng, config, n)
    return scenario, *optimize_offsets(scenario)


def _descended(config: ExperimentConfig, n: int, index: int) -> tuple:
    """Bob's and Eve's (N,) element distances and the (N,) optimized offsets
    of realization ``index`` at ``n`` elements: what the sweep stage needs."""
    scenario, plan_star, _ = _draw(config, n, index)
    return scenario.bob_distances, scenario.eve_distances, plan_star.offsets


def _power_realization(config: ExperimentConfig, task: tuple) -> tuple:
    """Power task ``(n, index)`` up to and including the descent."""
    return _descended(config, *task)


def _rate_realization(config: ExperimentConfig, index: int) -> tuple:
    """Rate task ``index`` (at ``antenna_counts[0]`` elements) up to and
    including the descent."""
    return _descended(config, config.antenna_counts[0], index)


def _blocks(results: list, reps: int, rows: int):
    """(R, N) stacks of the bob distances, eve distances and offsets of the
    task results, one antenna count (``reps`` results) at a time and at most
    :data:`_BLOCK_ENTRIES` channel entries of ``rows`` rows each per block."""
    for first in range(0, len(results), reps):
        count = results[first:first + reps]
        size = max(1, _BLOCK_ENTRIES // (rows * count[0][2].shape[0]))
        for lo in range(0, reps, size):
            yield tuple(np.array(a) for a in zip(*count[lo:lo + size]))


def _block_stats(bob: np.ndarray, eve: np.ndarray, offsets: np.ndarray,
                 times: tuple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(B, E, x) of R realizations, each (R, K), from one channel synthesis.

    Rows 0-2 are the proposed, linear-FDA and phased-array plans at the
    first time sample; row 3 + k is the proposed plan at ``times[1 + k]``.
    """
    n = offsets.shape[1]
    plans = np.repeat(offsets[:, None], len(times) + 2, axis=1)
    plans[:, 1] = linear_fda_plan(n, MAX_OFFSET).offsets
    plans[:, 2] = phased_array_plan(n).offsets
    h_bob, h_eve = _channels(_RF, bob, eve, plans, (times[0],) * 3 + tuple(times[1:]))
    return stacked_channel_stats(h_bob, h_eve)


def _power_metrics(config: ExperimentConfig, b, e, x) -> tuple:
    """Required power (R, 5) of every scheme in :data:`SCHEMES` order (NaN
    where infeasible) from (R, K) stats, and the proposed and MRT re-checks:
    scheme -> ((R,) first-sample powers, (R, K - 3) later powers)."""
    rate = config.target_rate
    lam1 = lambda1_closed_form(b, e, x, rate)
    # Minimum power (2^R - 1) / lambda1; infinite where lambda1 <= 0.
    excess = 2.0**rate - 1.0
    power = np.divide(excess, lam1, out=np.full(lam1.shape, math.inf), where=lam1 > 0.0)
    # MRT under the proposed plan.  Scalar calls, one solve each: wrappers
    # of mrt_required_power (perfbench's tracer) count solves per call.
    p_mrt = [mrt_required_power(b_r, rate, x_r)
             for b_r, x_r in zip(b[:, 0].tolist(), x[:, 0].tolist())]
    table = np.column_stack([excess / b[:, 2], power[:, :3], p_mrt])
    table[~np.isfinite(table)] = math.nan  # infeasible
    # The optimized designs depend on geometry only; confirm across time,
    # re-solving MRT only where it is feasible.
    mrt_later = np.full(b[:, 3:].shape, math.nan)
    for r in np.flatnonzero(~np.isnan(table[:, 4])):
        mrt_later[r] = [mrt_required_power(b_t, rate, x_t)
                        for b_t, x_t in zip(b[r, 3:].tolist(), x[r, 3:].tolist())]
    return table, {"proposed": (table[:, 1], power[:, 3:]),
                   "mrt": (table[:, 4], mrt_later)}


def _rate_metrics(config: ExperimentConfig, b, e, x) -> tuple:
    """Secrecy rate (R, 5, G) of every scheme in :data:`SCHEMES` order over
    the power grid from (R, K) stats, and the proposed and MRT re-checks at
    the largest grid power: scheme -> ((R,) first-sample rates, (R, K - 3)
    later rates)."""
    grid = np.array(config.power_grid, dtype=float)
    # (R, G, 4): the bound (the proposed row at zero coupling, where
    # lambda_delta is exactly 1 + P B), then the proposed, linear and phased
    # rows; C order names the first failing realization's first failing power.
    stats = np.stack([b, e, x])[:, :, None, [0, 0, 1, 2]]
    stats[2, :, :, 0] = 0.0
    lam = lambda_delta_closed_form(*stats, grid[:, None])
    rates = np.concatenate([np.maximum(np.log2(lam), 0.0).swapaxes(1, 2),
                            mrt_rate(b[:, :1], grid, x[:, :1])[:, None]], axis=1)
    top = int(np.argmax(grid))
    p_top = grid[top]
    return rates, {
        "proposed": (rates[:, 1, top], np.log2(
            lambda_delta_closed_form(b[:, 3:], e[:, 3:], x[:, 3:], p_top))),
        "mrt": (rates[:, 4, top], mrt_rate(b[:, 3:], p_top, x[:, 3:])),
    }


def _fold_spreads(spread: dict, checks: dict) -> None:
    """Fold one block's time re-checks into ``spread``.

    ``checks`` maps a scheme to its (R,) first-sample values and (R, T - 1)
    later values.  A realization whose first value is NaN (infeasible) is
    not re-checked.  A re-checked one deviates by the worst ``|later -
    first| / |first|`` (0 where the first value is 0).  ``spread[scheme]``
    is the running maximum over realizations in task order, which a NaN
    deviation never raises; a scheme enters ``spread`` at its first
    re-checked realization.
    """
    found = {}
    for scheme, (first, later) in checks.items():
        rows = np.flatnonzero(~np.isnan(first))
        if rows.size:
            ref = first[rows]
            worst = np.max(np.abs(later[rows] - ref[:, None]), axis=1)
            rel = np.divide(worst, np.abs(ref), out=np.zeros_like(worst), where=ref != 0.0)
            found[scheme] = rows[0], rel.tolist()
    for scheme in sorted(found, key=lambda s: found[s][0]):
        spread[scheme] = max(spread.get(scheme, 0.0), *found[scheme][1])


def _convergence_realization(config: ExperimentConfig, task: tuple) -> tuple:
    n, index = task
    _, _, trace = _draw(config, n, index)
    return trace.objective_history[::n], trace.outer_iterations


def _map_tasks(fn, tasks: list, workers: int) -> list:
    # At most one worker per task and per CPU: a fork pool starts them all.
    workers = min(workers, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        chunk = max(1, len(tasks) // (4 * workers))
        return list(pool.map(fn, tasks, chunksize=chunk))


def _sweep(config: ExperimentConfig, realization, metrics, tasks: list,
           axis_name: str, axis: np.ndarray, workers: int) -> SweepResult:
    """Run ``realization`` (draw and descent) on every task, then ``metrics``
    on each block of :func:`_blocks`; place the metrics of all
    :data:`SCHEMES` (a value, or one per power) and keep the
    ``config.baselines`` ones, the only reader of that field.  Power task k
    fills row ``k // realizations``; rate columns are the transpose.
    """
    results = _map_tasks(partial(realization, config), tasks, workers)
    reps = config.realizations
    times = config.time_samples or (0.0,)
    tables, spread = [], {}
    for bob, eve, offsets in _blocks(results, reps, len(times) + 2):
        table, checks = metrics(config, *_block_stats(bob, eve, offsets, times))
        tables.append(table)
        if len(times) > 1:
            _fold_spreads(spread, checks)
    table = np.concatenate(tables).reshape(len(tasks) // reps, reps, len(SCHEMES), -1)
    schemes = tuple(config.baselines)
    return SweepResult(
        axis_name=axis_name, axis=axis, schemes=schemes,
        # (row, realization, point) -> (row * point, realization)
        values={s: table[:, :, SCHEMES.index(s)].swapaxes(1, 2).reshape(-1, reps)
                for s in schemes},
        time_spread={s: v for s, v in spread.items() if s in schemes})


def run_power_sweep(config: ExperimentConfig, workers: int = 1) -> SweepResult:
    """Required transmit power versus antenna count for every scheme.

    One task per (count, realization) draws and descends; the closed forms
    then run on all realizations of a count at once.  The MRT time re-check
    runs only where MRT is feasible.  A 2^R E so large that lambda1
    overflows raises :class:`OverflowError`.
    """
    counts = list(config.antenna_counts)
    tasks = [(n, idx) for n in counts for idx in range(config.realizations)]
    return _sweep(config, _power_realization, _power_metrics, tasks, "element_count",
                  np.array(counts, dtype=float), workers)


def run_rate_sweep(config: ExperimentConfig, workers: int = 1) -> SweepResult:
    """Achievable secrecy rate versus transmit power for every scheme.

    One task per realization at ``antenna_counts[0]`` elements draws and
    descends; the closed forms then run on all realizations and every power
    of the grid at once.  The time re-check runs at the largest power.  A
    power at which lambda_delta overflows, the bound's included, raises
    :class:`OverflowError`.
    """
    grid = np.array(config.power_grid, dtype=float)
    return _sweep(config, _rate_realization, _rate_metrics, list(range(config.realizations)),
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
