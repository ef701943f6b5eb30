"""Monte Carlo harness: baseline frequency plans, random scenario sampling
and the power/rate/convergence sweeps behind the CLI.

Scenarios follow a fixed template: carrier 2.4 GHz, offset budget 3 MHz,
-100 dBm noise at both receivers, half-wavelength spacing with the first
element at the origin.  Bob's range is drawn uniformly, Eve sits a fixed
gap behind Bob on the same bearing, and the shared angle is drawn uniformly
as well.  Per-realization RNG substreams derive from (seed, realization
index), so results do not depend on how realizations are distributed over
workers.  Each substream is numpy's ``default_rng((seed, index))`` stream,
computed without importing ``numpy.random`` (which would cost about 14 ms
and 6 MB of peak RSS with numpy 2.4.6 on a 2-vCPU Xeon VM).  The sweeps'
one draw call, :func:`_substream_units`, returns every realization's unit
floats as one array, all indices at once: numpy's ``SeedSequence`` hash
(:func:`_seed_words`), then PCG64's states as one uint64 matmul
(:func:`_pcg_terms`), one code path at every realization count.

Every sweep starts in the calling process.  :func:`_stacks` draws each
realization index once, scales its two unit floats to Bob's range and the
shared angle as :func:`sample_scenario` does, and every antenna count
shares that draw.  For each count it then computes Bob's and Eve's element
distances, omega and alpha of all R layouts as (R, N) arrays, through the
expressions and checks that a :class:`Scenario` runs (``scenario._layouts``,
whose one-layout call a scenario makes), and raises the error of the first
failing (count, index) task.  Each task, one (count, index) pair or one
index, descends one realization (:func:`optimize_offsets`) on a scenario
assembled from its stack's rows, which computes and checks nothing again.

A power or rate sweep then takes its task rows in order, in blocks of
bounded size (:func:`_blocks`) that may span several antenna counts or
hold part of one: the distances come from the stacks and the offsets from
the tasks.  Each count in a block gets one channel synthesis over
(R, K, N) and one (B, E, x) reduction; one call of the closed forms and
time re-checks on the block's (R, K) rows then gives all five schemes.
Every entry is computed as the per-realization pipeline computes it, so
the results do not depend on the block size or on how the tasks are
spread over workers.
:func:`_sweep` places the results and keeps the ``baselines`` schemes.

The tasks run in a fork pool only when it pays: a worker count is an
upper bound, and :func:`_map_tasks` starts a pool only when every worker
gets at least :data:`_TASKS_PER_WORKER` tasks and a CPU of its own.  A
smaller sweep, 1000 realizations at one antenna count among them, runs in
the calling process, where a pool's start costs more than it saves.
"""

from __future__ import annotations

import csv
import io
import math
import operator
import os
from dataclasses import dataclass, field
from functools import cache, partial

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
    _check_times,
    _is_int,
    _layouts,
    _position,
)

CARRIER_FREQUENCY = 2.4e9
MAX_OFFSET = 3e6
NOISE_POWER = 1e-13
TIME_HORIZON = 20e-6

SCHEMES = ("bound", "proposed", "linear", "phased", "mrt")

_RF = RfParams(carrier_frequency=CARRIER_FREQUENCY, max_offset=MAX_OFFSET,
               noise_power_bob=NOISE_POWER, noise_power_eve=NOISE_POWER)

_BLOCK_ENTRIES = 1 << 16
"""Channel entries (realization, row, element) per receiver in one block of
the sweep stage, summed over the antenna counts it spans; bounds its memory
at any N and realization count.  A block holds more only where one
realization alone does."""

_TASKS_PER_WORKER = 1000
"""Tasks each pool worker must get before :func:`_map_tasks` starts a pool,
so a sweep of fewer than ``2 * _TASKS_PER_WORKER`` tasks runs in the
calling process.  2000 tasks is the smallest count measured at which two
workers tie or beat one on all three sweeps; a task is one descent, and the
draws, stacks and array stage run in the calling process either way.
In-process ``cli.main`` times in ms, ``-j 1`` / ``-j 2`` (medians of 41
alternating calls, 2 vCPUs; ``sweep-rate`` at N = 2 with one task per
realization, the other two at N = 2, 4, 6, 8 with one per realization and
count)::

    tasks          300     400     600     1000     2000     4000
    sweep-rate    25/47   50/58   68/75   99/107  173/178  404/350
    sweep-power   31/55   56/61   79/82  121/118  264/231  387/363
    convergence   27/31   32/36   46/44   78/69   181/124  283/215

``-j 2`` won 25, 34 and 41 of the 41 pairs at 2000 tasks, and 13, 27 and
30 at 1000; a second run gave 29, 35 and 39 at 2000, and 2, 0 and 29 at
1000.
"""

_DEFAULT_POWER_GRID = tuple(10.0 ** (0.1 * d) for d in range(-10, 11))
_DEFAULT_TIME_SAMPLES = tuple(float(t) for t in np.linspace(0.0, TIME_HORIZON, 21))
_SEQUENCE_FIELDS = ("antenna_counts", "power_grid", "range_interval", "angle_interval",
                    "time_samples", "baselines")


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
        # a scalar or a string would be iterated as something else by the
        # checks below and the sweeps, and an array's truth value is ambiguous
        for name in _SEQUENCE_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, (tuple, list)):
                raise ValueError(f"{name} must be a tuple or list, not {type(value).__name__}")
        for name in ("range_interval", "angle_interval"):
            if len(getattr(self, name)) != 2:
                raise ValueError(f"{name} must hold two values (lower, upper)")
        # a realization index is one SeedSequence entropy word (_substream_units)
        if not _is_int(self.realizations) or not 1 <= self.realizations <= 1 << 32:
            raise ValueError("realizations must be an integer from 1 to 2**32")
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
        if not self.baselines or len(set(self.baselines)) != len(self.baselines):
            raise ValueError("baselines must name at least one scheme, each once")
        lo, hi = self.range_interval
        if not (_all_finite(self.range_interval) and 0 < lo <= hi):
            raise ValueError("range_interval must be finite, positive and ordered")
        if not (math.isfinite(self.range_gap) and self.range_gap >= 0):
            raise ValueError("range_gap must be finite and non-negative")
        lo, hi = self.angle_interval
        if not 0.0 <= lo <= hi <= math.pi:
            raise ValueError("angle_interval must be finite, ordered and within [0, pi]")
        _check_times(_RF, np.asarray(self.time_samples, dtype=float), "time_samples")


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

    axis: np.ndarray
    values: dict
    schemes: tuple
    time_spread: dict = field(default_factory=dict)


@dataclass
class ConvergenceResult:
    """Mean objective per sweep of the offset optimizer, per antenna count."""

    antenna_counts: tuple
    mean_history: dict
    outer_counts: dict


def _row_stats(block: np.ndarray) -> np.ndarray:
    """Mean, p05, p95 and NaN fraction of each row, as a (4, rows) array;
    the first three are those of the row's non-NaN entries, NaN for an
    all-NaN row.  The entries are packed to the front in their order, so one
    mean and one percentile call per distinct count give each row's per-row
    values, and each row is partitioned once for both quantiles."""
    nan = np.isnan(block)
    packed = np.take_along_axis(block, np.argsort(nan, axis=1, kind="stable"), axis=1)
    counts = block.shape[1] - nan.sum(axis=1)
    out = np.full((4, len(block)), math.nan)
    for k in np.unique(counts[counts > 0]):
        rows = np.flatnonzero(counts == k)
        good = packed[rows, :k]
        out[0, rows] = np.mean(good, axis=1)
        out[1:3, rows] = np.percentile(good, (5.0, 95.0), axis=1)
    out[3] = np.mean(nan, axis=1)
    return out


def linear_fda_plan(element_count: int, max_offset: float) -> FrequencyPlan:
    """Linearly increasing offsets ``(n / N) f_m`` for n = 1..N."""
    n = np.arange(1, element_count + 1)
    return FrequencyPlan(n / element_count * max_offset)


def phased_array_plan(element_count: int) -> FrequencyPlan:
    """All offsets zero: every element on the carrier."""
    return FrequencyPlan(np.zeros(element_count))


_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_HASH_MULT_A = 0x931E8875  # SeedSequence's pool hash
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715


def _hash_keys(const: int, mult: int, count: int) -> tuple[list, int]:
    """The (xor, multiply) pairs of ``count`` SeedSequence hash steps from
    hash constant ``const``, and the constant after them."""
    keys = []
    for _ in range(count):
        following = const * mult & _MASK32
        keys.append((const, following))
        const = following
    return keys, const


# The first 16 pool hashes of any entropy: one per pool word, then one per
# ordered pair of distinct pool words.
_POOL_KEYS, _TAIL_CONST = _hash_keys(0x43B0D7E5, _HASH_MULT_A, 16)
_FILL_KEYS = _POOL_KEYS[:4]
_MIX_STEPS = tuple((src, dst, *key) for (src, dst), key in zip(
    [(src, dst) for src in range(4) for dst in range(4) if src != dst], _POOL_KEYS[4:]))
_STATE_KEYS = tuple((i % 4, *key) for i, key in
                    enumerate(_hash_keys(0x8B51F9DD, 0x58F38DED, 8)[0]))


def _entropy_words(*entropy) -> list:
    """The 32-bit words, low word first, into which ``SeedSequence`` splits
    a tuple of non-negative integers."""
    words = []
    for value in entropy:
        # numpy accepts any integer (Python or numpy) and rejects floats
        # and negatives; a negative value would never shift down to 0.
        value = operator.index(value)
        if value < 0:
            raise ValueError("substream entropy must be non-negative integers")
        words.append(value & _MASK32)
        while value := value >> 32:
            words.append(value & _MASK32)
    return words


def _seed_words(words: list) -> list:
    """The 8 words of ``SeedSequence(entropy).generate_state(8, np.uint32)``
    for the 32-bit entropy words ``words`` (:func:`_entropy_words`), the low
    32 bits of each kept: a 4-word pool filled, mixed, mixed with each word
    past the pool, and hashed out, as numpy does it.

    Each word is a Python int or a uint64 array of words over realization
    indices, and the same steps run on both: on arrays, every output word
    is an array over those indices.  :func:`_substream_units` passes its
    index as the int 0 for a single realization, where the int steps cost a
    fraction of the array calls, and as an array otherwise.  Every Python
    int that meets an array (a word, a hash key, a mix multiplier or such a
    multiplier times a word) is non-negative and below 2**64, so under
    NEP 50 promotion the result stays a uint64 array and no numpy scalar
    arises; uint64 array arithmetic wraps silently, so no ``np.errstate``
    is needed.
    """
    pool = []
    for value, (xor, mult) in zip(words + [0] * 4, _FILL_KEYS):
        value = (value ^ xor) * mult & _MASK32
        pool.append(value ^ value >> 16)
    for src, dst, xor, mult in _MIX_STEPS:
        value = (pool[src] ^ xor) * mult & _MASK32
        value = (_MIX_MULT_L * pool[dst] - _MIX_MULT_R * (value ^ value >> 16)) & _MASK32
        pool[dst] = value ^ value >> 16
    const = _TAIL_CONST
    for word in words[4:]:  # entropy past the pool mixes into every word
        for dst in range(4):
            value = word ^ const
            const = const * _HASH_MULT_A & _MASK32
            value = value * const & _MASK32
            value = (_MIX_MULT_L * pool[dst] - _MIX_MULT_R * (value ^ value >> 16)) & _MASK32
            pool[dst] = value ^ value >> 16
    out = []
    for src, xor, mult in _STATE_KEYS:
        value = (pool[src] ^ xor) * mult & _MASK32
        out.append(value ^ value >> 16)
    return out


_ARRAY_CHUNK = 1 << 12
"""Indices that :func:`_substream_units` computes at once; bounds its
(16, indices) uint64 array of half-words at 512 kB."""

_HALF_SHIFTS = np.array([[0], [16]], dtype=np.uint64)
"""Shifts that split a (8, 1, indices) array of 32-bit words into its
(8, 2, indices) 16-bit halves, low half first."""


@cache
def _pcg_terms(draws: int) -> tuple[np.ndarray, np.ndarray]:
    """PCG64's state at each of its first ``draws`` draws, as ``sum_k
    half[k] * c[d, k] + s[d]`` modulo 2**128 over the 16 half-words of the
    8 words ``out`` of :func:`_seed_words` (half ``2 w + h`` is bits ``16
    h`` to ``16 h + 15`` of ``out[w]``).  Each coefficient is given in four
    parts, its low 64 bits, its bits 0-31, its bits 32-63 and its high 64
    bits: ``g`` (draws, 4, 16) and ``s`` (draws, 4, 1).  The two 64-bit
    halves of the state are only needed modulo 2**64, where uint64 wraps; a
    half times a 32-bit part is below 2**48, so the 16 products of each of
    those two parts sum exactly, which gives the carry from the low half
    into the high one.  :func:`_substream_units`, the only PCG64 stepper,
    runs it on arrays.

    Seeding leaves the state at ``M seed + (1 + M) inc``, so draw d reads
    ``M**(d + 2) seed + (1 + M + ... + M**(d + 2)) inc``; ``seed`` holds
    words 2, 3, 0 and 1 and ``inc`` is twice words 6, 7, 4 and 5 plus one,
    low 32 bits first.  Cached: the 128-bit products take about 30 us at
    two draws."""
    def parts(value):
        return [value & _MASK64, value & _MASK32, value >> 32 & _MASK32, value >> 64]

    g, s = [], []
    power, total = _PCG64_MULT, 1 + _PCG64_MULT
    for _ in range(draws):
        power = power * _PCG64_MULT & _MASK128
        total = (total + power) & _MASK128
        coefs = [((power if w < 4 else 2 * total) << 32 * ((w + 2) % 4) + 16 * h) & _MASK128
                 for w in range(8) for h in range(2)]
        g.append(list(zip(*map(parts, coefs))))
        s.append([[part] for part in parts(total)])
    return np.array(g, dtype=np.uint64), np.array(s, dtype=np.uint64)


def _substream_units(seed, count: int, draws: int) -> np.ndarray:
    """The first ``draws`` unit floats of ``default_rng((seed, index))`` for
    every index below ``count``, as a (count, draws) array, bit for bit: the
    sweeps' only draw.

    :func:`_seed_words` runs with the index as the last entropy word, a
    Python int at one realization and a uint64 array of the indices
    otherwise, which gives its 8 words over all indices at once.  One uint64
    matmul of their 16-bit halves with :func:`_pcg_terms` then gives each
    PCG64 state's two 64-bit halves, the high one short of the carry that
    the two exact 32-bit sums of the low half supply; uint64 arrays wrap
    silently, so no ``np.errstate`` is needed there either.  Every index
    must be one entropy word, as this hash takes it: ``count`` above 2**32
    is a ``ValueError``, which :class:`ExperimentConfig` raises before a
    sweep gets here.
    """
    if count > 1 << 32:
        raise ValueError("array substreams take realization indices below 2**32")
    words = _entropy_words(seed)
    g, s = _pcg_terms(draws)
    units = np.empty((count, draws))
    for first in range(0, count, _ARRAY_CHUNK):
        index = (np.arange(first, min(first + _ARRAY_CHUNK, count), dtype=np.uint64)
                 if count > 1 else 0)
        out = np.array(_seed_words([*words, index]), dtype=np.uint64).reshape(8, 1, -1)
        # (draws, 4, R): the halves modulo 2**64, and sums below 2**53 of the
        # low half's bits 0-31 and 32-63
        low, lo0, lo1, high = (g @ (out >> _HALF_SHIFTS & 0xFFFF).reshape(16, -1)
                               + s).swapaxes(0, 1)
        high += ((lo0 >> 32) + lo1) >> 32
        # XSL-RR: the high 64 bits xor the low 64, rotated right by the top 6
        word = high ^ low
        rot = high >> 58
        word = word >> rot | word << (64 - rot & 63)
        units[first:first + word.shape[1]] = ((word >> 11) * 2.0**-53).T
    return units


def sample_scenario(rng, config: ExperimentConfig, element_count: int) -> Scenario:
    """Draw one random wiretap layout under the fixed RF template.

    ``rng`` is a numpy ``Generator``.  Two draws, Bob's range then the
    shared angle; the sweeps draw realization ``index`` as
    ``default_rng((config.rng_seed, index))`` would here."""
    geom = _half_wave_array(element_count)
    bob, eve = _receivers(rng.uniform(*config.range_interval),
                          rng.uniform(*config.angle_interval), config.range_gap)
    return Scenario(rf=_RF, array=geom, bob=bob, eve=eve)


def _half_wave_array(element_count: int) -> ArrayGeometry:
    return ArrayGeometry(element_count=element_count, first_element_x=0.0,
                         spacing=_RF.wavelength / 2.0)


def _uniform(interval: tuple, units: np.ndarray) -> np.ndarray:
    """``units`` scaled to ``interval`` as ``Generator.uniform`` scales its
    unit floats, bit for bit."""
    low, high = map(float, interval)
    return low + (high - low) * units


def _receivers(r_b: float, theta: float, range_gap: float) -> tuple:
    """Bob's and Eve's placements: Bob at (``r_b``, ``theta``), Eve
    ``range_gap`` farther out on the same bearing."""
    return (NodePlacement(range_m=r_b, angle_rad=theta),
            NodePlacement(range_m=r_b + range_gap, angle_rad=theta))


@dataclass(frozen=True)
class _Stack:
    """The layouts of every realization at one antenna count: the shared
    array, each realization's (Bob, Eve) placements, and Bob's and Eve's
    element distances, omega and alpha as read-only (R, N) arrays."""

    array: ArrayGeometry
    placements: list
    bob_distances: np.ndarray
    eve_distances: np.ndarray
    omega: np.ndarray
    alpha: np.ndarray

    def scenario(self, index: int) -> Scenario:
        """Realization ``index``'s scenario, assembled from its rows."""
        return Scenario._assembled(_RF, self.array, *self.placements[index],
                                   self.bob_distances[index], self.eve_distances[index],
                                   self.omega[index], self.alpha[index])


def _stacks(config: ExperimentConfig, counts) -> dict:
    """The :class:`_Stack` of each antenna count in ``counts``, from one draw
    per realization index that every count shares.

    A realization's two unit floats, from the (seed, index) substream, are
    scaled as :func:`sample_scenario`'s ``Generator.uniform`` calls scale
    them, and its placements are checked in index order.  The layouts are
    then checked count by count, so the error raised is the one of the first
    failing (count, index) task: a placement fails at every count, after the
    layouts of the first count's earlier realizations.
    """
    units = _substream_units(config.rng_seed, config.realizations, 2)
    # contiguous (R, 1) columns, which numpy's math runs through the loops
    # that it runs a scenario's scalars through
    r_b = _uniform(config.range_interval, units[:, :1])
    theta = _uniform(config.angle_interval, units[:, 1:])
    placements, failed = [], None
    for row in zip(r_b[:, 0].tolist(), theta[:, 0].tolist()):
        try:
            placements.append(_receivers(*row, config.range_gap))
        except ValueError as exc:
            failed = exc
            break
    r_b, theta = r_b[:len(placements)], theta[:len(placements)]
    bob, eve = _position(r_b, theta), _position(r_b + config.range_gap, theta)
    stacks = {}
    for n in counts:
        if n not in stacks:
            array = _half_wave_array(n)
            stacks[n] = _Stack(array, placements, *_layouts(_RF, array, bob, eve))
        if failed is not None:
            raise failed
    return stacks


def _power_realization(config: ExperimentConfig, task: tuple, *, stacks: dict) -> np.ndarray:
    """Power task ``(n, index)``: the optimized offsets of that layout."""
    n, index = task
    return optimize_offsets(stacks[n].scenario(index))[0].offsets


def _rate_realization(config: ExperimentConfig, index: int, *, stacks: dict) -> np.ndarray:
    """Rate task ``index``: the optimized offsets of that layout at
    ``antenna_counts[0]`` elements."""
    return optimize_offsets(stacks[config.antenna_counts[0]].scenario(index))[0].offsets


def _blocks(stacks: dict, counts: list, offsets: list, rows: int):
    """Blocks of consecutive task rows, each a list of (R, N) Bob distances,
    Eve distances and optimized offsets, one piece per antenna count in it
    (``offsets`` holds each count of ``counts`` in turn, one row per
    realization).  A block holds at most :data:`_BLOCK_ENTRIES` channel
    entries of ``rows`` rows each, or one realization where that alone
    exceeds them, so it may span several counts or hold part of one."""
    reps = len(offsets) // len(counts)
    block, room = [], _BLOCK_ENTRIES
    for first, n in zip(range(0, len(offsets), reps), counts):
        stack, entries = stacks[n], rows * n
        lo = 0
        while lo < reps:
            if block and room < entries:
                yield block
                block, room = [], _BLOCK_ENTRIES
            hi = min(reps, lo + max(1, room // entries))
            block.append((stack.bob_distances[lo:hi], stack.eve_distances[lo:hi],
                          np.array(offsets[first + lo:first + hi])))
            room -= (hi - lo) * entries
            lo = hi
    yield block


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


def _convergence_realization(config: ExperimentConfig, task: tuple, *,
                             stacks: dict) -> tuple:
    """Convergence task ``(n, index)``: the descent's coupling after each sweep
    and its sweep count."""
    n, index = task
    _, trace = optimize_offsets(stacks[n].scenario(index))
    return trace.objective_history[::n], trace.outer_iterations


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one (``taskset`` narrows it, ``os.cpu_count`` does not see that),
    else the CPU count, and 1 if that is unknown."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_tasks(fn, tasks: list, workers: int) -> list:
    """``fn`` of every task, in task order.  ``workers`` is an upper bound:
    a fork pool starts only with two or more workers that each get
    :data:`_TASKS_PER_WORKER` tasks and a usable CPU, else the tasks run in
    this process.  A worker receives ``fn`` once, as it starts (through the
    fork, not pickled), and only the tasks and results travel by pickle: a
    sweep's ``fn`` carries the layout stacks of every realization, which
    pickling with every chunk of tasks would send many times over."""
    workers = min(workers, len(tasks) // _TASKS_PER_WORKER, _usable_cpus())
    if workers <= 1:
        return [fn(t) for t in tasks]
    from concurrent.futures import ProcessPoolExecutor  # loaded only where a pool starts
    with ProcessPoolExecutor(max_workers=workers, initializer=_start_worker,
                             initargs=(fn,)) as pool:
        chunk = max(1, len(tasks) // (4 * workers))
        return list(pool.map(_worker_task, tasks, chunksize=chunk))


_worker_fn = None
"""The task function of a pool worker, set as the worker starts; unset in
the process that runs the sweep."""


def _start_worker(fn) -> None:
    global _worker_fn
    _worker_fn = fn


def _worker_task(task):
    return _worker_fn(task)


def _sweep(config: ExperimentConfig, realization, metrics, counts: list, tasks: list,
           axis: np.ndarray, workers: int) -> SweepResult:
    """Run ``realization`` (a descent) on every task; then, for each block of
    :func:`_blocks`, :func:`_block_stats` once per antenna count in it and
    ``metrics`` and :func:`_fold_spreads` once on their rows in task order.
    Place the metrics of all :data:`SCHEMES` (a value, or one per power) and
    keep the ``config.baselines`` ones, the only reader of that field.
    Power task k fills row ``k // realizations``; rate columns are the
    transpose.
    """
    stacks = _stacks(config, counts)
    offsets = _map_tasks(partial(realization, config, stacks=stacks), tasks, workers)
    reps = config.realizations
    times = config.time_samples or (0.0,)
    tables, spread = [], {}
    for block in _blocks(stacks, counts, offsets, len(times) + 2):
        stats = [_block_stats(bob, eve, plans, times) for bob, eve, plans in block]
        table, checks = metrics(config, *map(np.concatenate, zip(*stats)))
        tables.append(table)
        if len(times) > 1:
            _fold_spreads(spread, checks)
    table = np.concatenate(tables).reshape(len(tasks) // reps, reps, len(SCHEMES), -1)
    schemes = tuple(config.baselines)
    return SweepResult(
        axis=axis, schemes=schemes,
        # (row, realization, point) -> (row * point, realization)
        values={s: table[:, :, SCHEMES.index(s)].swapaxes(1, 2).reshape(-1, reps)
                for s in schemes},
        time_spread={s: v for s, v in spread.items() if s in schemes})


def run_power_sweep(config: ExperimentConfig, workers: int = 1) -> SweepResult:
    """Required transmit power versus antenna count for every scheme.

    One task per (count, realization) draws and descends; the closed forms
    then run on whole blocks of task rows, several counts at once.  The MRT
    time re-check runs only where MRT is feasible.  A 2^R E so large that
    lambda1 overflows raises :class:`OverflowError`.
    """
    counts = list(config.antenna_counts)
    tasks = [(n, idx) for n in counts for idx in range(config.realizations)]
    return _sweep(config, _power_realization, _power_metrics, counts, tasks,
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
    return _sweep(config, _rate_realization, _rate_metrics, [config.antenna_counts[0]],
                  list(range(config.realizations)), grid, workers)


def run_convergence_study(config: ExperimentConfig, workers: int = 1) -> ConvergenceResult:
    """Mean coupling after each optimizer sweep, per antenna count."""
    counts = tuple(config.antenna_counts)
    reps = config.realizations
    tasks = [(n, idx) for n in counts for idx in range(reps)]
    stacks = _stacks(config, counts)
    results = _map_tasks(partial(_convergence_realization, config, stacks=stacks), tasks,
                         workers)
    mean_history = {}
    outer_counts = {}
    for i, n in enumerate(counts):
        block = results[i * reps:(i + 1) * reps]
        histories = [r[0] for r in block]
        outers = np.array([r[1] for r in block], dtype=float)
        depth = max(len(h) for h in histories)
        padded = np.array([h + [h[-1]] * (depth - len(h)) for h in histories])
        mean_history[n] = padded.mean(axis=0)
        outer_counts[n] = outers
    return ConvergenceResult(antenna_counts=counts,
                             mean_history=mean_history,
                             outer_counts=outer_counts)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` over the bytes already there, then cut the
    file to the end of ``text``.

    The file is never truncated to zero on open: on ext4 (``auto_da_alloc``)
    closing a file that was truncated to zero starts its writeback, and the
    next truncation of that file waits for the I/O, so a command run again
    into the same directory would stall on every output it rewrites.  An
    existing output keeps its inode, mode and hard or symbolic links.
    Callers build the whole text first, so a failure while formatting it
    leaves the previous file untouched.
    """
    # the flags ``open`` computed, less O_TRUNC; 0o666 is its mode for a new file
    with open(path, "w", newline="",
              opener=lambda p, flags: os.open(p, flags & ~os.O_TRUNC, 0o666)) as fh:
        fh.write(text)
        fh.truncate()


def _write_csv(path, header: list, rows) -> None:
    """Write ``header`` and then ``rows`` as the CSV file at ``path``."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    _write_text(path, buf.getvalue())


def write_sweep_csv(result: SweepResult, path) -> None:
    """One row per (axis value, scheme) with mean, 5/95 percentiles and the
    infeasible fraction; floats carry 17 significant digits.

    The schemes' values are stacked in row order, so the statistics are one
    pass over all rows; a row's value is the statistic of that scheme's
    non-NaN realizations at that axis value alone, bit for bit."""
    block = np.stack([result.values[s] for s in result.schemes], axis=1)
    block = block.reshape(-1, block.shape[-1])  # row (axis i, scheme s) = i * S + s
    keys = ((_fmt(x), s) for x in result.axis for s in result.schemes)
    _write_csv(path, ["axis", "scheme", "mean_metric", "p05", "p95", "infeasible_fraction"],
               ([*key, *map(_fmt, row)] for key, row in zip(keys, _row_stats(block).T)))


def write_convergence_csv(result: ConvergenceResult, path) -> None:
    _write_csv(path, ["iteration", "element_count", "mean_g"],
               ([i, n, _fmt(g)] for n in result.antenna_counts
                for i, g in enumerate(result.mean_history[n])))


def write_trace_csv(history, path) -> None:
    _write_csv(path, ["iteration", "g"], ([i, _fmt(g)] for i, g in enumerate(history)))
