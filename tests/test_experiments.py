"""Monte Carlo harness: sampling, sweeps, reproducibility, CSV output."""

import csv
import dataclasses
import math
from functools import partial

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from fdabeam import experiments
from fdabeam.beamforming import channel_stats
from fdabeam.config import load_experiment_config
from fdabeam.coupling import optimize_offsets
from fdabeam.experiments import (
    CARRIER_FREQUENCY,
    MAX_OFFSET,
    SCHEMES,
    ExperimentConfig,
    linear_fda_plan,
    phased_array_plan,
    run_convergence_study,
    run_power_sweep,
    run_rate_sweep,
    sample_scenario,
    write_convergence_csv,
    write_sweep_csv,
    write_trace_csv,
)
from fdabeam.scenario import channel_pair

from fingerprint import PACKED_EXPERIMENT
from helpers import (
    first_layout_error,
    pool_on_every_task_list,
    realization_convergence,
    realization_sweep,
    rowwise_nanstat,
    scheme_mean,
)


P05 = partial(np.percentile, q=5.0)
P95 = partial(np.percentile, q=95.0)


def _infeasible_fraction(result, scheme):
    """Share of NaN (infeasible) realizations of ``scheme`` per axis value."""
    return np.mean(np.isnan(result.values[scheme]), axis=1)


def _small_power_config(**overrides):
    base = dict(realizations=8, rng_seed=42, antenna_counts=(2, 4),
                target_rate=10.0, time_samples=(0.0, 10e-6, 20e-6))
    base.update(overrides)
    return ExperimentConfig(**base)


def _small_rate_config(**overrides):
    base = dict(realizations=5, rng_seed=7, antenna_counts=(3,),
                power_grid=tuple(10.0 ** (0.5 * d) for d in range(-2, 3)),
                time_samples=(0.0, 20e-6))
    base.update(overrides)
    return ExperimentConfig(**base)


def test_baseline_plans():
    plan = linear_fda_plan(4, 3e6)
    assert_allclose(plan.offsets, [0.75e6, 1.5e6, 2.25e6, 3e6])
    assert np.all(phased_array_plan(5).offsets == 0.0)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(realizations=0)
    with pytest.raises(ValueError):
        ExperimentConfig(antenna_counts=())
    with pytest.raises(ValueError):
        ExperimentConfig(antenna_counts=(2, 0))
    with pytest.raises(ValueError):
        ExperimentConfig(power_grid=(1.0, -1.0))
    with pytest.raises(ValueError):
        ExperimentConfig(baselines=("proposed", "zf"))
    with pytest.raises(ValueError):
        ExperimentConfig(range_interval=(-5.0, 10.0))
    with pytest.raises(ValueError):
        ExperimentConfig(range_gap=-1.0)


@pytest.mark.parametrize("baselines", [(), ("proposed", "proposed"), ("bound", "mrt", "bound")])
def test_config_rejects_empty_or_repeated_baselines(baselines):
    """An empty list would write a header-only CSV and a repeated scheme
    every row twice."""
    with pytest.raises(ValueError, match="baselines must name at least one scheme, each once"):
        ExperimentConfig(baselines=baselines)


@pytest.mark.parametrize("field, value, message", [
    ("realizations", 2.0, "realizations must be an integer"),
    ("realizations", True, "realizations must be an integer"),
    ("realizations", 0, r"realizations must be an integer from 1 to 2\*\*32"),
    ("realizations", 2**32 + 1, r"realizations must be an integer from 1 to 2\*\*32"),
    ("realizations", np.int64(2**40), r"realizations must be an integer from 1 to 2\*\*32"),
    ("antenna_counts", (2, 4.0), "antenna_counts must be positive integers"),
    ("rng_seed", -1, "rng_seed must be a non-negative integer"),
    ("rng_seed", 1.0, "rng_seed must be a non-negative integer"),
])
def test_config_rejects_non_integer_counts_and_seeds(field, value, message):
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(**{field: value})


@pytest.mark.parametrize("field, value, message", [
    ("antenna_counts", 4, "antenna_counts must be a tuple or list, not int"),
    ("power_grid", 1.0, "power_grid must be a tuple or list, not float"),
    ("power_grid", np.ones(2), "power_grid must be a tuple or list, not ndarray"),
    ("range_interval", 5.0, "range_interval must be a tuple or list, not float"),
    ("range_interval", (50.0, 100.0, 150.0), r"range_interval must hold two values"),
    ("angle_interval", 1.0, "angle_interval must be a tuple or list, not float"),
    ("angle_interval", (1.0,), r"angle_interval must hold two values"),
    ("time_samples", 2, "time_samples must be a tuple or list, not int"),
    ("time_samples", np.float64(0.0), "time_samples must be a tuple or list, not float64"),
    ("baselines", "proposed", "baselines must be a tuple or list, not str"),
])
def test_config_rejects_a_sequence_field_given_as_a_scalar(field, value, message):
    """A scalar, a string or an array in a sequence field is a named
    ValueError, not a TypeError, an ambiguous truth value or a
    per-character baseline list; a scalar ``time_samples`` used to pass
    and fail inside the sweep."""
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(**{field: value})


def test_config_takes_lists_as_sequences():
    config = ExperimentConfig(realizations=2, antenna_counts=[2], power_grid=[1.0, 2.0],
                              range_interval=[50.0, 150.0], time_samples=[0.0, 1e-5],
                              baselines=["proposed", "mrt"])
    assert run_rate_sweep(config).values["proposed"].shape == (2, 2)


def test_config_takes_up_to_2_to_the_32_realizations():
    """A realization index is one 32-bit entropy word of the substream
    hash; past 2**32 realizations the config refuses, before any sweep
    builds its task list."""
    assert ExperimentConfig(realizations=2**32).realizations == 2**32


def test_config_accepts_numpy_integers():
    config = ExperimentConfig(realizations=np.int64(2), rng_seed=np.uint32(5),
                              antenna_counts=(np.int32(2),), time_samples=(0.0,))
    assert run_power_sweep(config).values["proposed"].shape == (1, 2)


@pytest.mark.parametrize("field, value", [
    ("power_grid", (1.0, math.nan)),
    ("power_grid", (1.0, math.inf)),
    ("range_interval", (50.0, math.inf)),
    ("range_interval", (math.nan, 150.0)),
    ("angle_interval", (0.0, math.nan)),
    ("range_gap", math.nan),
    ("range_gap", math.inf),
    ("time_samples", (0.0, math.nan)),
])
def test_config_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match="finite"):
        ExperimentConfig(**{field: value})


@pytest.mark.parametrize("interval", [
    (0.0, math.radians(200.0)),
    (-0.1, 1.0),
    (2.0, 1.0),
])
def test_config_rejects_bad_angle_interval(interval):
    with pytest.raises(ValueError, match="angle_interval"):
        ExperimentConfig(angle_interval=interval)


@pytest.mark.parametrize("rate", [math.nan, math.inf, 0.0, -1.0])
def test_config_rejects_bad_target_rate(rate):
    with pytest.raises(ValueError, match="target_rate must be finite and positive"):
        ExperimentConfig(target_rate=rate)


def test_sweep_stats_equal_channel_stats_bitwise():
    """The sweep stage's (B, E, x) rows are channel_stats of the matching
    pair, bit for bit.  Phased-array power rests on B E - x, which cancels: a
    last-bit change in x (say from summing it in another order) moves that
    power by up to ~1e-5 relative, so equality here is exact on purpose."""
    config = ExperimentConfig()
    times = config.time_samples
    rng = np.random.default_rng(81)
    for n in (2, 5, 8):
        scenarios = [sample_scenario(rng, config, n) for _ in range(3)]
        plans = [optimize_offsets(scn)[0] for scn in scenarios]
        stats = experiments._block_stats(
            np.array([scn.bob_distances for scn in scenarios]),
            np.array([scn.eve_distances for scn in scenarios]),
            np.array([plan.offsets for plan in plans]), times)
        for r, (scn, plan_star) in enumerate(zip(scenarios, plans)):
            rows = [(plan_star, times[0]), (linear_fda_plan(n, MAX_OFFSET), times[0]),
                    (phased_array_plan(n), times[0])]
            rows += [(plan_star, t) for t in times[1:]]
            expect = np.array([channel_stats(channel_pair(scn, p, t)) for p, t in rows])
            assert_array_equal(np.stack([s[r] for s in stats], axis=-1), expect)


def test_sample_scenario_distribution():
    config = ExperimentConfig()
    rng = np.random.default_rng(5)
    for _ in range(50):
        scn = sample_scenario(rng, config, element_count=6)
        assert scn.array.element_count == 6
        assert 50.0 <= scn.bob.range_m <= 150.0
        assert_allclose(scn.eve.range_m - scn.bob.range_m, 20.0, rtol=1e-12)
        assert scn.eve.angle_rad == scn.bob.angle_rad
        assert 0.0 <= scn.bob.angle_rad <= math.pi
        assert scn.rf.carrier_frequency == CARRIER_FREQUENCY
        assert scn.rf.max_offset == MAX_OFFSET
        assert_allclose(scn.array.spacing, scn.rf.wavelength / 2.0, rtol=1e-15)


def test_sample_scenario_deterministic():
    config = ExperimentConfig()
    a = sample_scenario(np.random.default_rng(9), config, 3)
    b = sample_scenario(np.random.default_rng(9), config, 3)
    assert a.bob.range_m == b.bob.range_m
    assert a.bob.angle_rad == b.bob.angle_rad


# ---------------------------------------------------------------------------
# the sweeps' draws: numpy's default_rng((seed, index)) stream, bit for bit

# 2**128 + 1 fills 5 entropy words, more than the 4-word pool holds.
_SEEDS = [0, 2**32 + 1, 2**64 + 1, 2**96 + 5, 2**128 + 1, np.uint32(4_000_000_000),
          np.int64(2**40 + 3)]
# _SEEDS, then perfbench's call seeds
_WIDE_SEEDS = _SEEDS + [seed + (j << 32) for seed in (1, 5) for j in (0, 1, 7, 1000)]
# one realization (an int index in the hash), counts around 16 and a larger one
_COUNTS = [1, 15, 16, 100]
_DRAW_INTERVALS = [(50.0, 150.0), (0.0, math.pi), (2.5, 2.5), (-1e6, 3.0)]


def _assert_rows_equal_default_rng(seed, count, indices):
    """Rows ``indices`` of the sweeps' (count, 4) draws are the first four
    ``random()`` floats of ``default_rng((seed, index))``, bit for bit."""
    units = experiments._substream_units(seed, count, 4)
    assert units.shape == (count, 4) and units.dtype == np.float64
    for index in indices:
        theirs = np.random.default_rng((seed, index))
        assert units[index].tolist() == [theirs.random() for _ in range(4)], (seed, index)


@pytest.mark.parametrize("count", _COUNTS)
@pytest.mark.parametrize("seed", _SEEDS)
def test_substream_equals_default_rng(seed, count):
    _assert_rows_equal_default_rng(seed, count, range(count))


@pytest.mark.parametrize("seed", _SEEDS)
def test_substream_hashes_an_int_index_at_one_realization(seed, monkeypatch):
    """At one realization ``_seed_words`` gets the index as the Python int
    0, at two as a uint64 array of both indices, and both give numpy's
    rows; a two-word index, past what a sweep draws, hashes as numpy's."""
    seen, seed_words = [], experiments._seed_words

    def logged_seed_words(words):
        seen.append(words[-1])
        return seed_words(words)

    monkeypatch.setattr(experiments, "_seed_words", logged_seed_words)
    _assert_rows_equal_default_rng(seed, 1, [0])
    _assert_rows_equal_default_rng(seed, 2, [0, 1])
    one, two = seen
    assert type(one) is int and one == 0
    assert type(two) is np.ndarray and two.dtype == np.uint64 and two.tolist() == [0, 1]
    out = seed_words(experiments._entropy_words(seed, 2**33))
    assert out == np.random.SeedSequence((seed, 2**33)).generate_state(8, np.uint32).tolist()


_SEED_WORD_SEEDS = [0, 2**96 + 5, 2**128 + 1, 2**160 + 3]  # 1, 4, 5 and 6 words


@pytest.mark.parametrize("entropy", [(0,), (2**32 + 1,), (2**64 + 1,), (2**96 + 5,),
                                     (2**128 + 1,), (2**160 + 3,)]
                         + [(seed, 2**33 + 7) for seed in _SEED_WORD_SEEDS])
def test_seed_words_equal_seed_sequence_state(entropy):
    """``_seed_words`` on Python ints is numpy's ``SeedSequence`` state, for
    entropy of 1 to 6 words and, with a two-word index, up to 8."""
    words = experiments._entropy_words(*entropy)
    out = experiments._seed_words(words)
    assert all(type(word) is int for word in out)
    assert out == np.random.SeedSequence(entropy).generate_state(8, np.uint32).tolist()


@pytest.mark.parametrize("seed", [0, 2**64 + 1] + _SEED_WORD_SEEDS[1:])
def test_seed_words_on_index_arrays_equal_seed_sequence_state(seed):
    """With the index as a uint64 array, in the pool (seeds of 1 and 3
    words) or past it (4 to 6 words), each output word is a uint64 array
    whose column for an index is numpy's ``SeedSequence((seed, index))``
    word."""
    indices = [0, 1, 5, 2**31, 2**32 - 1]
    out = experiments._seed_words([*experiments._entropy_words(seed),
                                   np.array(indices, dtype=np.uint64)])
    assert len(out) == 8
    for word in out:
        assert type(word) is np.ndarray and word.dtype == np.uint64
        assert word.shape == (len(indices),)
    for column, index in enumerate(indices):
        theirs = np.random.SeedSequence((seed, index)).generate_state(8, np.uint32)
        assert [int(word[column]) for word in out] == theirs.tolist(), (seed, index)


@pytest.mark.parametrize("seed", [1, 5])
def test_substream_equals_default_rng_at_benchmark_seeds(seed):
    """perfbench derives call j's experiment seed as ``seed + (j << 32)``."""
    for j in (0, 1, 7, 1000):
        for count in (*_COUNTS, 1000):
            _assert_rows_equal_default_rng(seed + (j << 32), count,
                                           [index for index in (0, 3, 999) if index < count])


@pytest.mark.parametrize("count", _COUNTS)
@pytest.mark.parametrize("seed", _WIDE_SEEDS)
def test_draws_scale_as_default_rng_uniform(seed, count):
    """Column d of the draws, scaled as the sweeps scale a column, gives
    ``default_rng((seed, index))``'s d-th ``uniform`` over the d-th interval,
    bit for bit and as Python floats, for every index below ``count``; equal
    bounds give the bound."""
    units = experiments._substream_units(seed, count, len(_DRAW_INTERVALS))
    columns = [experiments._uniform(interval, units[:, d:d + 1]).ravel().tolist()
               for d, interval in enumerate(_DRAW_INTERVALS)]
    for index, row in enumerate(zip(*columns)):
        theirs = np.random.default_rng((seed, index))
        for value, (lo, hi) in zip(row, _DRAW_INTERVALS):
            assert type(value) is float
            assert value == theirs.uniform(lo, hi), (seed, index, lo, hi)
            if lo == hi:
                assert value == lo


@pytest.mark.parametrize("count", _COUNTS)
@pytest.mark.parametrize("ranges, angles", [((50.0, 150.0), (0.0, math.pi)),
                                            ((7.25, 7.25), (1.25, 1.25)),
                                            ((50, 150), (0, 3))])
def test_substream_equal_bounds_give_the_bound(ranges, angles, count):
    """The placements of a sweep's stack are ``default_rng((seed,
    index))``'s two ``uniform`` draws, Bob's range then the shared angle,
    with Eve ``range_gap`` farther out; equal bounds give the bound, and
    integer bounds scale as numpy scales them."""
    config = ExperimentConfig(realizations=count, rng_seed=3, range_interval=ranges,
                              angle_interval=angles)
    placements = experiments._stacks(config, (2,))[2].placements
    assert len(placements) == count
    for index, (bob, eve) in enumerate(placements):
        theirs = np.random.default_rng((3, index))
        r_b, theta = theirs.uniform(*ranges), theirs.uniform(*angles)
        assert type(bob.range_m) is float and type(bob.angle_rad) is float
        assert (bob.range_m, bob.angle_rad) == (r_b, theta)
        assert (eve.range_m, eve.angle_rad) == (r_b + config.range_gap, theta)
        if ranges[0] == ranges[1]:
            assert (bob.range_m, bob.angle_rad) == (ranges[0], angles[0])


def test_substream_rejects_what_default_rng_rejects():
    """A float seed is a TypeError and a negative seed or index a
    ValueError, as in numpy, at one realization and at 16; without the
    check a negative value would never shift down to zero."""
    with pytest.raises(TypeError):
        np.random.default_rng((1.0, 0))
    for count in (1, 16):
        with pytest.raises(TypeError):
            experiments._substream_units(1.0, count, 2)
        for seed in (-1, np.int64(-5)):
            with pytest.raises(ValueError, match="non-negative"):
                experiments._substream_units(seed, count, 2)
            with pytest.raises(ValueError):
                np.random.default_rng((seed, 0))
    with pytest.raises(ValueError, match="non-negative"):
        experiments._entropy_words(0, -1)
    with pytest.raises(ValueError):
        np.random.default_rng((0, -1))


def test_array_draws_do_not_depend_on_the_chunk(monkeypatch):
    """Indices computed in chunks of 7 give the draws of one chunk."""
    whole = experiments._substream_units(2**128 + 1, 40, 3)
    monkeypatch.setattr(experiments, "_ARRAY_CHUNK", 7)
    assert experiments._substream_units(2**128 + 1, 40, 3).tobytes() == whole.tobytes()


def test_array_draws_reject_indices_past_one_entropy_word():
    """An index of 2**32 or more would be two entropy words, which the
    array form does not hash: a count past 2**32 is refused before anything
    is allocated."""
    for count in (2**32 + 1, 2**40):
        with pytest.raises(ValueError, match=r"indices below 2\*\*32"):
            experiments._substream_units(0, count, 2)


@pytest.mark.parametrize("seed", [0, 2**128 + 1])
def test_sweeps_on_array_draws_equal_per_realization_oracle(seed):
    """At 16 and 19 realizations every sweep equals its per-realization
    oracle (numpy's own ``default_rng((seed, index))`` per index) bit for
    bit."""
    reps = 16
    times = (0.0, 7e-6, 20e-6)
    config = ExperimentConfig(realizations=reps, rng_seed=seed, antenna_counts=(1, 2, 3),
                              target_rate=1.2, time_samples=times)
    result = run_power_sweep(config)
    values, spread = realization_sweep(config, "power")
    for s in SCHEMES:
        assert_array_equal(result.values[s], values[s])
    assert list(result.time_spread.items()) == list(spread.items())
    config = ExperimentConfig(realizations=reps + 3, rng_seed=seed, antenna_counts=(2,),
                              time_samples=times)
    result = run_rate_sweep(config)
    values, spread = realization_sweep(config, "rate")
    for s in SCHEMES:
        assert_array_equal(result.values[s], values[s])
    assert list(result.time_spread.items()) == list(spread.items())
    config = ExperimentConfig(realizations=reps, rng_seed=seed, antenna_counts=(3, 2))
    study = run_convergence_study(config)
    mean_history, outer_counts = realization_convergence(config)
    for n in mean_history:
        assert study.mean_history[n].tobytes() == mean_history[n].tobytes()
        assert_array_equal(study.outer_counts[n], outer_counts[n])


def test_power_sweep_orderings():
    config = _small_power_config()
    result = run_power_sweep(config)
    assert_allclose(result.axis, [2.0, 4.0])
    for s in SCHEMES:
        assert result.values[s].shape == (2, config.realizations)
    bound = scheme_mean(result, "bound")
    proposed = scheme_mean(result, "proposed")
    linear = scheme_mean(result, "linear")
    phased = scheme_mean(result, "phased")
    # eavesdropper-free floor <= optimized <= heuristic offsets <= no offsets
    assert np.all(bound <= proposed * (1.0 + 1e-12))
    assert np.all(proposed <= linear)
    assert np.all(linear <= phased)
    # the floor holds per realization, not just on average
    assert np.all((result.values["bound"] <= result.values["proposed"])
                  | np.isnan(result.values["proposed"]))
    # optimized offsets stay geometric: no dependence on the sampling time
    for s, v in result.time_spread.items():
        assert v < 1e-9, s


def test_power_sweep_more_antennas_help():
    config = _small_power_config(realizations=12)
    result = run_power_sweep(config)
    gap = scheme_mean(result, "proposed") - scheme_mean(result, "bound")
    assert gap[1] < gap[0]


def test_rate_sweep_orderings():
    config = _small_rate_config()
    result = run_rate_sweep(config)
    assert result.values["proposed"].shape == (5, config.realizations)
    for s in ("bound", "proposed", "linear", "phased", "mrt"):
        means = scheme_mean(result, s)
        assert np.all(np.diff(means) >= -1e-12), s
    assert np.all(scheme_mean(result, "bound") >= scheme_mean(result, "proposed") - 1e-12)
    assert np.all(scheme_mean(result, "proposed") >= scheme_mean(result, "linear") - 1e-12)
    assert np.all(scheme_mean(result, "linear") >= scheme_mean(result, "phased") - 1e-12)
    # the eigensolver design dominates steering straight at Bob, realization
    # by realization (both evaluated on the optimized frequency plan)
    assert np.all(result.values["proposed"] >= result.values["mrt"] - 1e-9)
    for s, v in result.time_spread.items():
        assert v < 1e-9, s


def test_sweeps_reproducible():
    config = _small_rate_config(realizations=3)
    a = run_rate_sweep(config)
    b = run_rate_sweep(config)
    for s in SCHEMES:
        assert np.array_equal(a.values[s], b.values[s], equal_nan=True)


def test_sweep_worker_count_invariant(monkeypatch, tmp_path):
    """Realization substreams derive from (seed, index), so distributing
    work over processes cannot change any drawn number."""
    pool_processes = pool_on_every_task_list(monkeypatch, tmp_path)
    config = _small_power_config(realizations=4, antenna_counts=(2,))
    serial = run_power_sweep(config, workers=1)
    assert not pool_processes()
    parallel = run_power_sweep(config, workers=2)
    assert pool_processes()
    for s in SCHEMES:
        assert np.array_equal(serial.values[s], parallel.values[s],
                              equal_nan=True)


def test_convergence_worker_count_invariant(monkeypatch, tmp_path):
    """All antenna counts share one task list; distributing it over
    processes cannot change any per-count statistic."""
    pool_processes = pool_on_every_task_list(monkeypatch, tmp_path)
    config = _small_power_config(realizations=3, antenna_counts=(2, 3, 4))
    serial = run_convergence_study(config, workers=1)
    assert not pool_processes()
    parallel = run_convergence_study(config, workers=2)
    assert pool_processes()
    for n in config.antenna_counts:
        assert_array_equal(serial.mean_history[n], parallel.mean_history[n])
        assert_array_equal(serial.outer_counts[n], parallel.outer_counts[n])
        assert np.median(serial.outer_counts[n]) == np.median(parallel.outer_counts[n])


def test_single_element_always_infeasible():
    """One antenna cannot separate two co-bearing receivers: the secrecy
    target is unreachable and the accounting must say so, not crash."""
    config = _small_power_config(realizations=4, antenna_counts=(1,))
    result = run_power_sweep(config)
    for s in ("proposed", "linear", "phased", "mrt"):
        assert np.all(np.isnan(result.values[s]))
        assert_allclose(_infeasible_fraction(result, s), 1.0)
        assert math.isnan(scheme_mean(result, s)[0])
    assert np.all(np.isfinite(result.values["bound"]))
    assert _infeasible_fraction(result, "bound")[0] == 0.0


def test_convergence_study():
    config = _small_power_config(realizations=10)
    result = run_convergence_study(config)
    assert result.antenna_counts == (2, 4)
    for n in (2, 4):
        hist = result.mean_history[n]
        assert np.all(np.diff(hist) <= 1e-12 * hist[:-1])
        assert result.outer_counts[n].shape == (10,)
        assert np.median(result.outer_counts[n]) <= 10.0
        assert hist[-1] < hist[0]


def test_write_sweep_csv_round_trip(tmp_path):
    config = _small_rate_config(realizations=3)
    result = run_rate_sweep(config)
    path = tmp_path / "rates.csv"
    write_sweep_csv(result, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["axis", "scheme", "mean_metric", "p05", "p95",
                       "infeasible_fraction"]
    assert len(rows) == 1 + len(result.axis) * len(result.schemes)
    by_key = {(r[0], r[1]): r for r in rows[1:]}
    for i, x in enumerate(result.axis):
        for s in result.schemes:
            row = by_key[(format(x, ".17g"), s)]
            assert float(row[2]) == scheme_mean(result, s)[i]
            assert float(row[3]) == rowwise_nanstat(P05, result.values[s])[i]
            assert float(row[5]) == _infeasible_fraction(result, s)[i]


@pytest.mark.parametrize("which", ["power", "rate"])
def test_sweep_csv_stats_equal_per_scheme_methods_bitwise(tmp_path, which):
    """``write_sweep_csv`` takes each statistic once over all schemes; every
    row holds that statistic of its own scheme's row alone
    (``rowwise_nanstat``), to the last bit (17 significant digits
    round-trip a float).  At a 40 bit target the power sweep has all-NaN
    rows and rows with a few feasible entries."""
    if which == "power":
        result = run_power_sweep(_small_power_config(
            realizations=40, rng_seed=3, antenna_counts=(2, 8), target_rate=40.0))
        fractions = np.concatenate([_infeasible_fraction(result, s) for s in SCHEMES])
        assert (fractions == 1.0).any() and ((0.0 < fractions) & (fractions < 1.0)).any()
    else:
        result = run_rate_sweep(_small_rate_config(realizations=40))
    path = tmp_path / "sweep.csv"
    write_sweep_csv(result, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    expected = []
    for i, x in enumerate(result.axis):
        for s in result.schemes:
            stats = (scheme_mean(result, s), rowwise_nanstat(P05, result.values[s]),
                     rowwise_nanstat(P95, result.values[s]), _infeasible_fraction(result, s))
            expected.append([format(x, ".17g"), s,
                             *(format(float(col[i]), ".17g") for col in stats)])
    assert rows == expected


def test_write_sweep_csv_handles_nan(tmp_path):
    config = _small_power_config(realizations=3, antenna_counts=(1,))
    result = run_power_sweep(config)
    path = tmp_path / "powers.csv"
    write_sweep_csv(result, path)
    with open(path, newline="") as fh:
        rows = {(r[0], r[1]): r for r in list(csv.reader(fh))[1:]}
    row = rows[("1", "proposed")]
    assert row[2] == "nan"
    assert row[5] == "1"


def test_write_convergence_and_trace_csv(tmp_path):
    config = _small_power_config(realizations=4)
    conv = run_convergence_study(config)
    path = tmp_path / "conv.csv"
    write_convergence_csv(conv, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iteration", "element_count", "mean_g"]
    assert len(rows) == 1 + sum(len(conv.mean_history[n]) for n in (2, 4))
    assert float(rows[1][2]) == conv.mean_history[2][0]

    tpath = tmp_path / "trace.csv"
    write_trace_csv([3.0, 2.0, 1.0], tpath)
    with open(tpath, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows == [["iteration", "g"], ["0", "3"], ["1", "2"], ["2", "1"]]


def test_baseline_subset_runs():
    """``baselines`` only selects output: every scheme is computed, and a
    subset's values and time spreads equal the full sweep's bit for bit."""
    power_config = _small_power_config(realizations=3, target_rate=1.2)
    for config, run in ((power_config, run_power_sweep),
                        (_small_rate_config(realizations=3), run_rate_sweep)):
        full = run(config)
        assert set(full.time_spread) == {"proposed", "mrt"}
        for subset in (("bound", "proposed"), ("mrt", "phased")):
            result = run(dataclasses.replace(config, baselines=subset))
            assert set(result.values) == set(subset)
            assert result.schemes == subset
            for s in subset:
                assert_array_equal(result.values[s], full.values[s])
            assert result.time_spread == {s: v for s, v in full.time_spread.items()
                                          if s in subset}


def test_mrt_recheck_only_where_mrt_is_feasible(monkeypatch):
    """The MRT time re-check adds T - 1 scalar solves to a realization where
    MRT meets the target and none where it does not."""
    calls = []
    solve = experiments.mrt_required_power

    def counting(bob_gain, rate, coupling):
        assert np.ndim(bob_gain) == 0 and np.ndim(coupling) == 0
        calls.append(bob_gain)
        return solve(bob_gain, rate, coupling)

    monkeypatch.setattr(experiments, "mrt_required_power", counting)
    # One antenna: MRT is never feasible, so one solve per realization.
    config = _small_power_config(realizations=4, antenna_counts=(1,))
    assert np.isnan(run_power_sweep(config).values["mrt"]).all()
    assert len(calls) == config.realizations

    config = _small_power_config(target_rate=1.2)
    extra = len(config.time_samples) - 1
    feasible = 0
    stacks = experiments._stacks(config, config.antenna_counts)
    for n in config.antenna_counts:
        for idx in range(config.realizations):
            offsets = experiments._power_realization(config, (n, idx), stacks=stacks)
            bob, eve = stacks[n].bob_distances[idx], stacks[n].eve_distances[idx]
            stats = experiments._block_stats(bob[None], eve[None], offsets[None],
                                             config.time_samples)
            calls.clear()
            table, _ = experiments._power_metrics(config, *stats)
            ok = not math.isnan(table[0, SCHEMES.index("mrt")])
            assert len(calls) == 1 + extra * ok
            feasible += ok
    assert 0 < feasible < len(config.antenna_counts) * config.realizations
    # The whole sweep makes the same solves, block by block.
    calls.clear()
    mrt = run_power_sweep(config).values["mrt"]
    assert len(calls) == mrt.size + extra * np.count_nonzero(~np.isnan(mrt)) == \
        mrt.size + extra * feasible


def test_bound_matches_direct_formula():
    """The sweeps' bound rows are the eavesdropper-free formulas, bit for
    bit: (2^R - 1) / B on the phased-array channel and log2(1 + P B) on the
    proposed plan's channel, both at the first time sample."""
    config = _small_power_config(realizations=3)
    result = run_power_sweep(config)
    t0 = config.time_samples[0]
    for i, n in enumerate(config.antenna_counts):
        for idx in range(config.realizations):
            scn = sample_scenario(np.random.default_rng((config.rng_seed, idx)), config, n)
            b = channel_stats(channel_pair(scn, phased_array_plan(n), t0))[0]
            assert result.values["bound"][i, idx] == (2.0**config.target_rate - 1.0) / b

    config = _small_rate_config(realizations=3)
    result = run_rate_sweep(config)
    t0 = config.time_samples[0]
    grid = np.array(config.power_grid)
    n = config.antenna_counts[0]
    for idx in range(config.realizations):
        scn = sample_scenario(np.random.default_rng((config.rng_seed, idx)), config, n)
        plan, _ = optimize_offsets(scn)
        b = channel_stats(channel_pair(scn, plan, t0))[0]
        assert_array_equal(result.values["bound"][:, idx], np.log2(1.0 + grid * b))


def test_power_sweep_repeated_antenna_count():
    """A count listed twice fills two rows, each equal bit for bit to the
    row of a sweep that lists it once."""
    twice = run_power_sweep(_small_power_config(realizations=3, antenna_counts=(2, 2)))
    once = run_power_sweep(_small_power_config(realizations=3, antenna_counts=(2,)))
    for scheme in twice.schemes:
        assert_array_equal(twice.values[scheme], np.vstack([once.values[scheme]] * 2))
    assert not np.isnan(once.values["proposed"]).any()


_ORACLE_TIMES = {"21": ExperimentConfig().time_samples, "1": (0.0,), "()": ()}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_sweeps_equal_per_realization_oracle(seed, workers):
    """The array stage reproduces the per-realization pipeline bit for bit:
    values, time spreads and the order of the spread keys, at every time
    sampling, target and worker count."""
    for times in _ORACLE_TIMES.values():
        for rate in (10.0, 1.2):
            config = ExperimentConfig(realizations=4, rng_seed=seed, antenna_counts=(1, 2, 3, 8),
                                      target_rate=rate, time_samples=times)
            result = run_power_sweep(config, workers=workers)
            values, spread = realization_sweep(config, "power")
            for s in SCHEMES:
                assert_array_equal(result.values[s], values[s])
            assert list(result.time_spread.items()) == list(spread.items())
        for n in (1, 2, 3, 8):
            config = ExperimentConfig(realizations=4, rng_seed=seed, antenna_counts=(n,),
                                      time_samples=times)
            result = run_rate_sweep(config, workers=workers)
            values, spread = realization_sweep(config, "rate")
            for s in SCHEMES:
                assert_array_equal(result.values[s], values[s])
            assert list(result.time_spread.items()) == list(spread.items())


@pytest.mark.parametrize("reps", [15, 25])
@pytest.mark.parametrize("seed", [0, 1, 7, 1 + (5 << 32)])
def test_stack_rows_are_the_sampled_scenarios_bitwise(seed, reps):
    """Row ``index`` of a count's stack holds the bits that
    ``sample_scenario`` derives for realization ``index`` on numpy's
    ``default_rng((seed, index))``, also at large N, and the scenario
    assembled from it equals that scenario, read-only."""
    config = ExperimentConfig(realizations=reps, rng_seed=seed)
    counts = (1, 2, 3, 8, 33, 130)
    stacks = experiments._stacks(config, counts)
    assert list(stacks) == list(counts)
    for n in counts:
        for index in range(config.realizations):
            expected = sample_scenario(np.random.default_rng((seed, index)), config, n)
            got = stacks[n].scenario(index)
            assert got == expected
            for name in ("bob_distances", "eve_distances", "omega", "alpha"):
                row, ref = getattr(got, name), getattr(expected, name)
                assert row.shape == ref.shape == (n,)
                assert row.tobytes() == ref.tobytes()
                assert not row.flags.writeable


# Bob exactly half a wavelength out on the array axis sits on element 1.
_ON_ELEMENT = dict(range_interval=(0.06245676208333333,) * 2, angle_interval=(0.0, 0.0))
# Bob's range to element 0 puts N times its largest gain past the float range
# from N = 2 where it is below about 3.3e-150 m: at seed 0, in realization 2
# only.
_GAIN_EDGE = dict(range_interval=(3.0e-150, 3.5e-150))
# Eve's range r_b + gap overflows in some realizations (NodePlacement's
# "range_m must be finite"), and Bob's gains underflow in all of them.
_OVERFLOW = dict(range_interval=(0.5e308, 1.5e308), range_gap=0.5e308)


@pytest.mark.parametrize("geometry, counts, seeds", [
    (_ON_ELEMENT, (1, 2), (0,)),
    (_ON_ELEMENT, (2, 1), (0,)),
    (_GAIN_EDGE, (2, 1), (0, 1)),
    (_OVERFLOW, (2, 3), range(8)),
])
def test_layout_errors_are_the_first_failing_task_s(geometry, counts, seeds):
    """Every sweep raises the error of the first (count, index) task, in
    task order, whose ``sample_scenario`` fails, with its message, and runs
    where none does.  A placement error (seeds 4 and 5 of the overflow case)
    comes from realization 0 as the layout errors do."""
    messages = set()
    for seed in seeds:
        config = ExperimentConfig(realizations=4, rng_seed=seed, antenna_counts=counts,
                                  **geometry)
        for run, run_counts in ((run_power_sweep, counts), (run_rate_sweep, counts[:1]),
                                (run_convergence_study, counts)):
            expected = first_layout_error(config, run_counts)
            if expected is None:
                run(config)
                continue
            messages.add(expected)
            with pytest.raises(ValueError) as got:
                run(config)
            assert str(got.value) == expected
    if geometry is _OVERFLOW:
        assert len(messages) == 2 and "range_m must be finite" in messages


def test_repeated_and_unordered_counts_equal_the_per_realization_oracle(monkeypatch):
    """At antenna counts (8, 2, 2, 1) the power sweep and the convergence
    study equal the per-realization oracles bit for bit, and each draws
    every realization index once, for all counts: the repeated count reuses
    the same draws.  Each makes one ``_substream_units`` call for all
    indices, at 15 realizations and at 16."""
    drawn, substream_units = [], experiments._substream_units

    def logged_units(*args):
        drawn.append(args)
        return substream_units(*args)

    for reps in (15, 16):
        config = ExperimentConfig(realizations=reps, rng_seed=3, antenna_counts=(8, 2, 2, 1),
                                  target_rate=1.2, time_samples=(0.0, 7e-6, 20e-6))
        values, spread = realization_sweep(config, "power")
        mean_history, outer_counts = realization_convergence(config)
        monkeypatch.setattr(experiments, "_substream_units", logged_units)
        power = run_power_sweep(config)
        assert drawn == [(3, reps, 2)]
        for s in SCHEMES:
            assert_array_equal(power.values[s], values[s])
            assert_array_equal(power.values[s][1], power.values[s][2])
        assert list(power.time_spread.items()) == list(spread.items())
        drawn.clear()
        study = run_convergence_study(config)
        assert drawn == [(3, reps, 2)]
        assert study.antenna_counts == config.antenna_counts
        assert list(study.mean_history) == list(mean_history) == [8, 2, 1]
        for n in mean_history:
            assert study.mean_history[n].tobytes() == mean_history[n].tobytes()
            assert_array_equal(study.outer_counts[n], outer_counts[n])
        drawn.clear()
        monkeypatch.undo()


def _logged_blocks(monkeypatch, which: str) -> list:
    """The blocks that a power or rate sweep hands to its metrics: for each
    metrics call, the (bob, eve, offsets) pieces of the ``_block_stats``
    calls since the previous one, after checking that the metrics get
    their rows."""
    blocks, pending = [], []
    block_stats, name = experiments._block_stats, f"_{which}_metrics"
    metrics = getattr(experiments, name)

    def logged_stats(bob, eve, offsets, times):
        pending.append((bob, eve, offsets))
        return block_stats(bob, eve, offsets, times)

    def logged_metrics(config, b, e, x):
        assert len(b) == sum(len(offsets) for *_, offsets in pending)
        blocks.append(pending[:])
        pending.clear()
        return metrics(config, b, e, x)

    monkeypatch.setattr(experiments, "_block_stats", logged_stats)
    monkeypatch.setattr(experiments, name, logged_metrics)
    return blocks


def _layout(blocks) -> list:
    """(N, realizations) of each block's pieces."""
    return [[(offsets.shape[1], len(offsets)) for *_, offsets in block] for block in blocks]


_BLOCKED = ExperimentConfig(realizations=7, rng_seed=3, antenna_counts=(2, 5),
                            target_rate=1.2, time_samples=(0.0, 7e-6, 20e-6))
"""7 realizations at N = 2 and 5 and 3 time samples: 5 rows, so 10 and 25
channel entries per realization, 245 for the power sweep's 14 tasks."""

# (power, rate) layouts of _BLOCKED's blocks at each _BLOCK_ENTRIES
_PACKINGS = {
    1: ([[(2, 1)]] * 7 + [[(5, 1)]] * 7, [[(2, 1)]] * 7),
    50: ([[(2, 5)], [(2, 2), (5, 1)], [(5, 2)], [(5, 2)], [(5, 2)]], [[(2, 5)], [(2, 2)]]),
    75: ([[(2, 7)], [(5, 3)], [(5, 3)], [(5, 1)]], [[(2, 7)]]),
    100: ([[(2, 7), (5, 1)], [(5, 4)], [(5, 2)]], [[(2, 7)]]),
    245: ([[(2, 7), (5, 7)]], [[(2, 7)]]),
    experiments._BLOCK_ENTRIES: ([[(2, 7), (5, 7)]], [[(2, 7)]]),
}


@pytest.mark.parametrize("entries", sorted(_PACKINGS))
@pytest.mark.parametrize("which", ["power", "rate"])
def test_sweep_blocks_pack_task_rows_in_order(monkeypatch, which, entries):
    """Each block handed to the metrics holds at most ``_BLOCK_ENTRIES``
    channel entries per receiver, summed over its pieces, unless it is one
    realization; a block may span both counts and a count may split across
    blocks.  The pieces hold every task's distances and optimized offsets
    once, in task order."""
    monkeypatch.setattr(experiments, "_BLOCK_ENTRIES", entries)
    blocks = _logged_blocks(monkeypatch, which)
    run = run_power_sweep if which == "power" else run_rate_sweep
    run(_BLOCKED)
    assert _layout(blocks) == _PACKINGS[entries][which == "rate"]
    rows = len(_BLOCKED.time_samples) + 2
    for block in blocks:
        realizations = sum(len(offsets) for *_, offsets in block)
        entries_in = sum(offsets.size * rows for *_, offsets in block)
        assert entries_in <= entries or realizations == 1
    counts = _BLOCKED.antenna_counts if which == "power" else _BLOCKED.antenna_counts[:1]
    stacks = experiments._stacks(_BLOCKED, counts)
    pieces = [row for block in blocks for piece in block for row in zip(*piece)]
    tasks = [(n, idx) for n in counts for idx in range(_BLOCKED.realizations)]
    assert len(pieces) == len(tasks)
    for (n, idx), (bob, eve, offsets) in zip(tasks, pieces):
        expected = (experiments._power_realization(_BLOCKED, (n, idx), stacks=stacks)
                    if which == "power" else
                    experiments._rate_realization(_BLOCKED, idx, stacks=stacks))
        assert bob.tobytes() == stacks[n].bob_distances[idx].tobytes()
        assert eve.tobytes() == stacks[n].eve_distances[idx].tobytes()
        assert offsets.tobytes() == expected.tobytes()


@pytest.mark.parametrize("which", ["power", "rate"])
def test_sweep_blocks_do_not_change_results(monkeypatch, which):
    """Cutting the task rows into blocks changes no value, spread or spread
    key order, bit for bit: at one realization per block, where one block
    spans both counts (50 and 100 entries) and where a count splits across
    blocks (50 and 75; the rate sweep's one count at 50)."""
    run = run_power_sweep if which == "power" else run_rate_sweep
    whole = run(_BLOCKED)
    for entries in (1, 50, 3 * 5 * 5, 100):
        monkeypatch.setattr(experiments, "_BLOCK_ENTRIES", entries)
        blocked = run(_BLOCKED)
        for s in SCHEMES:
            assert blocked.values[s].tobytes() == whole.values[s].tobytes()
        assert list(blocked.time_spread) == list(whole.time_spread)
        assert [v.hex() for v in blocked.time_spread.values()] == \
            [v.hex() for v in whole.time_spread.values()]


def test_benchmark_sized_power_sweep_makes_one_metrics_call(monkeypatch):
    """At the benchmark's ``sweep_power`` shape (12 realizations at the
    default counts and time samples: 5 520 channel entries) one power sweep
    makes one ``_block_stats`` call per count, then one ``_power_metrics``
    and one ``_fold_spreads`` call."""
    calls = []
    for name in ("_block_stats", "_power_metrics", "_fold_spreads"):
        def counted(*args, _name=name, _fn=getattr(experiments, name)):
            calls.append(_name)
            return _fn(*args)
        monkeypatch.setattr(experiments, name, counted)
    config = ExperimentConfig(realizations=12, rng_seed=1)
    run_power_sweep(config)
    assert calls == ["_block_stats"] * len(config.antenna_counts) + [
        "_power_metrics", "_fold_spreads"]


def test_fingerprint_packed_sweep_spans_and_splits(tmp_path):
    """The fingerprint's packed ``sweep-power`` run, at the default
    ``_BLOCK_ENTRIES``, has one block that spans both its counts and a
    count that splits across two blocks, as its docstring states."""
    path = tmp_path / "experiment.ini"
    path.write_text(PACKED_EXPERIMENT)
    config = load_experiment_config(path)
    counts = list(config.antenna_counts)
    offsets = [np.zeros(n) for n in counts for _ in range(config.realizations)]
    blocks = experiments._blocks(experiments._stacks(config, counts), counts, offsets,
                                 len(config.time_samples) + 2)
    assert _layout(blocks) == [[(2, 300), (8, 281)], [(8, 19)]]


@pytest.mark.parametrize("which, override, message", [
    ("power", {"target_rate": 500.0}, "lambda1 is inf at a 500-bit target"),
    ("rate", {"power_grid": (1.0, 1e150, 1e160)}, "at a 1e+150 W budget"),
    ("rate", {"power_grid": (1e305,)}, "at a 1e+305 W budget"),
])
def test_sweep_overflow_names_the_first_failing_realization(monkeypatch, which, override,
                                                            message):
    """Overflow raises the per-realization pipeline's error, whatever the
    block size."""
    config = ExperimentConfig(realizations=3, rng_seed=2, antenna_counts=(2, 3), **override)
    run = run_power_sweep if which == "power" else run_rate_sweep
    with pytest.raises(OverflowError) as expected:
        realization_sweep(config, which)
    assert message in str(expected.value)
    for entries in (1, experiments._BLOCK_ENTRIES):
        monkeypatch.setattr(experiments, "_BLOCK_ENTRIES", entries)
        with pytest.raises(OverflowError) as got:
            run(config)
        assert str(got.value) == str(expected.value)


def test_rate_overflow_names_the_first_failing_power_of_the_first_failing_realization():
    """The rate stage lays its closed forms out as (realization, power,
    column) and names the budget of the first non-finite entry in C order.

    Realization 0 never fails.  Realization 1 fails at 1e160 W in the phased
    column and at 1e200 W in the linear and phased columns, so a
    column-major scan would name 1e200 W.  Realization 2 fails from 1e100 W,
    which must not be named since realization 1 fails first.
    """
    config = ExperimentConfig(power_grid=(1e100, 1e160, 1e200), time_samples=())
    b = np.array([[1.0, 1.0, 1.0], [1e-10, 1e-10, 1.0], [1e30, 1e30, 1e30]])
    x = np.array([[1.0, 1.0, 1.0], [1e-20, 0.5e-20, 0.5], [0.5e60, 0.5e60, 0.5e60]])
    with pytest.raises(OverflowError,
                       match=r"^lambda_delta is not finite at a 1e\+160 W budget$"):
        experiments._rate_metrics(config, b, b, x)
    x[1, 2] = 1.0  # realization 1 then fails in the linear column only
    with pytest.raises(OverflowError, match=r"at a 1e\+200 W budget$"):
        experiments._rate_metrics(config, b, b, x)


def test_rate_recheck_at_the_largest_power():
    """The rate sweep re-checks time invariance at the largest grid power,
    wherever the grid lists it."""
    base = _small_rate_config(antenna_counts=(2,), time_samples=(0.0, 10e-6, 20e-6))
    descending = run_rate_sweep(dataclasses.replace(base, power_grid=(10.0, 0.1)))
    top = run_rate_sweep(dataclasses.replace(base, power_grid=(10.0,)))
    bottom = run_rate_sweep(dataclasses.replace(base, power_grid=(0.1,)))
    assert descending.time_spread == top.time_spread
    assert descending.time_spread != bottom.time_spread
    assert list(descending.time_spread) == ["proposed", "mrt"]


def test_nanstat_equals_per_row_form_bitwise():
    """One pass over the distinct non-NaN counts gives each row the mean,
    p05 and p95 of its own non-NaN entries and its NaN fraction, bit for
    bit; all-NaN rows stay NaN."""
    rng = np.random.default_rng(21)
    width = 40
    counts = [width, 0, 1, width - 1, 20, 20, 20, 5, 0, width, 2, 33, 1]
    for _ in range(3):
        block = rng.lognormal(0.0, 3.0, size=(len(counts), width))
        for row, k in zip(block, counts):
            row[rng.permutation(width)[k:]] = math.nan
        got = experiments._row_stats(block)
        assert got.shape == (4, len(counts))
        for row, fn in zip(got, (np.mean, P05, P95)):
            assert row.tobytes() == rowwise_nanstat(fn, block).tobytes()
        assert got[3].tobytes() == np.array([np.mean(np.isnan(r)) for r in block]).tobytes()
        assert np.isnan(got[:3, [1, 8]]).all() and not np.isnan(np.delete(got, [1, 8], 1)).any()
    # every row all-NaN: every statistic but the fraction is NaN
    got = experiments._row_stats(np.full((3, 4), math.nan))
    assert got.shape == (4, 3) and np.isnan(got[:3]).all() and (got[3] == 1.0).all()
