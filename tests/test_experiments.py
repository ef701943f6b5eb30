"""Monte Carlo harness: sampling, sweeps, reproducibility, CSV output."""

import csv
import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from fdabeam import experiments
from fdabeam.beamforming import channel_stats
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

from helpers import realization_sweep


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


@pytest.mark.parametrize("field, value, message", [
    ("realizations", 2.0, "realizations must be an integer"),
    ("realizations", True, "realizations must be an integer"),
    ("antenna_counts", (2, 4.0), "antenna_counts must be positive integers"),
    ("rng_seed", -1, "rng_seed must be a non-negative integer"),
    ("rng_seed", 1.0, "rng_seed must be a non-negative integer"),
])
def test_config_rejects_non_integer_counts_and_seeds(field, value, message):
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(**{field: value})


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


def test_power_sweep_orderings():
    config = _small_power_config()
    result = run_power_sweep(config)
    assert result.axis_name == "element_count"
    assert_allclose(result.axis, [2.0, 4.0])
    for s in SCHEMES:
        assert result.values[s].shape == (2, config.realizations)
    bound = result.mean("bound")
    proposed = result.mean("proposed")
    linear = result.mean("linear")
    phased = result.mean("phased")
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
    gap = result.mean("proposed") - result.mean("bound")
    assert gap[1] < gap[0]


def test_rate_sweep_orderings():
    config = _small_rate_config()
    result = run_rate_sweep(config)
    assert result.axis_name == "power_w"
    assert result.values["proposed"].shape == (5, config.realizations)
    for s in ("bound", "proposed", "linear", "phased", "mrt"):
        means = result.mean(s)
        assert np.all(np.diff(means) >= -1e-12), s
    assert np.all(result.mean("bound") >= result.mean("proposed") - 1e-12)
    assert np.all(result.mean("proposed") >= result.mean("linear") - 1e-12)
    assert np.all(result.mean("linear") >= result.mean("phased") - 1e-12)
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


def test_sweep_worker_count_invariant():
    """Realization substreams derive from (seed, index), so distributing
    work over processes cannot change any drawn number."""
    config = _small_power_config(realizations=4, antenna_counts=(2,))
    serial = run_power_sweep(config, workers=1)
    parallel = run_power_sweep(config, workers=2)
    for s in SCHEMES:
        assert np.array_equal(serial.values[s], parallel.values[s],
                              equal_nan=True)


def test_convergence_worker_count_invariant():
    """All antenna counts share one task list; distributing it over
    processes cannot change any per-count statistic."""
    config = _small_power_config(realizations=3, antenna_counts=(2, 3, 4))
    serial = run_convergence_study(config, workers=1)
    parallel = run_convergence_study(config, workers=2)
    for n in config.antenna_counts:
        assert_array_equal(serial.mean_history[n], parallel.mean_history[n])
        assert_array_equal(serial.outer_counts[n], parallel.outer_counts[n])
        assert serial.median_outer[n] == parallel.median_outer[n]


def test_single_element_always_infeasible():
    """One antenna cannot separate two co-bearing receivers: the secrecy
    target is unreachable and the accounting must say so, not crash."""
    config = _small_power_config(realizations=4, antenna_counts=(1,))
    result = run_power_sweep(config)
    for s in ("proposed", "linear", "phased", "mrt"):
        assert np.all(np.isnan(result.values[s]))
        assert_allclose(result.infeasible_fraction(s), 1.0)
        assert math.isnan(result.mean(s)[0])
    assert np.all(np.isfinite(result.values["bound"]))
    assert result.infeasible_fraction("bound")[0] == 0.0


def test_convergence_study():
    config = _small_power_config(realizations=10)
    result = run_convergence_study(config)
    assert result.antenna_counts == (2, 4)
    for n in (2, 4):
        hist = result.mean_history[n]
        assert np.all(np.diff(hist) <= 1e-12 * hist[:-1])
        assert result.outer_counts[n].shape == (10,)
        assert result.median_outer[n] <= 10.0
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
            assert float(row[2]) == result.mean(s)[i]
            assert float(row[3]) == result.percentile(s, 5.0)[i]
            assert float(row[5]) == result.infeasible_fraction(s)[i]


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
    for n in config.antenna_counts:
        for idx in range(config.realizations):
            bob, eve, offsets = experiments._power_realization(config, (n, idx))
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


@pytest.mark.parametrize("which", ["power", "rate"])
def test_sweep_blocks_do_not_change_results(monkeypatch, which):
    """Splitting a count's realizations into blocks, down to one realization
    per block, changes no value, spread or spread key order."""
    config = ExperimentConfig(realizations=7, rng_seed=3, antenna_counts=(2, 5),
                              target_rate=1.2, time_samples=(0.0, 7e-6, 20e-6))
    run = run_power_sweep if which == "power" else run_rate_sweep
    whole = run(config)
    for entries in (1, 3 * 5 * 5):
        monkeypatch.setattr(experiments, "_BLOCK_ENTRIES", entries)
        blocked = run(config)
        for s in SCHEMES:
            assert_array_equal(blocked.values[s], whole.values[s])
        assert list(blocked.time_spread.items()) == list(whole.time_spread.items())


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
