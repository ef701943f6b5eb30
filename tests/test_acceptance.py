"""End-to-end acceptance checks for the package's headline guarantees.

One test per guarantee, each at its stated tolerance; every test prints a
single summary line with the measured margin (run ``pytest -s`` to see them
alongside the pass/fail verdicts).
"""

import math
import time

import numpy as np

from fdabeam.beamforming import (
    PowerBudget,
    SecrecyTarget,
    channel_stats,
    lambda1_closed_form,
    lambda_delta_closed_form,
    max_rate_beamformer,
    min_power_beamformer,
    mrt_required_power,
    secrecy_rate,
)
from fdabeam.coupling import (
    g_value,
    optimize_offsets,
)
from fdabeam.experiments import (
    ExperimentConfig,
    run_convergence_study,
    run_power_sweep,
    run_rate_sweep,
    sample_scenario,
    write_sweep_csv,
)
from fdabeam.scenario import ChannelPair, channel_pair

from helpers import (
    _best_frequency,
    _cosine_term,
    coordinate_scan,
    dense_lambda1,
    dense_lambda_delta,
    grid_oracle,
    pool_on_every_task_list,
    power_lower_bound,
    random_pair,
    random_plan,
    random_scenario,
    scheme_mean,
    update_frequency_case_table,
)


def test_eigenvalue_closed_forms_match_dense_evd():
    """Both closed-form eigenvalues agree with dense eigensolvers to 1e-9
    relative over 1000 random channel pairs (N = 2..8), in under 10 s."""
    rng = np.random.default_rng(2024)
    worst1 = worstd = 0.0
    t0 = time.perf_counter()
    for _ in range(1000):
        pair = random_pair(rng, min_separation=1e-6)
        rate = float(rng.uniform(0.1, 12.0))
        power = float(10.0 ** rng.uniform(-2.0, 1.0))
        b, e, x = channel_stats(pair)
        lam1 = lambda1_closed_form(b, e, x, rate)
        d1 = dense_lambda1(pair, rate)
        worst1 = max(worst1, abs(lam1 - d1) / abs(d1))
        lamd = lambda_delta_closed_form(b, e, x, power)
        dd = dense_lambda_delta(pair, power)
        worstd = max(worstd, abs(lamd - dd) / dd)
    elapsed = time.perf_counter() - t0
    assert worst1 <= 1e-9
    assert worstd <= 1e-9
    assert elapsed < 10.0
    print(f"PASS eigenvalues vs dense EVD: worst rel {worst1:.3g} (min-power) "
          f"/ {worstd:.3g} (max-rate), tol 1e-9, {elapsed:.2f} s")


def test_orthogonal_channel_identities():
    """Zero coupling collapses the eigenvalues to ||h_b||^2 and
    1 + P ||h_b||^2 within 1e-12 relative."""
    rng = np.random.default_rng(31337)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 9))
        h_b = np.zeros(n, dtype=complex)
        h_e = np.zeros(n, dtype=complex)
        h_b[0] = math.sqrt(rng.uniform(1e3, 1e6)) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        h_e[1] = math.sqrt(rng.uniform(1e3, 1e6)) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        pair = ChannelPair(h_bob=h_b, h_eve=h_e)
        b, e, x = channel_stats(pair)
        assert x == 0.0
        rate = float(rng.uniform(0.5, 40.0))
        power = float(10.0 ** rng.uniform(-3.0, 3.0))
        worst = max(worst, abs(lambda1_closed_form(b, e, x, rate) - b) / b)
        expect = 1.0 + power * b
        worst = max(worst,
                    abs(lambda_delta_closed_form(b, e, x, power) - expect) / expect)
    assert worst <= 1e-12
    print(f"PASS zero-coupling identities: worst rel {worst:.3g}, tol 1e-12")


def _case_boundary_distance(n, plan, coeffs, rf):
    term = _cosine_term(n, rf.carrier_frequency + plan.offsets, coeffs)
    w = abs(float(coeffs[0][n]))
    b = w * rf.carrier_frequency - term.phase
    a = b - 2.0 * math.pi * math.floor(b / (2.0 * math.pi))
    c = w * rf.max_offset
    edges = (abs(a - math.pi), abs(c + a - math.pi),
             abs(c + 2.0 * a - 4.0 * math.pi), abs(c + a - 3.0 * math.pi))
    return min(edges)


def test_coordinate_update_matches_million_point_scan():
    """The closed-form 1-D frequency update is optimal within the resolution
    of a 10^6-point grid on 1000 random subproblems, and the five-case
    branch form agrees with the generic argmin to 1e-10 in objective value
    away from its case boundaries."""
    rng = np.random.default_rng(777)
    count = 1_000_001
    worst_over = worst_under = worst_table = 0.0
    boundary_skips = 0
    t0 = time.perf_counter()
    for _ in range(1000):
        scenario = random_scenario(rng)
        plan = random_plan(rng, scenario.array.element_count)
        coeffs = (scenario.omega, scenario.alpha)
        omega, alpha = coeffs
        rf = scenario.rf
        n = int(rng.integers(0, scenario.array.element_count))
        f_new = _best_frequency(n, rf.carrier_frequency + plan.offsets, coeffs, rf)

        freqs = rf.carrier_frequency + np.array(plan.offsets)
        mask = np.arange(freqs.shape[0]) != n
        weights = 2.0 * alpha[n] * alpha[mask]
        phases = omega[mask] * freqs[mask]
        slope = float(omega[n])
        _, v_grid = coordinate_scan(
            weights, phases, slope, rf.carrier_frequency,
            rf.carrier_frequency + rf.max_offset, count)
        v_closed = float(np.sum(weights * np.cos(slope * f_new - phases)))
        scale = float(np.sum(weights))
        noise = 1e-11 * scale  # cos() at ~1e3 rad arguments is a few ulp off
        step = rf.max_offset / (count - 1)
        resolution = scale * abs(slope) * step + noise
        assert v_closed <= v_grid + noise
        assert v_grid <= v_closed + resolution
        worst_over = max(worst_over, (v_closed - v_grid) / noise)
        worst_under = max(worst_under, (v_grid - v_closed) / resolution)

        f_table = update_frequency_case_table(n, plan, coeffs, rf)
        if _case_boundary_distance(n, plan, coeffs, rf) < 1e-9:
            boundary_skips += 1
            continue
        term = _cosine_term(n, rf.carrier_frequency + plan.offsets, coeffs)
        w = abs(float(omega[n]))
        v_generic = math.cos(w * f_new - term.phase)
        v_branch = math.cos(w * f_table - term.phase)
        diff = abs(v_branch - v_generic)
        assert diff <= 1e-10
        worst_table = max(worst_table, diff)
    elapsed = time.perf_counter() - t0
    print(f"PASS coordinate update vs 1e6-point scan: worst over/under "
          f"{worst_over:.3g}/{worst_under:.3g} of slack, branch-form diff "
          f"{worst_table:.3g} (tol 1e-10, {boundary_skips} boundary skips), "
          f"{elapsed:.1f} s")


def test_offset_optimizer_monotone_quick_and_grid_optimal():
    """Three properties of the coordinate-descent offset optimizer: the
    recorded objective never increases (1e-12 relative slack); the median
    sweep count at reference parameters is at most 5; and for N = 2 the
    final coupling matches a 1000 x 1000 exhaustive grid on at least 95 of
    100 random layouts."""
    config = ExperimentConfig(realizations=100, rng_seed=11)
    rng = np.random.default_rng(90210)
    for _ in range(100):
        scenario = random_scenario(rng)
        _, trace = optimize_offsets(scenario)
        hist = np.asarray(trace.objective_history)
        assert np.all(np.diff(hist) <= 1e-12 * hist[:-1])

    study = run_convergence_study(config)
    medians = {n: float(np.median(study.outer_counts[n])) for n in config.antenna_counts}
    assert all(m <= 5.0 for m in medians.values()), medians

    hits = 0
    rng2 = np.random.default_rng(4242)
    for _ in range(100):
        scenario = sample_scenario(rng2, config, element_count=2)
        plan, _ = optimize_offsets(scenario, tol=1e-10, max_outer=200)
        g_opt = g_value(scenario, plan)
        _, g_grid = grid_oracle(scenario, 1000)
        omega, alpha = scenario.omega, scenario.alpha
        pref = scenario.rf.coupling_prefactor
        stepsum = float(np.sum(2.0 * pref * alpha * np.abs(omega)
                               * float(np.sum(alpha))))
        resolution = stepsum * 0.5 * scenario.rf.max_offset / 999
        if abs(g_opt - g_grid) <= resolution + 1e-9 * g_grid:
            hits += 1
    assert hits >= 95
    print(f"PASS offset optimizer: monotone on 100/100 traces, median sweeps "
          f"{medians}, N=2 grid agreement {hits}/100 (need 95)")


def test_power_sweep_scheme_ordering_and_array_gain():
    """Mean minimum power obeys floor <= optimized <= linear offsets <= no
    offsets for every antenna count, the optimized-to-floor gap shrinks from
    N = 2 to N = 8, and the 100-realization sweep finishes inside 60 s."""
    config = ExperimentConfig(realizations=100, rng_seed=1)
    t0 = time.perf_counter()
    result = run_power_sweep(config, workers=1)
    elapsed = time.perf_counter() - t0
    bound = scheme_mean(result, "bound")
    proposed = scheme_mean(result, "proposed")
    linear = scheme_mean(result, "linear")
    phased = scheme_mean(result, "phased")
    assert np.all(bound <= proposed * (1.0 + 1e-12))
    assert np.all(proposed <= linear)
    assert np.all(linear <= phased)
    gap = proposed - bound
    assert gap[-1] < gap[0]  # N = 8 sits closer to the floor than N = 2
    assert elapsed < 60.0
    print(f"PASS power sweep: means ordered for N={tuple(int(x) for x in result.axis)}, "
          f"optimized-floor gap {gap[0]:.3g} -> {gap[-1]:.3g} W, {elapsed:.2f} s")


def test_rate_sweep_monotone_and_ordered():
    """Mean secrecy rate grows with transmit power for every scheme, scheme
    means are ordered ceiling >= optimized >= linear >= no offsets, and the
    eigensolver beamformer beats steering straight at Bob on every
    realization and power."""
    config = ExperimentConfig(realizations=100, rng_seed=2, antenna_counts=(3,))
    result = run_rate_sweep(config, workers=1)
    for s in ("bound", "proposed", "linear", "phased", "mrt"):
        assert np.all(np.diff(scheme_mean(result, s)) >= -1e-12), s
    assert np.all(scheme_mean(result, "bound") >= scheme_mean(result, "proposed") - 1e-12)
    assert np.all(scheme_mean(result, "proposed") >= scheme_mean(result, "linear") - 1e-12)
    assert np.all(scheme_mean(result, "linear") >= scheme_mean(result, "phased") - 1e-12)
    assert np.all(result.values["proposed"] >= result.values["mrt"] - 1e-9)
    span = scheme_mean(result, "proposed")
    print(f"PASS rate sweep: monotone and ordered over "
          f"{10.0 * math.log10(result.axis[-1] / result.axis[0]):.0f} dB, "
          f"mean optimized rate {span[0]:.3g} -> {span[-1]:.3g} bits")


def test_min_power_exact_target_and_dominance():
    """Every feasible minimum-power design hits the target rate to 1e-9
    absolute, never beats the eavesdropper-free floor, and never needs more
    power than plain maximum-ratio transmission; a zero-coupling layout
    makes the last comparison an exact tie."""
    rng = np.random.default_rng(424242)
    worst_rate = 0.0
    feasible = mrt_finite = 0
    for i in range(300):
        pair = random_pair(rng, shared_bearing=bool(i % 2))
        target = SecrecyTarget(float(rng.uniform(0.5, 12.0)))
        sol = min_power_beamformer(pair, target)
        if not sol.feasible:
            continue
        feasible += 1
        worst_rate = max(worst_rate,
                         abs(secrecy_rate(sol.beamformer, pair) - target.rate))
        assert sol.power >= power_lower_bound(pair, target) * (1.0 - 1e-12)
        b, _, x = channel_stats(pair)
        p_mrt = mrt_required_power(b, target.rate, x)
        if math.isfinite(p_mrt):
            mrt_finite += 1
            assert sol.power <= p_mrt * (1.0 + 1e-12)
    assert worst_rate <= 1e-9
    assert feasible >= 250

    h_b = np.zeros(4, dtype=complex)
    h_e = np.zeros(4, dtype=complex)
    h_b[0] = 600.0 * np.exp(0.4j)
    h_e[2] = 500.0
    pair0 = ChannelPair(h_bob=h_b, h_eve=h_e)
    target = SecrecyTarget(6.0)
    sol0 = min_power_beamformer(pair0, target)
    assert sol0.power == mrt_required_power(channel_stats(pair0)[0], target.rate, 0.0)
    print(f"PASS exact target and dominance: worst |rate - target| "
          f"{worst_rate:.3g} (tol 1e-9) over {feasible} feasible solves, "
          f"MRT dominated in {mrt_finite} finite cases, zero-coupling tie exact")


def test_designs_time_invariant_over_pulse():
    """Optimized offsets, the coupling, the minimum power and the maximum
    rate all agree to 1e-9 relative across 21 sampling instants spanning
    the 20 us horizon."""
    config = ExperimentConfig()
    rng = np.random.default_rng(55)
    times = np.linspace(0.0, 20e-6, 21)
    worst = 0.0
    for k in range(10):
        n = (2, 4, 6, 8)[k % 4]
        scenario = sample_scenario(rng, config, element_count=n)
        plan, _ = optimize_offsets(scenario)
        g_ref = p_ref = r_ref = None
        for t in times:
            pair = channel_pair(scenario, plan, float(t))
            g = abs(np.vdot(pair.h_eve, pair.h_bob)) ** 2
            p = min_power_beamformer(pair, SecrecyTarget(10.0)).power
            r = max_rate_beamformer(pair, PowerBudget(1.0)).rate
            if g_ref is None:
                g_ref, p_ref, r_ref = g, p, r
                continue
            worst = max(worst,
                        abs(g - g_ref) / g_ref if g_ref else 0.0,
                        abs(p - p_ref) / p_ref,
                        abs(r - r_ref) / r_ref)
    assert worst <= 1e-9
    print(f"PASS time invariance: worst rel spread {worst:.3g} over 21 "
          f"samples in [0, 20 us], tol 1e-9")


def test_sweep_csv_bytes_worker_invariant(tmp_path, monkeypatch):
    """The exact CSV bytes of a sweep depend only on seed and config, not on
    how many worker processes produced them."""
    pool_processes = pool_on_every_task_list(monkeypatch, tmp_path)
    pcfg = ExperimentConfig(realizations=8, rng_seed=5, antenna_counts=(2, 3))
    blobs, seen = [], set()
    for workers in (1, 2, 3):
        path = tmp_path / f"power_{workers}.csv"
        write_sweep_csv(run_power_sweep(pcfg, workers=workers), path)
        blobs.append(path.read_bytes())
        assert bool(pool_processes() - seen) == (workers > 1)  # a new pool ran
        seen = pool_processes()
    assert blobs[0] == blobs[1] == blobs[2]

    rcfg = ExperimentConfig(realizations=6, rng_seed=5, antenna_counts=(3,))
    r1 = tmp_path / "rate_1.csv"
    r2 = tmp_path / "rate_2.csv"
    write_sweep_csv(run_rate_sweep(rcfg, workers=1), r1)
    assert pool_processes() == seen
    write_sweep_csv(run_rate_sweep(rcfg, workers=2), r2)
    assert pool_processes() - seen
    assert r1.read_bytes() == r2.read_bytes()

    again = tmp_path / "power_again.csv"
    write_sweep_csv(run_power_sweep(pcfg, workers=1), again)
    assert again.read_bytes() == blobs[0]
    print("PASS determinism: sweep CSVs byte-identical across 1/2/3 workers "
          "and across repeat runs")
