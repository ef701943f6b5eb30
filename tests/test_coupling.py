"""Coupling factorization and the coordinate-descent offset optimizer."""

import cmath
import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fdabeam import kernels
from fdabeam.coupling import (
    cosine_argmin,
    g_value,
    optimize_offsets,
)
from fdabeam.experiments import ExperimentConfig, linear_fda_plan
from fdabeam.scenario import ArrayGeometry, FrequencyPlan, channel_pair

import helpers
from helpers import (
    CARRIER,
    MAX_OFFSET,
    _best_frequency,
    _cosine_term,
    coordinate_scan,
    coupling_power_row,
    draw_realization,
    grid_oracle,
    half_wave_scenario,
    random_plan,
    random_scenario,
    reference_descent,
    two_level_optimum,
    update_frequency_case_table,
    zero_plan_descent,
)

# Geometry coefficients for the four-element half-wavelength array with Bob
# at (100 m, 60 deg) and Eve at (120 m, 60 deg), computed directly from the
# element distances.
OMEGA_REFERENCE = np.array([
    4.191690043903361e-07,
    4.191689532637599e-07,
    4.19168799766976e-07,
    4.191685437243469e-07,
])
ALPHA_REFERENCE = np.array([
    8.333333333333332e-05,
    8.338104323108234e-05,
    8.342875280719005e-05,
    8.347646196555599e-05,
])
PREFACTOR_REFERENCE = 9.763339443981865e+17
G_ZERO_OFFSETS_REFERENCE = 108667931557.07637


def _reference_scenario():
    return half_wave_scenario(4, 100.0, math.pi / 3, 120.0, math.pi / 3)


def test_coefficients_frozen_values():
    scenario = _reference_scenario()
    assert_allclose(scenario.omega, OMEGA_REFERENCE, rtol=1e-12)
    assert_allclose(scenario.alpha, ALPHA_REFERENCE, rtol=1e-12)


def test_prefactor_frozen_value():
    assert_allclose(_reference_scenario().rf.coupling_prefactor,
                    PREFACTOR_REFERENCE, rtol=1e-12)


def test_g_zero_offsets_frozen_value():
    scenario = _reference_scenario()
    plan = FrequencyPlan(np.zeros(4))
    assert_allclose(g_value(scenario, plan), G_ZERO_OFFSETS_REFERENCE,
                    rtol=1e-12)


def test_g_matches_channel_inner_product():
    """The geometric factorization reproduces |h_e^H h_b|^2 of the sampled
    channels, independent of the sampling instant."""
    rng = np.random.default_rng(7)
    for _ in range(20):
        scenario = random_scenario(rng)
        plan = random_plan(rng, scenario.array.element_count)
        t = float(rng.uniform(0.0, 20e-6))
        pair = channel_pair(scenario, plan, t)
        direct = abs(np.vdot(pair.h_eve, pair.h_bob)) ** 2
        assert_allclose(g_value(scenario, plan), direct, rtol=1e-10)


def test_g_time_invariant():
    rng = np.random.default_rng(8)
    scenario = random_scenario(rng, n=5)
    plan = random_plan(rng, scenario.array.element_count)
    values = []
    for t in np.linspace(0.0, 20e-6, 9):
        pair = channel_pair(scenario, plan, float(t))
        values.append(abs(np.vdot(pair.h_eve, pair.h_bob)) ** 2)
    assert_allclose(values, values[0], rtol=1e-11)


def test_g_rejects_plan_length_mismatch():
    scenario = _reference_scenario()
    with pytest.raises(ValueError):
        g_value(scenario, FrequencyPlan(np.zeros(3)))


def test_plan_checks_match_channel_synthesis():
    """g_value, the descent's start and channel_pair reject the same plans
    with the same message: one of the wrong length and one over budget."""
    scenario = _reference_scenario()
    bad = [(FrequencyPlan(np.zeros(3)), "plan length does not match element count"),
           (FrequencyPlan(np.full(4, 1e9)), "offsets exceed max_offset")]
    for plan, message in bad:
        for call in (lambda: g_value(scenario, plan),
                     lambda: optimize_offsets(scenario, initial=plan),
                     lambda: channel_pair(scenario, plan, 0.0)):
            with pytest.raises(ValueError, match=f"^{message}$"):
                call()


# ---------------------------------------------------------------------------
# single-coordinate pieces


def test_cosine_argmin_interior():
    assert cosine_argmin(0.0, 2.0 * math.pi) == math.pi
    assert cosine_argmin(2.5 * math.pi, 3.5 * math.pi) == 3.0 * math.pi
    # several odd multiples inside: the smallest one wins
    assert cosine_argmin(0.0, 10.0 * math.pi) == math.pi


def test_cosine_argmin_endpoints():
    # no odd multiple of pi inside: endpoint with the smaller cosine
    assert cosine_argmin(-0.5, 0.7) == 0.7
    assert cosine_argmin(math.pi + 0.1, 2.0 * math.pi) == math.pi + 0.1
    # symmetric window: tie goes to the lower endpoint
    assert cosine_argmin(-1.0, 1.0) == -1.0
    assert cosine_argmin(0.3, 0.3) == 0.3
    # an unbounded upper end still holds the first odd multiple of pi
    assert cosine_argmin(0.0, math.inf) == math.pi


@pytest.mark.parametrize("lower, upper, match", [
    (1.0, 0.0, "empty interval"),
    (math.nan, 1.0, "NaN bound"),
    (0.0, math.nan, "NaN bound"),
    (math.nan, math.nan, "NaN bound"),
    (math.inf, math.inf, "lower bound must be finite"),
    (-math.inf, 0.0, "lower bound must be finite"),
    (-math.inf, math.inf, "lower bound must be finite"),
])
def test_cosine_argmin_rejects_bad_bounds(lower, upper, match):
    with pytest.raises(ValueError, match=match):
        cosine_argmin(lower, upper)


def test_cosine_argmin_stays_inside_near_odd_multiples_of_pi():
    """With ``lower`` on or one ulp above an odd multiple of pi, ``k pi`` can
    round to just below ``lower``; the result stays in the interval and
    is no worse than either endpoint."""
    assert cosine_argmin(-4074.6456717059614, -4073.6456717059614) == -4074.6456717059614
    rng = np.random.default_rng(17)
    below = 0
    for _ in range(20000):
        k = 2 * int(rng.integers(-1592, 1592)) + 1  # |k pi| <= 1e4
        lower = k * math.pi
        if rng.random() < 0.5:
            lower = math.nextafter(lower, math.inf)
        upper = lower + float(rng.choice([0.0, rng.uniform(0.0, 1.0),
                                          rng.uniform(0.0, 10.0)]))
        below += math.ceil(lower / math.pi) * math.pi < lower
        x = cosine_argmin(lower, upper)
        assert lower <= x <= upper
        assert math.cos(x) <= min(math.cos(lower), math.cos(upper))
    assert below > 0  # the sweep reaches the case


def test_cosine_argmin_matches_dense_grid():
    rng = np.random.default_rng(11)
    for _ in range(200):
        lo = float(rng.uniform(-20.0, 20.0))
        hi = lo + float(rng.uniform(0.0, 15.0))
        x = cosine_argmin(lo, hi)
        assert lo <= x <= hi
        grid = np.linspace(lo, hi, 4001)
        assert math.cos(x) <= float(np.min(np.cos(grid))) + 1e-7


def test_cosine_term_reduces_single_coordinate():
    """Freezing all but one frequency leaves amplitude*cos(|omega_n| f - phase)
    plus a constant; check differences of g against the reduced form."""
    rng = np.random.default_rng(21)
    for _ in range(10):
        scenario = random_scenario(rng, n=4)
        plan = random_plan(rng, scenario.array.element_count)
        coeffs = (scenario.omega, scenario.alpha)
        omega, alpha = coeffs
        pref = scenario.rf.coupling_prefactor
        n = int(rng.integers(0, 4))
        term = _cosine_term(n, scenario.rf.carrier_frequency + plan.offsets, coeffs)
        w = abs(omega[n])
        freqs = scenario.rf.carrier_frequency + np.array(plan.offsets)
        f_probe = scenario.rf.carrier_frequency + rng.uniform(
            0.0, scenario.rf.max_offset, size=3)
        base = None
        base_cos = None
        for f in f_probe:
            trial = freqs.copy()
            trial[n] = f
            g = pref * coupling_power_row(alpha, omega, trial)
            reduced = 2.0 * pref * alpha[n] * term.amplitude * math.cos(
                w * f - term.phase)
            if base is None:
                base, base_cos = g, reduced
            else:
                assert_allclose(g - base, reduced - base_cos,
                                atol=1e-9 * abs(base) + 1e-6)


def test_update_frequency_beats_dense_scan():
    """The closed-form coordinate update is at least as good as a 200k-point
    scan of the same 1-D slice (up to grid resolution and evaluation noise)."""
    rng = np.random.default_rng(31)
    count = 200_001
    for _ in range(30):
        scenario = random_scenario(rng)
        plan = random_plan(rng, scenario.array.element_count)
        coeffs = (scenario.omega, scenario.alpha)
        omega, alpha = coeffs
        rf = scenario.rf
        n = int(rng.integers(0, scenario.array.element_count))
        f_new = _best_frequency(n, rf.carrier_frequency + plan.offsets, coeffs, rf)
        assert rf.carrier_frequency <= f_new <= rf.carrier_frequency + rf.max_offset

        freqs = rf.carrier_frequency + np.array(plan.offsets)
        mask = np.arange(freqs.shape[0]) != n
        weights = 2.0 * alpha[n] * alpha[mask]
        phases = omega[mask] * freqs[mask]
        slope = float(omega[n])
        _, v_grid = coordinate_scan(
            weights, phases, slope, rf.carrier_frequency,
            rf.carrier_frequency + rf.max_offset, count)
        v_closed = float(np.sum(weights * np.cos(slope * f_new - phases)))
        # cos() of ~1000-rad arguments carries a few ulps of argument error,
        # so allow noise proportional to the total weight.
        noise = 1e-11 * float(np.sum(weights))
        assert v_closed <= v_grid + noise
        # and the scan can only beat the closed form by the grid resolution
        step = rf.max_offset / (count - 1)
        resolution = float(np.sum(weights)) * abs(slope) * step
        assert v_grid <= v_closed + resolution + noise


def test_update_never_increases_g():
    rng = np.random.default_rng(37)
    for _ in range(25):
        scenario = random_scenario(rng)
        plan = random_plan(rng, scenario.array.element_count)
        coeffs = (scenario.omega, scenario.alpha)
        g_before = g_value(scenario, plan)
        n = int(rng.integers(0, scenario.array.element_count))
        rf = scenario.rf
        f_new = _best_frequency(n, rf.carrier_frequency + plan.offsets, coeffs, rf)
        offsets = np.array(plan.offsets)
        offsets[n] = f_new - scenario.rf.carrier_frequency
        g_after = g_value(scenario, FrequencyPlan(offsets))
        assert g_after <= g_before * (1.0 + 1e-12) + 1e-11 * g_before


def test_case_table_matches_generic_update():
    """The five-case closed form and the generic argmin may pick different
    (equally good) frequencies at case boundaries, so compare objectives."""
    rng = np.random.default_rng(41)
    for _ in range(200):
        scenario = random_scenario(rng)
        plan = random_plan(rng, scenario.array.element_count)
        coeffs = (scenario.omega, scenario.alpha)
        omega, _ = coeffs
        rf = scenario.rf
        n = int(rng.integers(0, scenario.array.element_count))
        f_generic = _best_frequency(n, rf.carrier_frequency + plan.offsets, coeffs, rf)
        f_table = update_frequency_case_table(n, plan, coeffs, rf)
        term = _cosine_term(n, rf.carrier_frequency + plan.offsets, coeffs)
        w = abs(omega[n])
        v_generic = term.amplitude * math.cos(w * f_generic - term.phase)
        v_table = term.amplitude * math.cos(w * f_table - term.phase)
        assert abs(v_table - v_generic) <= 1e-10 * term.amplitude


def test_update_degenerate_coordinates():
    # equal Bob/Eve ranges on a shared bearing: omega = 0 everywhere, any
    # frequency is optimal and the update must leave the plan untouched
    scenario = half_wave_scenario(3, 80.0, 0.9, 80.0, 0.9)
    coeffs = (scenario.omega, scenario.alpha)
    assert_allclose(coeffs[0], 0.0, atol=1e-18)
    plan = FrequencyPlan(np.array([0.0, 1e6, 2e6]))
    rf = scenario.rf
    for n in range(3):
        f_new = _best_frequency(n, rf.carrier_frequency + plan.offsets, coeffs, rf)
        assert f_new == scenario.rf.carrier_frequency + plan.offsets[n]

    # zero offset budget pins every frequency at the carrier
    scenario2 = half_wave_scenario(3, 80.0, 0.9, 120.0, 1.4)
    rf2 = dataclasses.replace(scenario2.rf, max_offset=0.0)
    scenario2 = dataclasses.replace(scenario2, rf=rf2)
    coeffs2 = (scenario2.omega, scenario2.alpha)
    plan2 = FrequencyPlan(np.zeros(3))
    for n in range(3):
        f_new = _best_frequency(n, rf2.carrier_frequency + plan2.offsets, coeffs2, rf2)
        assert f_new == rf2.carrier_frequency


# ---------------------------------------------------------------------------
# full optimizer


def test_optimize_monotone_history():
    """Every recorded objective value is nonincreasing, the history length is
    1 + (inner updates), and the final entry matches the returned plan.

    Scenarios where the coupling can be driven to (numerical) zero shrink g
    geometrically, so the relative-decrease rule may not fire within the
    sweep budget; stopping at ``max_outer`` is then the documented behavior.
    """
    rng = np.random.default_rng(51)
    for _ in range(10):
        scenario = random_scenario(rng)
        plan, trace = optimize_offsets(scenario)
        hist = np.asarray(trace.objective_history)
        assert hist.ndim == 1
        n = scenario.array.element_count
        assert (hist.shape[0] - 1) % n == 0
        assert hist.shape[0] == 1 + n * trace.outer_iterations
        assert np.all(np.diff(hist) <= 1e-12 * hist[:-1])
        assert trace.converged or trace.outer_iterations == 50
        assert_allclose(g_value(scenario, plan), hist[-1], rtol=1e-12)
        assert np.all(plan.offsets >= 0.0)
        assert np.all(plan.offsets <= scenario.rf.max_offset)


def test_optimize_history_starts_at_initial_plan():
    rng = np.random.default_rng(53)
    scenario = random_scenario(rng, n=4)
    zero = FrequencyPlan(np.zeros(4))
    _, trace = optimize_offsets(scenario)
    assert_allclose(trace.objective_history[0], g_value(scenario, zero),
                    rtol=1e-12)
    start = random_plan(rng, scenario.array.element_count)
    _, trace2 = optimize_offsets(scenario, initial=start)
    assert_allclose(trace2.objective_history[0], g_value(scenario, start),
                    rtol=1e-12)


def test_optimize_result_is_a_fixed_point():
    """Restarting from a converged plan must terminate within one sweep
    and cannot improve the objective beyond the stop tolerance."""
    rng = np.random.default_rng(57)
    for _ in range(5):
        scenario = random_scenario(rng)
        # a generous sweep budget so even coupling-nulling geometries reach
        # the relative-decrease stop instead of the iteration cap
        plan, trace = optimize_offsets(scenario, tol=1e-10, max_outer=2000)
        assert trace.converged
        plan2, trace2 = optimize_offsets(scenario, initial=plan, tol=1e-10)
        assert trace2.outer_iterations == 1
        g1 = trace.objective_history[-1]
        g2 = trace2.objective_history[-1]
        assert g1 - g2 <= 1e-10 * g1


def test_optimize_single_element():
    # with one element the coupling K*alpha^2 does not depend on the
    # frequency at all
    scenario = half_wave_scenario(1, 90.0, 1.0, 130.0, 0.4)
    plan, trace = optimize_offsets(scenario)
    alpha = scenario.alpha
    expected = scenario.rf.coupling_prefactor * float(alpha[0]) ** 2
    assert_allclose(trace.objective_history, expected, rtol=1e-12)
    assert trace.converged
    assert_allclose(g_value(scenario, plan), expected, rtol=1e-12)


def test_optimize_rejects_bad_initial():
    scenario = _reference_scenario()
    with pytest.raises(ValueError):
        optimize_offsets(scenario, initial=FrequencyPlan(np.zeros(3)))


@pytest.mark.parametrize("kwargs, match", [
    ({"tol": math.nan}, "tol"),
    ({"tol": math.inf}, "tol"),
    ({"tol": -1.0}, "tol"),
    ({"max_outer": -3}, "max_outer"),
    ({"max_outer": math.nan}, "max_outer must be a non-negative integer"),
    ({"max_outer": 2.5}, "max_outer must be a non-negative integer"),
    ({"max_outer": True}, "max_outer must be a non-negative integer"),
])
def test_optimize_rejects_bad_stopping_rule(kwargs, match):
    with pytest.raises(ValueError, match=match):
        optimize_offsets(_reference_scenario(), **kwargs)


# ---------------------------------------------------------------------------
# bit-identity with the full-recompute descent

# (Bob's range, shared angle) of N = 128 layouts drawn in the 20 x 20 cell
# grid of the descent_large benchmark workload; Eve sits 20 m behind Bob.
DESCENT_LARGE_LAYOUTS = [
    (51.9262739909179, 0.9295975673624087),    # 50-sweep cap, 5 rejections
    (53.35922613725102, 1.9616637774189225),   # 50-sweep cap, none rejected
    (51.974125771787335, 0.761879814031659),   # 30 sweeps, 71 rejections
    (80.17071759534423, 1.4694276555949985),   # 13 sweeps
    (103.67072263959163, 0.4923875017519383),  # 2 sweeps
    (146.25056109683425, 3.0110498145418596),  # 2 sweeps
]


def _descent_large_scenario(r_bob, angle):
    return half_wave_scenario(128, r_bob, angle, r_bob + 20.0, angle)


def _assert_same_descent(got, want):
    (plan, trace), (ref_plan, ref_trace) = got, want
    assert plan.offsets.tobytes() == ref_plan.offsets.tobytes()
    assert (np.array(trace.objective_history).tobytes()
            == np.array(ref_trace.objective_history).tobytes())
    assert trace.outer_iterations == ref_trace.outer_iterations
    assert trace.converged == ref_trace.converged
    assert trace.rejected_updates == ref_trace.rejected_updates


@pytest.mark.parametrize("layout", DESCENT_LARGE_LAYOUTS)
def test_descent_bitwise_on_descent_large_layouts(layout):
    scenario = _descent_large_scenario(*layout)
    _assert_same_descent(optimize_offsets(scenario), reference_descent(scenario))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 9, 16])
def test_descent_bitwise_on_random_inputs(n):
    """Random layouts, random starting plans and non-default stopping rules
    give the same arithmetic as the full-recompute descent."""
    rng = np.random.default_rng(1000 + n)
    for k in range(12):
        scenario = random_scenario(rng, n=n, shared_bearing=bool(k % 2))
        kwargs = {}
        if k % 3 != 0:
            kwargs["initial"] = random_plan(rng, n)
        if k % 4 == 1:
            kwargs["tol"] = float(10.0 ** rng.uniform(-14.0, -3.0))
            kwargs["max_outer"] = int(rng.integers(0, 8))
        _assert_same_descent(optimize_offsets(scenario, **kwargs),
                             reference_descent(scenario, **kwargs))


@pytest.mark.parametrize("n", [9, 10, 65, 66, 130, 131, 300])
def test_descent_bitwise_at_pairwise_sum_widths(n):
    """numpy's pairwise sum changes form past 8 and past 128 summands; the
    rest rows hold N - 1 values and the coupling sum adds N complex terms as
    2N doubles, so these widths put both on each side of every switch."""
    rng = np.random.default_rng(3000 + n)
    for k in range(4):
        scenario = random_scenario(rng, n=n, shared_bearing=bool(k % 2))
        initial = random_plan(rng, n) if k >= 2 else None
        _assert_same_descent(optimize_offsets(scenario, initial=initial),
                             reference_descent(scenario, initial=initial))


def test_descent_bitwise_on_degenerate_coordinates():
    # no offset budget: every coordinate is degenerate
    scenario = half_wave_scenario(8, 80.0, 0.9, 120.0, 1.4)
    scenario = dataclasses.replace(
        scenario, rf=dataclasses.replace(scenario.rf, max_offset=0.0))
    _assert_same_descent(optimize_offsets(scenario), reference_descent(scenario))

    # Bob and Eve on a circle around element k (which sits at x = 0), so
    # omega_k = 0 while every other coordinate still moves; at N = 2 the sum
    # over the other element is then real, with an imaginary part of exactly 0
    for n, k in ((8, 3), (5, 2), (2, 1)):
        base = half_wave_scenario(n, 100.0, math.pi / 2, 100.0, 0.0)
        d = base.array.spacing
        scenario = dataclasses.replace(base, array=ArrayGeometry(n, -k * d, d))
        omega = scenario.omega
        assert omega[k] == 0.0 and np.count_nonzero(omega) == n - 1
        start = random_plan(np.random.default_rng(5), n)
        for initial in (None, start):
            _assert_same_descent(optimize_offsets(scenario, initial=initial),
                                 reference_descent(scenario, initial=initial))


@pytest.mark.parametrize("n", [1, 2, 3, 8, 32])
def test_default_start_equals_explicit_zero_plan_bitwise(n):
    """``initial=None`` starts from f_c without building a plan, with the
    offsets, history and guard count of an explicit all-zero plan."""
    rng = np.random.default_rng(2000 + n)
    for k in range(6):
        scenario = random_scenario(rng, n=n, shared_bearing=bool(k % 2))
        _assert_same_descent(optimize_offsets(scenario), zero_plan_descent(scenario))


def test_rejected_updates_counts_the_guard():
    _, trace = optimize_offsets(half_wave_scenario(1, 90.0, 1.0, 130.0, 0.4))
    assert trace.rejected_updates == 0
    scenario = _descent_large_scenario(*DESCENT_LARGE_LAYOUTS[0])
    _, trace = optimize_offsets(scenario)
    assert trace.outer_iterations == 50 and not trace.converged
    assert trace.rejected_updates > 0
    assert trace.rejected_updates == reference_descent(scenario)[1].rejected_updates


def _argmin_branch(lower, upper):
    """Which outcome ``cosine_argmin(lower, upper)`` takes: "interior" (the
    smallest odd multiple of pi from lower on, inside), "clamp" (that
    multiple rounded to just below lower, which is returned), "lower" or
    "upper" (the endpoint with the smaller cosine)."""
    k = math.ceil(lower / math.pi)
    x = (k + 1 if k % 2 == 0 else k) * math.pi
    if x <= upper:
        return "interior" if x >= lower else "clamp"
    return "lower" if math.cos(lower) <= math.cos(upper) else "upper"


def _reference_branches(monkeypatch, scenario, initial):
    """The full-recompute descent from ``initial`` and the set of argmin
    outcomes its coordinate visits took."""
    seen = set()

    def recording(lower, upper):
        seen.add(_argmin_branch(lower, upper))
        return cosine_argmin(lower, upper)

    monkeypatch.setattr(helpers, "cosine_argmin", recording)
    return reference_descent(scenario, initial=initial), seen


def _endpoint_geometry(n):
    return half_wave_scenario(n, 100.0, math.radians(60.0), 120.0, math.radians(140.0))


def _clamp_geometry(n, r_eve):
    """Eve about 81.44 m farther than Bob from element 0, so |omega_0| f_c is
    just above 4096: coordinate 0's lower bound can reach 4093.4952276275008,
    the double just above 1303 pi whose quotient by pi rounds to 1303."""
    return half_wave_scenario(n, 100.0, 1.0, r_eve, 1.3)


# Descents that take each outcome of the argmin on both sides of N = 9.
# Bob at 60 deg and Eve at 140 deg (6 sweeps at N = 4 and 12) reach both
# endpoints and interior multiples.  The two clamp layouts start from plans
# found by scanning element 1's frequency ulp by ulp: coordinate 0's first
# visit lands on the clamp, where returning lower gives f_c plus one ulp
# and the multiple just below it would give f_c, and that ulp survives to
# the end plan (9 and 6 sweeps).  Elsewhere the clamp of f into
# [f_c, f_c + f_m] hides the argmin's clamp: the INI block's geometry at
# N = 8 and 9 reaches it, with the same outputs either way.
ARGMIN_BRANCH_CASES = [
    pytest.param(_endpoint_geometry(4), None, {"interior", "lower", "upper"},
                 id="N=4-interior-and-endpoints"),
    pytest.param(_endpoint_geometry(12), None, {"interior", "lower", "upper"},
                 id="N=12-interior-and-endpoints"),
    pytest.param(_clamp_geometry(4, 181.43945669684626),
                 FrequencyPlan(np.array([1500000.0, 1311798.22955513, 98972.39319528233,
                                         1302665.9859932936])),
                 {"clamp"}, id="N=4-clamp"),
    pytest.param(_clamp_geometry(12, 181.4378421858703),
                 FrequencyPlan(np.array([1500000.0, 998036.7432928085, 628095.7970760805,
                                         88002.80179987228, 260514.82461414256,
                                         634356.1695695193, 394090.3386073857,
                                         456389.5382606388, 822215.291040196,
                                         842087.3054821491, 558768.2835144091,
                                         809815.4477555125])),
                 {"clamp"}, id="N=12-clamp"),
]


@pytest.mark.parametrize("scenario, initial, branches", ARGMIN_BRANCH_CASES)
def test_descent_bitwise_through_each_argmin_branch(monkeypatch, scenario, initial,
                                                    branches):
    """The descent inlines ``cosine_argmin``, which the full-recompute
    descent calls: on layouts whose visits take each of its outcomes, the
    two descents agree bit for bit."""
    want, seen = _reference_branches(monkeypatch, scenario, initial)
    assert branches <= seen
    _assert_same_descent(optimize_offsets(scenario, initial=initial), want)


# ---------------------------------------------------------------------------
# the returned plan: built without FrequencyPlan's copy and checks


def _assert_owned_bounded_plan(plan, scenario):
    """The plan's offsets are a read-only (N,) float64 array within
    [0, f_m] that ``FrequencyPlan`` accepts with the same bytes."""
    offsets = plan.offsets
    assert offsets.dtype == np.float64
    assert offsets.shape == (scenario.array.element_count,)
    assert not offsets.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        offsets[0] = 0.0
    assert FrequencyPlan(offsets).offsets.tobytes() == offsets.tobytes()
    assert offsets.min() >= 0.0 and offsets.max() <= scenario.rf.max_offset


@pytest.mark.parametrize("layout", DESCENT_LARGE_LAYOUTS)
def test_returned_plan_is_read_only_and_valid_on_descent_large_layouts(layout):
    scenario = _descent_large_scenario(*layout)
    _assert_owned_bounded_plan(optimize_offsets(scenario)[0], scenario)


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_returned_plan_is_read_only_and_valid_on_sweep_layouts(seed):
    config = ExperimentConfig(rng_seed=seed)
    for n in range(2, 13):
        for index in range(20):
            scenario, plan, _ = draw_realization(config, n, index)
            _assert_owned_bounded_plan(plan, scenario)


@pytest.mark.parametrize("scale", [0.0, 1.0, 1.0 + 1e-12])
@pytest.mark.parametrize("max_outer", [0, 1, 50])
def test_returned_plan_from_an_initial_plan_is_clamped(scale, max_outer):
    """From offsets at 0, at f_m and at f_m (1 + 1e-12), the tolerance that
    the plan check allows, every returned offset lies in [0, f_m] and the
    descent is the full-recompute one bit for bit; at ``max_outer=0`` the
    plan is the clamped start, exactly f_m from past f_m."""
    for scenario in (_reference_scenario(),
                     _descent_large_scenario(*DESCENT_LARGE_LAYOUTS[4])):
        n = scenario.array.element_count
        initial = FrequencyPlan(np.full(n, scale * MAX_OFFSET))
        got = optimize_offsets(scenario, initial=initial, max_outer=max_outer)
        _assert_owned_bounded_plan(got[0], scenario)
        _assert_same_descent(got, reference_descent(scenario, initial=initial,
                                                    max_outer=max_outer))
        if max_outer == 0:
            start = np.clip(CARRIER + initial.offsets - CARRIER, 0.0, MAX_OFFSET)
            assert got[0].offsets.tobytes() == start.tobytes()
            if scale > 1.0:
                assert (got[0].offsets == MAX_OFFSET).all()


@pytest.mark.parametrize("n", [1, 2, 5, 8, 9])
def test_start_clamp_equals_numpy_clamp_bitwise(n):
    """Below N = 9 the descent clamps its end frequencies into [0, f_m] on
    Python floats, from N = 9 on with numpy.  At ``max_outer=0`` the plan is
    the clamped start, with the bits of ``np.minimum(np.maximum(np.array(fr)
    - f_c, 0.0), f_m)`` from offsets at 0, at f_m, inside, and past f_m
    within the plan check's 1e-12 slack, and at f_m = +0.0 and -0.0.  The
    descent sees the f_m that ``RfParams`` stores, +0.0 for both, so the
    offsets there are +0.0 (the clamp with -0.0 would give -0.0)."""
    rng = np.random.default_rng(4200 + n)
    base = random_scenario(rng, n=n)
    past = 0
    for f_m in (MAX_OFFSET, 1.0, 0.0, -0.0):
        scenario = dataclasses.replace(base, rf=dataclasses.replace(base.rf, max_offset=f_m))
        stored = scenario.rf.max_offset
        top = f_m * (1.0 + 1e-12)
        for _ in range(40):
            u, v = rng.random(2)
            offsets = rng.choice([0.0, f_m, top, u * f_m, f_m + v * (top - f_m)], n)
            fr = np.array((CARRIER + offsets).tolist())
            want = np.minimum(np.maximum(fr - CARRIER, 0.0), stored)
            plan, _ = optimize_offsets(scenario, initial=FrequencyPlan(offsets), max_outer=0)
            assert plan.offsets.tobytes() == want.tobytes()
            past += np.count_nonzero(fr - CARRIER > f_m)
        if f_m == 0.0:
            assert plan.offsets.tobytes() == np.zeros(n).tobytes()
    assert past > 0


@pytest.mark.parametrize("n", [4, 9])
def test_descent_bitwise_at_a_negative_zero_offset_budget(n):
    """An offset budget given as -0.0 is stored as +0.0, so the descent on
    either side of N = 9 is the full-recompute one bit for bit, whose
    ``np.clip(f - f_c, 0.0, f_m)`` gives +0.0 offsets, from f_c and from a
    plan of -0.0 offsets."""
    base = _readme_geometry(n)
    scenario = dataclasses.replace(base, rf=dataclasses.replace(base.rf, max_offset=-0.0))
    for initial in (None, FrequencyPlan(np.full(n, -0.0))):
        got = optimize_offsets(scenario, initial=initial)
        _assert_same_descent(got, reference_descent(scenario, initial=initial))
        assert got[0].offsets.tobytes() == np.zeros(n).tobytes()


# ---------------------------------------------------------------------------
# the coordinate step's scalar term, replay and kernel lookup


def _term_draws(seed, count=100_000):
    """alpha, omega and f arrays of ``count`` coupling terms: both signs of
    omega, f at both box ends and inside, and phases up to 1e4 rad in
    magnitude."""
    rng = np.random.default_rng(seed)
    f_lo, f_hi = CARRIER, CARRIER + MAX_OFFSET
    alpha = 10.0 ** rng.uniform(-12.0, 2.0, count)
    magnitude = np.where(rng.random(count) < 0.5,
                         rng.uniform(0.0, 1e4, count),
                         10.0 ** rng.uniform(-9.0, 4.0, count))
    phase = np.where(rng.random(count) < 0.5, -magnitude, magnitude)
    which = rng.integers(0, 3, count)
    freq = np.where(which == 0, f_lo,
                    np.where(which == 1, f_hi, rng.uniform(f_lo, f_hi, count)))
    omega = phase / freq
    assert omega.min() < 0.0 < omega.max()
    assert np.abs(omega * freq).max() > 0.99e4
    assert (freq == f_lo).any() and (freq == f_hi).any()
    return alpha, omega, freq


def test_cmath_trial_term_equals_numpy_scalar_term():
    """A trial term ``alpha_i * cmath.exp(1j * (omega_i * f))`` on Python
    floats has the bits of the numpy-scalar form ``alpha[i] * np.exp(...)``."""
    alpha, omega, freq = _term_draws(1811)
    al, om, fr = alpha.tolist(), omega.tolist(), freq.tolist()
    numpy_terms = [complex(alpha[k] * np.exp(1j * (om[k] * fr[k]))) for k in range(len(al))]
    cmath_terms = [al[k] * cmath.exp(1j * (om[k] * fr[k])) for k in range(len(al))]
    assert np.array(cmath_terms).tobytes() == np.array(numpy_terms).tobytes()


def test_cmath_start_terms_equal_numpy_array_terms():
    """Below N = 9 the descent builds its start terms as a list of
    ``alpha_n * cmath.exp(1j * (omega_n * f_n))`` on Python floats.  They
    have the bits of ``alpha * np.exp(1j * (omega * freqs))`` on arrays,
    whose loops may take SIMD paths that the scalar form never does: on all
    10^5 draws as one array, and on arrays of each width 1-8 (the main loop
    and the remainder lanes that a descent's short arrays take)."""
    alpha, omega, freq = _term_draws(1813)
    al, om, fr = alpha.tolist(), omega.tolist(), freq.tolist()
    cmath_terms = np.array([a * cmath.exp(1j * (w * f)) for a, w, f in zip(al, om, fr)])
    assert cmath_terms.tobytes() == (alpha * np.exp(1j * (omega * freq))).tobytes()
    for width in range(1, 9):
        for k in range(0, 4000, width):
            part = slice(k, k + width)
            numpy_terms = alpha[part] * np.exp(1j * (omega[part] * freq[part]))
            assert cmath_terms[part].tobytes() == numpy_terms.tobytes()
    # The start without a plan multiplies omega by the scalar f_c.
    cmath_terms = np.array([a * cmath.exp(1j * (w * CARRIER)) for a, w in zip(al, om)])
    assert cmath_terms.tobytes() == (alpha * np.exp(1j * (omega * CARRIER))).tobytes()


@pytest.mark.parametrize("width", range(8))
def test_numpy_row_sum_is_left_to_right_below_eight_values(width):
    """Below N = 9 the descent sums each rest, at most 7 values, as Python
    floats added in index order onto 0.0, for the bits of numpy's row sum.
    That holds only while ``np.add.reduce`` over the last axis of a (2, w)
    array runs left to right from +0.0 below 8 values; this pins it on rows
    that mix magnitudes from 1e-8 to 1e8 with signed zeros, subnormals and
    infinities (an all -0.0 row sums to +0.0; inf - inf gives NaN both ways)."""
    rng = np.random.default_rng(4100 + width)
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1.5e-315,
                        math.inf, -math.inf])
    for _ in range(2000):
        sign = np.where(rng.random((2, width)) < 0.5, -1.0, 1.0)
        rows = sign * 10.0 ** rng.uniform(-8.0, 8.0, (2, width))
        mask = rng.random((2, width)) < 0.2
        rows[mask] = rng.choice(special, np.count_nonzero(mask))
        want = []
        for row in rows.tolist():
            total = 0.0
            for value in row:
                total += value
            want.append(total)
        with np.errstate(invalid="ignore"):
            got = np.add.reduce(rows, axis=1)
        assert got.tobytes() == np.array(want).tobytes(), rows
    zeros = np.full((2, width), -0.0)
    assert np.add.reduce(zeros, axis=1).tobytes() == np.zeros(2).tobytes()


def _assert_out_reduce_is_plain_reduce(rng, width, count):
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1.5e-315,
                        math.inf, -math.inf, math.nan])
    out = np.empty(2)
    view = memoryview(out)
    for k in range(count):
        sign = np.where(rng.random((2, width)) < 0.5, -1.0, 1.0)
        rows = sign * 10.0 ** rng.uniform(-8.0, 8.0, (2, width))
        if k % 2:
            mask = rng.random((2, width)) < 0.2
            rows[mask] = rng.choice(special, np.count_nonzero(mask))
        with np.errstate(invalid="ignore"):
            assert np.add.reduce(rows, 1, None, out) is out
            want = np.add.reduce(rows, axis=1)
            per_row = np.array([np.add.reduce(row) for row in rows])
        assert out.tobytes() == want.tobytes() == per_row.tobytes(), rows
        assert np.array(list(view)).tobytes() == np.array(out.tolist()).tobytes()
        if k < 2:
            buffer = np.empty((2, width))
            slots = memoryview(buffer).cast("B").cast("d")
            for j, value in enumerate(rows.ravel().tolist()):
                slots[j] = value
            assert buffer.tobytes() == rows.tobytes()
    for value in (-0.0, math.nan, -math.nan, math.inf, 5e-324):
        rows = np.full((2, width), value)
        np.add.reduce(rows, 1, None, out)
        assert out.tobytes() == np.add.reduce(rows, axis=1).tobytes()
        assert np.array(list(view)).tobytes() == np.array(out.tolist()).tobytes()


@pytest.mark.parametrize("width", [8, 9, 16, 17, 127, 128, 129, 130, 1099])
def test_numpy_row_sum_into_an_out_array_is_the_plain_row_sum(width):
    """From N = 9 on the descent writes its rest's slots through a flat
    memoryview of the (2, N - 1) buffer, reduces the buffer into a (2,)
    array made once per descent, ``np.add.reduce(rest, 1, None, sums)``, and
    reads both sums through ``memoryview(sums)``.  Its sums stay those of
    ``np.add.reduce(rest, axis=1).tolist()`` only while the reduce into
    ``out`` sums each row as that reduce and as the row's own 1-D reduce
    do, bit for bit (widths from 8, where the pairwise sum starts its
    partial sums, past 128, where it splits blocks, to 1 099), and while the
    memoryviews carry the doubles that ``.tolist()`` and numpy's setitem do.
    The rows mix magnitudes from 1e-8 to 1e8 with signed zeros, subnormals,
    infinities and NaN."""
    _assert_out_reduce_is_plain_reduce(np.random.default_rng(4300 + width), width, 200)


def test_numpy_row_sum_into_an_out_array_at_every_width_to_1099():
    """The same check on 4 draws at each width from 8 to 1 099."""
    rng = np.random.default_rng(4299)
    for width in range(8, 1100):
        _assert_out_reduce_is_plain_reduce(rng, width, 4)


def _counting_kernel(monkeypatch):
    """Replace ``kernels.coupling_power`` after import with a wrapper that
    counts its calls, as perfbench's tracer does."""
    calls = []
    original = kernels.coupling_power

    def wrapper(terms):
        calls.append(len(terms))
        return original(terms)

    monkeypatch.setattr(kernels, "coupling_power", wrapper)
    return calls


def _readme_geometry(n, bob_angle_deg=60.0):
    return half_wave_scenario(n, 100.0, math.radians(bob_angle_deg), 120.0, math.radians(100.0))


# The README's INI geometry (Bob at 100 m and 60 deg, Eve at 120 m and
# 100 deg) at N = 1, 2, 4 and 8 takes 1, 2, 21 and 11 sweeps with no
# rejection, so its trials run on the Python-float start, rest sums and
# clamp of N <= 8.  From the linear plan, with Bob at 40 deg, N = 8 runs
# 50 sweeps without a rejection.
KERNEL_LOOKUP_SCENARIOS = [
    *(pytest.param(_descent_large_scenario(*layout), None, id=f"N=128-layout{k}")
      for k, layout in enumerate(DESCENT_LARGE_LAYOUTS[3:], start=3)),
    *(pytest.param(_readme_geometry(n), None, id=f"N={n}-readme") for n in (1, 2, 4, 8)),
    pytest.param(_readme_geometry(8, 40.0), linear_fda_plan(8, MAX_OFFSET),
                 id="N=8-linear-start"),
]


@pytest.mark.parametrize("scenario, initial", KERNEL_LOOKUP_SCENARIOS)
def test_descent_calls_the_kernel_it_finds_at_call_time(monkeypatch, scenario, initial):
    """A wrapper installed on the kernels module after import sees the
    start's evaluation and one per trial, on both sides of N = 9 where the
    rest sums switch from Python floats to a numpy reduce.  On these layouts
    no update is rejected and every accepted one lowers g, so the trials are
    the strict decreases of the history."""
    calls = _counting_kernel(monkeypatch)
    _, trace = optimize_offsets(scenario, initial)
    hist = np.array(trace.objective_history)
    assert trace.rejected_updates == 0
    assert len(calls) == 1 + np.count_nonzero(hist[1:] < hist[:-1])
    assert set(calls) == {scenario.array.element_count}


def test_replayed_rejection_counts_like_the_full_recompute(monkeypatch):
    """A coordinate rejected in one sweep, with no update accepted before
    its next visit, repeats the rejection without a kernel call and still
    counts it.  Each evaluated trial is an accepted update (at most one per
    strict decrease of g here) or an evaluated rejection, so fewer kernel
    calls than 1 + decreases + rejections means some were replayed."""
    scenario = _descent_large_scenario(*DESCENT_LARGE_LAYOUTS[2])
    calls = _counting_kernel(monkeypatch)
    got = optimize_offsets(scenario)
    hist = np.array(got[1].objective_history)
    decreases = np.count_nonzero(hist[1:] < hist[:-1])
    assert len(calls) < 1 + decreases + got[1].rejected_updates
    _assert_same_descent(got, reference_descent(scenario))


def test_replay_keys_on_the_other_elements():
    """A coordinate whose own frequency has not moved since its last
    evaluation is evaluated again once another element moved.  Replaying
    every element after its first evaluation would end each descent at its
    second sweep; these need more."""
    rng = np.random.default_rng(1812)
    for n in (3, 8, 32):
        scenario = random_scenario(rng, n=n)
        initial = random_plan(rng, n)
        got = optimize_offsets(scenario, initial=initial)
        assert got[1].outer_iterations > 2
        _assert_same_descent(got, reference_descent(scenario, initial=initial))


# Layouts (N, Bob's range and angle, Eve's range and angle), started at f_c,
# whose last sweep evaluates `fresh` rejections before coordinate `start`,
# then skips from there on and counts `carried` rejections for the skipped
# coordinates.
BULK_FINISH_LAYOUTS = [
    pytest.param((7, 129.9, 0.74, 102.0, 2.51), 0, 0, 3, id="from-0-after-rejections"),
    pytest.param((5, 58.6, 2.65, 106.8, 2.99), 4, 0, 0, id="from-N-1"),
    pytest.param((6, 143.6, 1.75, 94.0, 2.33), 3, 0, 1, id="after-a-rejection"),
    pytest.param((7, 121.3, 1.92, 164.1, 3.12), 1, 1, 1, id="rejections-on-both-sides"),
]


@pytest.mark.parametrize("layout, start, fresh, carried", BULK_FINISH_LAYOUTS)
def test_descent_bitwise_at_the_edges_of_the_bulk_finish(layout, start, fresh, carried):
    """The last sweep repeats the one before it from the coordinate that
    made the last accepted update (here the last strict decrease of g), and
    the rejections it repeats are those the later coordinates made after
    that update: the full-recompute descent's last sweep counts them beside
    any it evaluates before that coordinate."""
    n = layout[0]
    scenario = half_wave_scenario(*layout)
    want = reference_descent(scenario)
    _assert_same_descent(optimize_offsets(scenario), want)
    sweeps, hist = want[1].outer_iterations, np.array(want[1].objective_history)
    assert want[1].converged and sweeps >= 2
    before = hist[(sweeps - 2) * n:(sweeps - 1) * n + 1]
    assert np.flatnonzero(before[1:] < before[:-1])[-1] == start
    assert (hist[(sweeps - 1) * n:] == hist[-1]).all()
    earlier = reference_descent(scenario, max_outer=sweeps - 1)[1].rejected_updates
    assert want[1].rejected_updates - earlier == fresh + carried


@pytest.mark.parametrize("n", [2, 4, 8])
def test_first_sweep_evaluates_its_last_coordinate_after_quiet_visits(n):
    """The first sweep has no earlier evaluation to repeat: from the
    descent's own end plan with the last offset moved into the box, its
    first N - 1 visits lower nothing, yet its last coordinate is evaluated
    and moves back."""
    scenario = half_wave_scenario(n, 100.0, 1.0, 120.0, 1.0)
    offsets = optimize_offsets(scenario)[0].offsets.copy()
    offsets[-1] = 0.25 * MAX_OFFSET
    initial = FrequencyPlan(offsets)
    want = reference_descent(scenario, initial=initial)
    hist = np.array(want[1].objective_history)
    assert list(np.flatnonzero(hist[1:n + 1] < hist[:n])) == [n - 1]
    _assert_same_descent(optimize_offsets(scenario, initial=initial), want)


@pytest.mark.parametrize("max_outer", [1, 2, 3])
def test_single_element_descent_bitwise_at_small_sweep_caps(max_outer):
    """At N = 1 every visit finds a full cycle quiet, yet the first sweep
    still evaluates its coordinate; with nothing to move, it converges."""
    rng = np.random.default_rng(40 + max_outer)
    for k in range(4):
        scenario = random_scenario(rng, n=1, shared_bearing=bool(k % 2))
        initial = random_plan(rng, 1) if k >= 2 else None
        got = optimize_offsets(scenario, initial=initial, max_outer=max_outer)
        assert got[1].outer_iterations == 1 and got[1].converged
        assert len(got[1].objective_history) == 2
        _assert_same_descent(got, reference_descent(scenario, initial=initial,
                                                    max_outer=max_outer))


def _grid_resolution(scenario, points):
    omega, alpha = scenario.omega, scenario.alpha
    pref = scenario.rf.coupling_prefactor
    step = scenario.rf.max_offset / (points - 1)
    total = float(np.sum(alpha))
    slopes = 2.0 * pref * alpha * np.abs(omega) * total
    return float(np.sum(slopes)) * 0.5 * step


def test_optimize_two_elements_reaches_grid_minimum():
    """On aligned-bearing layouts, N = 2 cyclic descent lands on the global
    minimum; compare with an exhaustive 1000 x 1000 grid up to the grid's
    own resolution.  (With fully independent Bob/Eve bearings the descent
    can stop at a non-global coordinate-wise minimum, so that distribution
    is exercised separately below.)"""
    rng = np.random.default_rng(61)
    for _ in range(5):
        scenario = random_scenario(rng, n=2, shared_bearing=True)
        plan, _ = optimize_offsets(scenario, tol=1e-10, max_outer=200)
        g_opt = g_value(scenario, plan)
        _, g_grid = grid_oracle(scenario, 1000)
        slack = _grid_resolution(scenario, 1000) + 1e-9 * g_grid
        assert g_opt <= g_grid + slack
        assert g_grid <= g_opt + slack


def test_optimize_never_beats_exhaustive_grid():
    """Whatever stationary point the descent reaches, its value can never be
    below the exhaustive grid minimum by more than the grid resolution."""
    rng = np.random.default_rng(63)
    hits = 0
    for _ in range(10):
        scenario = random_scenario(rng, n=2)
        plan, _ = optimize_offsets(scenario, tol=1e-10, max_outer=200)
        g_opt = g_value(scenario, plan)
        _, g_grid = grid_oracle(scenario, 1000)
        slack = _grid_resolution(scenario, 1000) + 1e-9 * g_grid
        assert g_grid <= g_opt + slack
        if g_opt <= g_grid + slack:
            hits += 1
    # non-global coordinate-wise minima exist but are rare
    assert hits >= 8


def test_two_level_oracle_is_the_two_point_grid():
    """At N <= 3 the 2^N two-level plans are the grid with 2 points per axis."""
    rng = np.random.default_rng(67)
    for n in (1, 2, 3):
        scenario = random_scenario(rng, n=n)
        assert two_level_optimum(scenario) == grid_oracle(scenario, 2)[1]


def _two_level_cases(gap):
    """The sweep's layouts (shared bearing) at range gap ``gap``, seeds 0, 1
    and 7, N = 2..12, realizations 0-19: each case's key, end plan, final
    coupling and best two-level coupling."""
    for seed in (0, 1, 7):
        config = ExperimentConfig(rng_seed=seed, range_gap=gap)
        for n in range(2, 13):
            for index in range(20):
                scenario, plan, _ = draw_realization(config, n, index)
                final = g_value(scenario, plan)
                yield (seed, n, index), plan, final, two_level_optimum(scenario)


@pytest.mark.parametrize("gap", [0.5, 2.0, 5.0, 20.0])
def test_descent_matches_the_two_level_optimum_on_sweep_draws(gap):
    """At range gaps whose phase spread theta = 2 pi gap f_m / c stays below
    pi (0.031, 0.13, 0.31 and 1.26 rad), the descent's final coupling is at
    most the best of the 2^N plans with every offset at 0 or f_m, times
    1 + 1e-6, on all 660 cases per gap.  All but two of the 2 640 cases are
    within 1e-9.  The two are seed 0, realization 9 at the 20 m gap, at N = 10
    (1.25e-7 above) and N = 12 (2.71e-7 above): both converge in 2 sweeps
    with f_m on the first half of the elements, while the optimum puts f_m
    on as many elements shifted by one, so the descent stops at a
    coordinate-wise minimum that is not the global two-level one."""
    above = []
    for key, _, final, best in _two_level_cases(gap):
        assert final <= best * (1.0 + 1e-6)
        if final > best * (1.0 + 1e-9):
            above.append(key)
    assert set(above) <= ({(0, 10, 9), (0, 12, 9)} if gap == 20.0 else set())


def test_descent_leaves_the_two_levels_past_the_arc_condition():
    """At a 60 m gap theta is 3.77 rad > pi, so the element arcs no longer
    fit in one arc narrower than pi: every one of the 660 descents ends with
    an offset at least f_m / 10 from both ends of the box, at a coupling of
    at most 0.084 times the best two-level one."""
    for _, plan, final, best in _two_level_cases(60.0):
        u = plan.offsets / MAX_OFFSET
        assert np.max(np.minimum(u, 1.0 - u)) >= 0.1
        assert final <= 0.084 * best


def test_grid_oracle_refinement():
    rng = np.random.default_rng(67)
    scenario = random_scenario(rng, n=2)
    _, coarse = grid_oracle(scenario, 100)
    _, fine = grid_oracle(scenario, 300)
    assert fine <= coarse + 1e-9 * coarse
    assert coarse <= fine + _grid_resolution(scenario, 100) + 1e-9 * fine


def test_grid_oracle_guards():
    rng = np.random.default_rng(71)
    with pytest.raises(ValueError):
        grid_oracle(random_scenario(rng, n=4), 10)
    with pytest.raises(ValueError):
        grid_oracle(random_scenario(rng, n=2), 1)


def test_grid_oracle_beats_zero_plan():
    rng = np.random.default_rng(73)
    scenario = random_scenario(rng, n=3)
    plan, value = grid_oracle(scenario, 41)
    assert value <= g_value(scenario, FrequencyPlan(np.zeros(3))) * (1 + 1e-12)
    assert_allclose(g_value(scenario, plan), value, rtol=1e-9)
