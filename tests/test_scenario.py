import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from fdabeam import (
    ArrayGeometry,
    ChannelPair,
    FrequencyPlan,
    NodePlacement,
    RfParams,
    Scenario,
    SPEED_OF_LIGHT,
    channel_pair,
    channel_pairs,
)

from helpers import (
    channel_vector,
    half_wave_scenario,
    random_plan,
    random_scenario,
    reference_rf,
)

HALF_WAVE = 0.06245676208333333  # c / 2.4e9 / 2


def test_wavelength_derived():
    rf = reference_rf()
    assert rf.wavelength * rf.carrier_frequency == rf.wave_speed
    assert_allclose(rf.wavelength, 0.12491352416666666, rtol=1e-15)


def _endfire(array):
    """Scenario with Bob 100 m out along the x axis, where the distance to
    element n is exactly 100 - x_n."""
    return Scenario(rf=reference_rf(), array=array, bob=NodePlacement(100.0, 0.0),
                    eve=NodePlacement(120.0, 0.0))


def test_element_positions_on_x_axis():
    scn = _endfire(ArrayGeometry(4, 0.0, 0.0625))
    assert_array_equal(scn.bob_distances, [100.0, 99.9375, 99.875, 99.8125])
    assert_array_equal(scn.eve_distances, [120.0, 119.9375, 119.875, 119.8125])
    scn = _endfire(ArrayGeometry(2, -1.0, 0.5))
    assert_array_equal(scn.bob_distances, [101.0, 100.5])
    # stored once, read-only, and not part of equality or repr
    with pytest.raises(ValueError):
        scn.bob_distances[0] = 1.0
    assert scn == _endfire(ArrayGeometry(2, -1.0, 0.5))
    assert "distances" not in repr(scn)


def test_distances_broadside_and_endfire():
    scn = half_wave_scenario(2, 100.0, np.pi / 2, 120.0, np.pi / 2)
    rb = scn.bob_distances
    assert rb[0] == 100.0
    # second element sits HALF_WAVE off the perpendicular through the origin
    assert_allclose(rb[1], 100.00001950423375, rtol=1e-15)
    assert_allclose(rb[1], np.hypot(HALF_WAVE, 100.0), rtol=1e-15)

    scn = half_wave_scenario(2, 100.0, 0.0, 120.0, 0.0)
    rb = scn.bob_distances
    assert_allclose(rb, [100.0, 100.0 - HALF_WAVE], rtol=1e-15)


def test_scenario_rejects_node_on_element():
    rf = reference_rf()
    with pytest.raises(ValueError, match="coincides"):
        Scenario(rf=rf, array=ArrayGeometry(3, 0.0, 1.0),
                 bob=NodePlacement(2.0, 0.0), eve=NodePlacement(50.0, 0.1))


def test_placement_validation():
    with pytest.raises(ValueError):
        NodePlacement(-5.0, 0.5)
    with pytest.raises(ValueError):
        NodePlacement(10.0, 3.5)
    for count in (0, 2.0, math.nan, "2", True):
        with pytest.raises(ValueError, match="element_count must be a positive integer"):
            ArrayGeometry(count, 0.0, 0.1)
    assert ArrayGeometry(np.int64(2), 0.0, 0.1).element_count == 2
    with pytest.raises(ValueError):
        ArrayGeometry(4, 0.0, -0.1)
    with pytest.raises(ValueError, match="spacing must be finite"):
        ArrayGeometry(4, 0.0, math.inf)
    with pytest.raises(ValueError, match="first_element_x must be finite"):
        ArrayGeometry(4, math.nan, 0.1)
    with pytest.raises(ValueError):
        RfParams(2.4e9, 3e6, -1e-13, 1e-13)


def test_frequency_plan_validation():
    with pytest.raises(ValueError):
        FrequencyPlan(np.array([-1.0, 0.0]))
    with pytest.raises(ValueError):
        FrequencyPlan(np.array([[0.0, 1.0]]))
    plan = FrequencyPlan(np.array([0.0, 1e6]))
    with pytest.raises(ValueError):
        plan.offsets[0] = 5.0  # frozen after construction


def test_channel_entry_is_real_at_aligned_time():
    scn = half_wave_scenario(1, 100.0, np.pi / 2, 120.0, np.pi / 2)
    r = scn.bob_distances[0]
    h = channel_vector(scn, "bob", FrequencyPlan(np.zeros(1)), t=r / SPEED_OF_LIGHT)
    expected = scn.rf.wavelength / (4 * np.pi * r)
    assert_allclose(h[0].real, expected, rtol=1e-10)
    assert abs(h[0].imag) < 1e-10 * expected


def test_channel_magnitude_law():
    rng = np.random.default_rng(11)
    for _ in range(20):
        scn = random_scenario(rng)
        plan = random_plan(rng, scn.array.element_count)
        for node in ("bob", "eve"):
            h = channel_vector(scn, node, plan, t=float(rng.uniform(0, 2e-5)))
            r = getattr(scn, f"{node}_distances")
            assert_allclose(np.abs(h) * 4 * np.pi * r / scn.rf.wavelength,
                            np.ones_like(r), rtol=1e-12)


def test_phase_difference_identity():
    # arg(conj(h_eve_n) h_bob_n) == omega_n f_n modulo 2 pi
    rng = np.random.default_rng(12)
    for _ in range(10):
        scn = random_scenario(rng)
        plan = random_plan(rng, scn.array.element_count)
        t = float(rng.uniform(0, 2e-5))
        hb = channel_vector(scn, "bob", plan, t)
        he = channel_vector(scn, "eve", plan, t)
        rb, re = scn.bob_distances, scn.eve_distances
        omega = 2 * np.pi * (re - rb) / scn.rf.wave_speed
        freqs = scn.rf.carrier_frequency + plan.offsets
        measured = np.angle(np.conj(he) * hb)
        mismatch = np.exp(1j * (measured - omega * freqs))
        assert_allclose(mismatch, np.ones_like(mismatch), atol=1e-9)


def test_channel_pair_normalization():
    scn = half_wave_scenario(3, 90.0, 1.0, 110.0, 1.0)
    plan = FrequencyPlan(np.array([0.0, 1e6, 3e6]))
    pair = channel_pair(scn, plan, 0.0)
    raw = channel_vector(scn, "bob", plan, 0.0)
    assert_allclose(pair.h_bob, raw / np.sqrt(scn.rf.noise_power_bob), rtol=1e-15)


def test_norm_identity_reference_setup():
    # sum_n lambda^2 / ((4 pi r_n)^2 sigma^2) at r=100, theta=pi/4, N=4,
    # computed by direct summation of the amplitude law
    scn = half_wave_scenario(4, 100.0, np.pi / 4, 120.0, np.pi / 4)
    pair = channel_pair(scn, FrequencyPlan(np.zeros(4)), 0.0)
    b = np.vdot(pair.h_bob, pair.h_bob).real
    assert_allclose(b, 395762.6426111416, rtol=1e-12)
    r = scn.bob_distances
    direct = np.sum(scn.rf.wavelength**2 / ((4 * np.pi * r) ** 2 * 1e-13))
    assert_allclose(b, direct, rtol=1e-13)


def test_norms_invariant_in_time_and_plan():
    rng = np.random.default_rng(13)
    for _ in range(10):
        scn = random_scenario(rng)
        n = scn.array.element_count
        ref = channel_pair(scn, FrequencyPlan(np.zeros(n)), 0.0)
        b0 = np.vdot(ref.h_bob, ref.h_bob).real
        e0 = np.vdot(ref.h_eve, ref.h_eve).real
        for _ in range(3):
            pair = channel_pair(scn, random_plan(rng, n), float(rng.uniform(0, 2e-5)))
            assert_allclose(np.vdot(pair.h_bob, pair.h_bob).real, b0, rtol=1e-12)
            assert_allclose(np.vdot(pair.h_eve, pair.h_eve).real, e0, rtol=1e-12)


def test_plan_bounds_checked():
    scn = half_wave_scenario(2, 100.0, 1.0, 120.0, 1.0)
    with pytest.raises(ValueError, match="max_offset"):
        channel_vector(scn, "bob", FrequencyPlan(np.array([0.0, 4e6])), 0.0)
    with pytest.raises(ValueError, match="length"):
        channel_vector(scn, "bob", FrequencyPlan(np.zeros(3)), 0.0)


def test_channel_pair_type_checks():
    with pytest.raises(ValueError):
        ChannelPair(h_bob=np.zeros(3, complex), h_eve=np.zeros(4, complex))


@pytest.mark.parametrize("field", ["carrier_frequency", "max_offset", "noise_power_bob",
                                   "noise_power_eve", "wave_speed"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_rf_params_reject_non_finite(field, value):
    kwargs = dict(carrier_frequency=2.4e9, max_offset=3e6, noise_power_bob=1e-13,
                  noise_power_eve=1e-13)
    kwargs[field] = value
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        RfParams(**kwargs)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_node_placement_rejects_non_finite_range(value):
    with pytest.raises(ValueError, match="range_m must be finite"):
        NodePlacement(range_m=value, angle_rad=1.0)


def test_channel_pairs_rows_equal_channel_pair_bitwise():
    """Every row of the batched synthesis is the single-pair synthesis, bit
    for bit, for any mix of plans and times."""
    rng = np.random.default_rng(14)
    for _ in range(10):
        scn = random_scenario(rng)
        n = scn.array.element_count
        plans = [FrequencyPlan(np.zeros(n)), random_plan(rng, n), random_plan(rng, n)]
        rows = [(plan, t) for plan in plans
                for t in (0.0, 1e-6, float(rng.uniform(0, 2e-5)), 20e-6)]
        hb, he = channel_pairs(scn, [p for p, _ in rows], [t for _, t in rows])
        assert hb.shape == he.shape == (len(rows), n)
        for k, (plan, t) in enumerate(rows):
            pair = channel_pair(scn, plan, t)
            assert_array_equal(hb[k], pair.h_bob)
            assert_array_equal(he[k], pair.h_eve)


def test_channel_pairs_need_one_time_per_plan():
    scn = half_wave_scenario(2, 100.0, 1.0, 120.0, 1.0)
    plan = FrequencyPlan(np.zeros(2))
    with pytest.raises(ValueError, match="one to one"):
        channel_pairs(scn, [plan, plan], [0.0])
    with pytest.raises(ValueError, match="max_offset"):
        channel_pairs(scn, [plan, FrequencyPlan(np.array([0.0, 4e6]))], [0.0, 0.0])


@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
def test_channel_pairs_reject_non_finite_times(t):
    scn = half_wave_scenario(2, 100.0, 1.0, 120.0, 1.0)
    plan = FrequencyPlan(np.zeros(2))
    with pytest.raises(ValueError, match="times must be finite"):
        channel_pairs(scn, [plan, plan], [0.0, t])
    with pytest.raises(ValueError, match="times must be finite"):
        channel_pair(scn, plan, t)
