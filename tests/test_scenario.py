import dataclasses
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
)
from fdabeam.scenario import _channels, _plan_offsets, _synthesize

from helpers import (
    channel_vector,
    floor_synthesize,
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


def _rf_constants_in_python_floats(rf):
    """Wavelength and prefactor K as Python-float expressions of the inputs."""
    lam = rf.wave_speed / rf.carrier_frequency
    return lam, lam**4 / ((4.0 * math.pi)**4 * rf.noise_power_bob * rf.noise_power_eve)


def _coefficients_from_distances(scn):
    r_b, r_e = scn.bob_distances, scn.eve_distances
    return 2.0 * math.pi * (r_e - r_b) / scn.rf.wave_speed, 1.0 / (r_b * r_e)


def _extreme_rf_params(rng, count):
    """Valid RfParams with inputs log-uniform over hundreds of decades, plus
    one whose K is subnormal."""
    found = [RfParams(1e70, 0.0, 1e15, 1e15, 1.0)]
    while len(found) < count:
        c, f_c, f_m, n_b, n_e = 10.0 ** rng.uniform(-150.0, 150.0, 5)
        try:
            found.append(RfParams(f_c, f_m, n_b, n_e, c))
        except ValueError:
            pass
    return found


def test_stored_rf_constants_equal_the_float_expressions_bitwise():
    rng = np.random.default_rng(2024)
    rfs = [reference_rf()] + _extreme_rf_params(rng, 2000)
    assert 0.0 < rfs[1].coupling_prefactor < 2.2250738585072014e-308
    for rf in rfs:
        lam, k = _rf_constants_in_python_floats(rf)
        assert type(rf.wavelength) is float and type(rf.coupling_prefactor) is float
        assert (rf.wavelength.hex(), rf.coupling_prefactor.hex()) == (lam.hex(), k.hex())


def _bits(a):
    return np.asarray(a).view(np.int64)


def test_stored_coefficients_equal_the_float_expressions_bitwise():
    """omega and alpha, on reference layouts and on layouts at extreme
    scales that the scenario checks accept."""
    rng = np.random.default_rng(2025)
    scenarios = [random_scenario(rng, shared_bearing=bool(i % 2)) for i in range(100)]
    rfs = _extreme_rf_params(rng, 400)
    while len(scenarios) < 300:
        n = int(rng.integers(1, 65))
        try:
            scenarios.append(Scenario(
                rf=rfs[len(scenarios) % len(rfs)],
                array=ArrayGeometry(n, float(rng.uniform(-1.0, 1.0)),
                                    float(10.0 ** rng.uniform(-4.0, 3.0))),
                bob=NodePlacement(float(10.0 ** rng.uniform(-3.0, 8.0)),
                                  float(rng.uniform(0.0, math.pi))),
                eve=NodePlacement(float(10.0 ** rng.uniform(-3.0, 8.0)),
                                  float(rng.uniform(0.0, math.pi)))))
        except ValueError:
            pass
    for scn in scenarios:
        omega, alpha = _coefficients_from_distances(scn)
        assert_array_equal(_bits(scn.omega), _bits(omega))
        assert_array_equal(_bits(scn.alpha), _bits(alpha))


def test_derived_fields_are_read_only_and_not_compared():
    scn = half_wave_scenario(4, 100.0, 1.0, 120.0, 1.0)
    for name in ("omega", "alpha"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(scn, name)[0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(scn, name, np.zeros(4))
    for name in ("wavelength", "coupling_prefactor"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(scn.rf, name, 1.0)
        with pytest.raises(TypeError):
            RfParams(2.4e9, 3e6, 1e-13, 1e-13, **{name: 1.0})
        assert name not in repr(scn.rf)
    assert scn.rf == reference_rf() and hash(scn.rf) == hash(reference_rf())


def test_replace_recomputes_the_derived_fields():
    scn = half_wave_scenario(4, 100.0, 1.0, 120.0, 1.0)
    rf = dataclasses.replace(scn.rf, carrier_frequency=1.2e9, noise_power_eve=1e-11,
                             wave_speed=2e8)
    assert (rf.wavelength, rf.coupling_prefactor) == _rf_constants_in_python_floats(rf)
    assert rf.wavelength != scn.rf.wavelength
    assert rf.coupling_prefactor != scn.rf.coupling_prefactor
    for moved in (dataclasses.replace(scn, rf=rf),
                  dataclasses.replace(scn, eve=NodePlacement(150.0, 2.0))):
        omega, alpha = _coefficients_from_distances(moved)
        assert_array_equal(_bits(moved.omega), _bits(omega))
        assert_array_equal(_bits(moved.alpha), _bits(alpha))
        assert not np.array_equal(moved.omega, scn.omega)
    assert not np.array_equal(moved.alpha, scn.alpha)


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


_PLAN_CASES = {
    # offsets -> the ValueError they raise, or None where they are a plan
    "nan": ([0.0, math.nan], "finite and non-negative"),
    "+inf": ([math.inf, 0.0], "finite and non-negative"),
    "-inf": ([1e6, -math.inf], "finite and non-negative"),
    "negative": ([-1.0, 0.0], "finite and non-negative"),
    "tiny negative": ([3e6, -1e-300, 0.0], "finite and non-negative"),
    "nan and negative": ([math.nan, -1.0], "finite and non-negative"),
    "2-D": ([[0.0, 1.0]], "1-D array"),
    "0-D": (0.0, "1-D array"),
    "-0.0": ([-0.0], None),
    "empty": ([], None),
    "finite": ([0.0, 1e6, 1e300], None),
}


@pytest.mark.parametrize("offsets, message", _PLAN_CASES.values(), ids=_PLAN_CASES)
def test_frequency_plan_validation(offsets, message):
    """Offsets must be a 1-D array of finite, non-negative entries; an
    accepted plan keeps their bits, -0.0 included, and is read-only."""
    if message is not None:
        with pytest.raises(ValueError, match=message):
            FrequencyPlan(np.array(offsets))
        return
    plan = FrequencyPlan(np.array(offsets))
    assert plan.offsets.tobytes() == np.array(offsets, dtype=float).tobytes()
    with pytest.raises(ValueError):
        plan.offsets[...] = 5.0  # frozen after construction


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


@pytest.mark.parametrize("field, value, message", [
    ("carrier_frequency", 0.0, "carrier_frequency must be positive"),
    ("max_offset", -1.0, "max_offset must be non-negative"),
    ("noise_power_eve", 0.0, "noise powers must be positive"),
    ("wave_speed", 0.0, "wave_speed must be positive"),
    ("carrier_frequency", 1e-300, "wavelength wave_speed / carrier_frequency"),  # inf
    ("wave_speed", 5e-324, "wavelength wave_speed / carrier_frequency"),  # 0
    ("wave_speed", 1e-300, "coupling prefactor wavelength"),  # K = 0
    ("noise_power_bob", 1e-320, "coupling prefactor wavelength"),  # K = inf
    ("carrier_frequency", 1e200, "coupling prefactor wavelength"),  # wavelength^4 = 0
])
def test_rf_params_reject_out_of_range(field, value, message):
    """Each input, and the wavelength and the coupling prefactor K derived
    from them, is rejected by name (no numpy warning: this suite's warning
    filter turns one into an error)."""
    kwargs = dict(carrier_frequency=2.4e9, max_offset=3e6, noise_power_bob=1e-13,
                  noise_power_eve=1e-13)
    kwargs[field] = value
    with pytest.raises(ValueError, match=message):
        RfParams(**kwargs)


@pytest.mark.parametrize("value", [-0.0, 0.0, 0, np.float64(-0.0)])
def test_rf_params_store_an_empty_offset_budget_as_plus_zero(value):
    """-0.0 passes the non-negative check; it is stored as +0.0, so that no
    clamp into [0, f_m] hands out -0.0 offsets."""
    rf = RfParams(carrier_frequency=2.4e9, max_offset=value, noise_power_bob=1e-13,
                  noise_power_eve=1e-13)
    assert type(rf.max_offset) is float
    assert math.copysign(1.0, rf.max_offset) == 1.0 and rf.max_offset == 0.0


def _rf(carrier_frequency=2.4e9, max_offset=3e6, noise=1e-13, wave_speed=SPEED_OF_LIGHT):
    return RfParams(carrier_frequency=carrier_frequency, max_offset=max_offset,
                    noise_power_bob=noise, noise_power_eve=noise, wave_speed=wave_speed)


@pytest.mark.parametrize("rf, array, bob, eve, message", [
    # Bob 1e-300 m from element 0: the gain there overflows.
    (_rf(), ArrayGeometry(4), (1e-300, 1.0), (120.0, 1.0), "bob's channel gains"),
    # Eve past 1e300 m: the gains underflow to 0.
    (_rf(), ArrayGeometry(4), (100.0, 1.0), (1e300, 1.0), "eve's channel gains"),
    (_rf(), ArrayGeometry(4, spacing=1e300), (100.0, 1.0), (120.0, 1.0),
     "bob's channel gains"),
    # 3 x 1e308 m overflows the element positions themselves.
    (_rf(), ArrayGeometry(4, spacing=1e308), (100.0, 1.0), (120.0, 1.0),
     "bob's channel gains"),
    (_rf(), ArrayGeometry(4, first_element_x=1e300), (100.0, 1.0), (120.0, 1.0),
     "bob's channel gains"),
    # r_bob r_eve = 1.5e400 overflows, so alpha = 0 (a 1e70 m wavelength
    # keeps the gains positive).
    (_rf(carrier_frequency=SPEED_OF_LIGHT / 1e70, noise=1.0), ArrayGeometry(4),
     (1e200, 1.0), (1.5e200, 1.0), "coupling coefficients"),
    # alpha_0 = 5e199: finite, but its square is not (gains finite at 1e100 W noise).
    (_rf(noise=1e100), ArrayGeometry(4), (1e-100, math.pi / 2), (2e-100, math.pi / 2),
     "coupling coefficients"),
    # omega_n (f_c + f_m) overflows at a 1e-200 m/s wave speed and a 1e108 Hz budget.
    (_rf(carrier_frequency=1e-199, max_offset=1e108, wave_speed=1e-200), ArrayGeometry(4),
     (100.0, 1.0), (120.0, 1.0), "coupling phases"),
    # Bob's gain at 3e-150 m is about 1.1e308, finite; times Eve's at 20 m
    # (about 2.5e6) it is not, and B E, x and K (sum alpha)^2 would overflow.
    (_rf(), ArrayGeometry(1), (3e-150, math.pi / 3), (20.0, math.pi / 3),
     "channel-gain product"),
], ids=["bob-near", "eve-far", "spacing", "positions-overflow", "first-element",
        "alpha-zero", "alpha-sum-squared", "phase", "gain-product"])
def test_scenario_rejects_layouts_past_the_float_range(rf, array, bob, eve, message):
    """Where a channel gain, the product of Bob's and Eve's, a coupling
    coefficient or a coupling phase leaves the float range, building the
    scenario raises a named error instead of a solver dividing by zero or
    overflowing later."""
    with pytest.raises(ValueError, match=message):
        Scenario(rf=rf, array=array, bob=NodePlacement(*bob), eve=NodePlacement(*eve))


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_node_placement_rejects_non_finite_range(value):
    with pytest.raises(ValueError, match="range_m must be finite"):
        NodePlacement(range_m=value, angle_rad=1.0)


def _rows(scn, plans, times):
    """(K, N) channels of one scenario, row k under ``plans[k]`` at
    ``times[k]``."""
    return _channels(scn.rf, scn.bob_distances, scn.eve_distances,
                     _plan_offsets(scn, plans), times)


def test_channel_pairs_rows_equal_channel_pair_bitwise():
    """Every row of a multi-row synthesis is the single-pair synthesis of
    channel_pair, bit for bit, for any mix of plans and times."""
    rng = np.random.default_rng(14)
    for _ in range(10):
        scn = random_scenario(rng)
        n = scn.array.element_count
        plans = [FrequencyPlan(np.zeros(n)), random_plan(rng, n), random_plan(rng, n)]
        rows = [(plan, t) for plan in plans
                for t in (0.0, 1e-6, float(rng.uniform(0, 2e-5)), 20e-6)]
        hb, he = _rows(scn, [p for p, _ in rows], [t for _, t in rows])
        assert hb.shape == he.shape == (len(rows), n)
        for k, (plan, t) in enumerate(rows):
            pair = channel_pair(scn, plan, t)
            assert_array_equal(hb[k], pair.h_bob)
            assert_array_equal(he[k], pair.h_eve)


def test_stacked_synthesis_equals_channel_pairs_bitwise():
    """Synthesis over a stack of layouts gives each layout the rows that its
    own synthesis gives it alone, bit for bit."""
    rng = np.random.default_rng(15)
    rf = reference_rf()
    times = (0.0, 3e-6, 20e-6)
    for n in (1, 4, 9):
        scenarios = [random_scenario(rng, n) for _ in range(5)]
        plans = [[random_plan(rng, n) for _ in times] for _ in scenarios]
        offsets = np.array([[p.offsets for p in row] for row in plans])
        hb, he = _channels(rf, np.array([s.bob_distances for s in scenarios]),
                           np.array([s.eve_distances for s in scenarios]), offsets, times)
        assert hb.shape == he.shape == (5, len(times), n)
        for r, scn in enumerate(scenarios):
            one_b, one_e = _rows(scn, plans[r], times)
            assert_array_equal(hb[r], one_b)
            assert_array_equal(he[r], one_e)


def test_channel_pairs_need_one_time_per_plan():
    scn = half_wave_scenario(2, 100.0, 1.0, 120.0, 1.0)
    plan = FrequencyPlan(np.zeros(2))
    with pytest.raises(ValueError, match="one to one"):
        _rows(scn, [plan, plan], [0.0])
    with pytest.raises(ValueError, match="max_offset"):
        _rows(scn, [plan, FrequencyPlan(np.array([0.0, 4e6]))], [0.0, 0.0])


@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
def test_channel_pairs_reject_non_finite_times(t):
    scn = half_wave_scenario(2, 100.0, 1.0, 120.0, 1.0)
    plan = FrequencyPlan(np.zeros(2))
    with pytest.raises(ValueError, match="times must be finite"):
        channel_pair(scn, plan, t)


def _assert_same_bits(got, want):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_phase_reduction_equals_floor_form_bitwise():
    """The np.modf phase reduction gives the channels of the ``cycles -
    floor(cycles)`` form bit for bit: on random layouts at times out to ± the
    phase bound, and on cycle counts that are negative integers or tiny and
    negative (rounding up to a whole cycle)."""
    rng = np.random.default_rng(13)
    rf = reference_rf()
    limit = 1e-6 / ((rf.carrier_frequency + rf.max_offset)
                    * float(np.finfo(np.longdouble).eps))
    times = (-limit, -20e-6, 0.0, 3e-6, 20e-6, limit)
    for n in (1, 4, 9):
        dist = np.array([random_scenario(rng, n).bob_distances for _ in range(3)])
        offsets = rng.uniform(0.0, rf.max_offset, size=(3, len(times), n))
        offsets[:, :, 0] = 0.0
        offsets[:, 1, :] = rf.max_offset
        _assert_same_bits(_synthesize(rf, dist, offsets, times),
                          floor_synthesize(rf, dist, offsets, times))

    # Unit carrier and wave speed: cycles = (1 + offset) (t - d) exactly.
    unit = RfParams(carrier_frequency=1.0, max_offset=1.0, noise_power_bob=1.0,
                    noise_power_eve=1.0, wave_speed=1.0)
    dist = np.array([3.0, 1e-30, 1e-300, 0.5, 2.5, 7.0])
    times = (0.0, 1.0, -2.0, 3.0)
    offsets = np.array([[0.0] * 6, [1.0] * 6, [0.0, 1.0] * 3, [1.0, 0.0] * 3])
    cycles = (1.0 + offsets) * (np.array(times)[:, None] - dist)
    assert (cycles < 0).any() and (cycles == np.round(cycles)).any()
    assert ((cycles < 0) & (cycles > -1e-29)).any()
    _assert_same_bits(_synthesize(unit, dist, offsets, times),
                      floor_synthesize(unit, dist, offsets, times))
