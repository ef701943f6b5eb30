"""Closed-form secrecy beamformers against dense linear-algebra oracles."""

import cmath
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from fdabeam.beamforming import (
    PowerBudget,
    SecrecyTarget,
    channel_stats,
    lambda1_closed_form,
    lambda_delta_closed_form,
    max_rate_beamformer,
    min_power_beamformer,
    mrt_rate,
    mrt_required_power,
    principal_eigvec_span2,
    secrecy_rate,
    stacked_channel_stats,
)
from fdabeam.coupling import optimize_offsets
from fdabeam.experiments import (
    MAX_OFFSET,
    ExperimentConfig,
    linear_fda_plan,
    phased_array_plan,
    sample_scenario,
)
from fdabeam.scenario import (
    ChannelPair,
    FrequencyPlan,
    _channels,
    _plan_offsets,
    channel_pair,
)

from helpers import (
    abs_square_stats,
    dense_lambda1,
    dense_lambda_delta,
    draw_realization,
    half_wave_scenario,
    mrt_beamformer,
    power_lower_bound,
    random_pair,
    random_plan,
    random_scenario,
    vdot_stats,
)

# Channel statistics of the four-element half-wavelength array with Bob at
# (100 m, 60 deg) and Eve at (120 m, 60 deg), all offsets zero, sampled at
# t = 0.  This shared-bearing layout is strongly coupled: 1 - x/(B E) is
# around 3e-7, which makes it a stress case for the closed forms.
B_REFERENCE = 395608.72725070396
E_REFERENCE = 274685.42661960667
X_REFERENCE = 108667931557.0764
LAMBDA1_REFERENCE = 0.074598222970962524   # R = 10
LAMBDA_DELTA_REFERENCE = 1.6324929384307612  # P = 1 W
PMIN_REFERENCE = 13713.463394405579        # R = 10


def _reference_pair():
    scenario = half_wave_scenario(4, 100.0, math.pi / 3, 120.0, math.pi / 3)
    return channel_pair(scenario, FrequencyPlan(np.zeros(4)), 0.0)


def _orthogonal_pair(n=4, bob_gain=3.0, eve_gain=2.0):
    """Synthetic pair with exactly zero coupling (disjoint supports)."""
    h_b = np.zeros(n, dtype=complex)
    h_e = np.zeros(n, dtype=complex)
    h_b[0] = math.sqrt(bob_gain) * np.exp(0.3j)
    h_e[1] = math.sqrt(eve_gain) * np.exp(-1.1j)
    return ChannelPair(h_bob=h_b, h_eve=h_e)


def test_channel_stats_frozen_values():
    b, e, x = channel_stats(_reference_pair())
    assert_allclose(b, B_REFERENCE, rtol=1e-12)
    assert_allclose(e, E_REFERENCE, rtol=1e-12)
    assert_allclose(x, X_REFERENCE, rtol=1e-12)


def test_closed_forms_frozen_values():
    b, e, x = channel_stats(_reference_pair())
    assert_allclose(lambda1_closed_form(b, e, x, 10.0), LAMBDA1_REFERENCE,
                    rtol=1e-12)
    assert_allclose(lambda_delta_closed_form(b, e, x, 1.0),
                    LAMBDA_DELTA_REFERENCE, rtol=1e-12)
    sol = min_power_beamformer(_reference_pair(), SecrecyTarget(10.0))
    assert_allclose(sol.power, PMIN_REFERENCE, rtol=1e-12)


def test_lambda1_matches_dense_eigensolver():
    """Closed form vs. numpy's Hermitian eigensolver on the rank-2 matrix.

    Draws are rejected when the channels are numerically parallel; there the
    eigenvalue shrinks to ~1e-9 of the matrix norm and the dense solver's
    absolute error floor dominates any comparison.
    """
    rng = np.random.default_rng(101)
    for _ in range(100):
        pair = random_pair(rng, min_separation=1e-6)
        rate = float(rng.uniform(0.1, 12.0))
        b, e, x = channel_stats(pair)
        lam = lambda1_closed_form(b, e, x, rate)
        assert lam >= 0.0
        assert_allclose(lam, dense_lambda1(pair, rate), rtol=1e-9)


def test_lambda_delta_matches_dense_eigensolver():
    """Powers span the 0.01-10 W operating range.  The oracle's whitening
    error grows like eps * (1 + P E); one Rayleigh quotient polishes it."""
    rng = np.random.default_rng(103)
    for _ in range(100):
        pair = random_pair(rng, min_separation=1e-6)
        power = float(10.0 ** rng.uniform(-2.0, 1.0))
        b, e, x = channel_stats(pair)
        lam = lambda_delta_closed_form(b, e, x, power)
        assert lam >= 1.0
        assert_allclose(lam, dense_lambda_delta(pair, power), rtol=1e-9)


def test_orthogonal_channel_identities():
    """With zero coupling the eigenvalues collapse to B and 1 + P B exactly."""
    pair = _orthogonal_pair(bob_gain=7.5, eve_gain=11.0)
    b, e, x = channel_stats(pair)
    assert x == 0.0
    for rate in (0.5, 5.0, 10.0, 40.0):
        assert lambda1_closed_form(b, e, x, rate) == b
    for power in (1e-3, 1.0, 1e3):
        assert lambda_delta_closed_form(b, e, x, power) == 1.0 + power * b
    # Broadcast too: the rate sweep's bound column is lambda_delta at x = 0.
    rng = np.random.default_rng(4)
    gains = rng.uniform(0.1, 1e6, (2, 50, 1))
    grid = 10.0 ** rng.uniform(-3.0, 3.0, 21)
    assert_array_equal(lambda_delta_closed_form(*gains, 0.0, grid), 1.0 + grid * gains[0])


def test_closed_form_input_guards():
    with pytest.raises(ValueError):
        lambda1_closed_form(2.0, 3.0, 6.5, 1.0)
    with pytest.raises(ValueError):
        lambda_delta_closed_form(2.0, 3.0, 6.5, 1.0)
    with pytest.raises(ValueError):
        SecrecyTarget(0.0)
    with pytest.raises(ValueError):
        PowerBudget(-1.0)
    assert lambda_delta_closed_form(2.0, 3.0, 1.0, 0.0) == 1.0


_NAN = math.nan


@pytest.mark.parametrize("fn, args, message", [
    (lambda1_closed_form, (_NAN, 1.0, 0.5, 3.0), "bob_gain is NaN"),
    (lambda1_closed_form, (2.0, _NAN, 0.5, 3.0), "eve_gain is NaN"),
    (lambda1_closed_form, (2.0, 1.0, _NAN, 3.0), "coupling is NaN"),
    (lambda1_closed_form, (2.0, 1.0, 0.5, _NAN), "rate is NaN"),
    # at zero coupling lambda1 = B would hide a NaN E or R
    (lambda1_closed_form, (2.0, _NAN, 0.0, 3.0), "eve_gain is NaN"),
    (lambda1_closed_form, (2.0, 1.0, 0.0, _NAN), "rate is NaN"),
    (lambda1_closed_form, (np.array([2.0, 2.0]), 1.0, np.array([0.5, _NAN]), 3.0),
     "coupling is NaN"),
    (lambda_delta_closed_form, (_NAN, 1.0, 0.5, 1.0), "bob_gain is NaN"),
    (lambda_delta_closed_form, (2.0, _NAN, 0.5, 1.0), "eve_gain is NaN"),
    (lambda_delta_closed_form, (2.0, 1.0, _NAN, 1.0), "coupling is NaN"),
    (lambda_delta_closed_form, (2.0, 1.0, 0.5, _NAN), "power is NaN"),
    (lambda_delta_closed_form, (2.0, 1.0, 0.5, -0.5), "power must be non-negative"),
    (lambda_delta_closed_form, (2.0, 1.0, 0.5, -1.0), "power must be non-negative"),
    (lambda_delta_closed_form, (2.0, 1.0, 0.5, np.array([1.0, -1.0])),
     "power must be non-negative"),
    (mrt_rate, (_NAN, 1.0, 0.5), "bob_gain is NaN"),
    (mrt_rate, (2.0, _NAN, 0.5), "power is NaN"),
    (mrt_rate, (2.0, 1.0, _NAN), "coupling is NaN"),
    (mrt_rate, (2.0, -1.0, 0.5), "power must be non-negative"),
    (mrt_rate, (2.0, np.array([1.0, _NAN]), 0.5), "power is NaN"),
    (mrt_required_power, (_NAN, 5.0, 0.5), "bob_gain is NaN"),
    (mrt_required_power, (2.0, _NAN, 0.5), "rate is NaN"),
    (mrt_required_power, (2.0, 5.0, _NAN), "coupling is NaN"),
    (mrt_required_power, (2.0, -5.0, 0.5), "rate must be non-negative"),
    (mrt_required_power, (2.0, np.float64(-5.0), 0.5), "rate must be non-negative"),
    (mrt_required_power, (2, -5, 0.5), "rate must be non-negative"),
])
def test_closed_forms_name_nan_and_negative_inputs(fn, args, message):
    """A NaN input, a negative power or budget, or a negative MRT rate target
    is a ValueError naming the input, not a result or an OverflowError."""
    with pytest.raises(ValueError) as info:
        fn(*args)
    assert str(info.value) == message


@pytest.mark.parametrize("fn, args, message", [
    (mrt_required_power, (-2.0, 5.0, 0.5), "bob_gain must be positive"),
    (mrt_required_power, (0.0, 5.0, 0.0), "bob_gain must be positive"),
    (mrt_required_power, (2.0, 5.0, -0.5), "coupling must be non-negative"),
    (mrt_required_power, (np.array([2.0, 0.0]), 5.0, 0.0), "bob_gain must be positive"),
    (mrt_required_power, (np.array([2.0, 2.0]), 5.0, np.array([0.5, -0.5])),
     "coupling must be non-negative"),
    (mrt_rate, (-2.0, 1.0, 0.5), "bob_gain must be positive"),
    (mrt_rate, (0.0, 1.0, 0.0), "bob_gain must be positive"),
    (mrt_rate, (2.0, 1.0, -0.5), "coupling must be non-negative"),
    (mrt_rate, (np.array([2.0, -2.0]), 1.0, 0.5), "bob_gain must be positive"),
    (mrt_rate, (np.array([0.0, 2.0]), np.array([1.0, 1.0]), 0.0), "bob_gain must be positive"),
    (lambda1_closed_form, (-2.0, 1.0, 0.5, 3.0), "bob_gain must be non-negative"),
    (lambda1_closed_form, (2.0, -1.0, 0.5, 3.0), "eve_gain must be non-negative"),
    (lambda1_closed_form, (2.0, 1.0, -0.5, 3.0), "coupling must be non-negative"),
    (lambda1_closed_form, (2.0, 1.0, 0.5, -3.0), "rate must be non-negative"),
    (lambda1_closed_form, (2.0, 1.0, 0.5, np.array([3.0, -3.0])), "rate must be non-negative"),
    (lambda1_closed_form, (np.array([2.0, 2.0]), 1.0, np.array([-0.5, 0.5]), 3.0),
     "coupling must be non-negative"),
    (lambda_delta_closed_form, (-2.0, -1.0, 0.5, 1.0), "bob_gain must be non-negative"),
    (lambda_delta_closed_form, (2.0, -1.0, 0.5, 1.0), "eve_gain must be non-negative"),
    (lambda_delta_closed_form, (2.0, 1.0, -0.5, 1.0), "coupling must be non-negative"),
    (lambda_delta_closed_form, (2.0, np.array([1.0, -1.0]), 0.5, 1.0),
     "eve_gain must be non-negative"),
    (lambda_delta_closed_form, (np.array([-2.0, 2.0]), 1.0, 0.5, np.array([1.0, 2.0])),
     "bob_gain must be non-negative"),
])
def test_closed_forms_name_negative_gains_couplings_and_rates(fn, args, message):
    """A negative gain, coupling or λ₁ rate, and a zero Bob gain in the MRT
    forms (which divide by it), is a ValueError naming the input instead of
    a result, a nan, a ZeroDivisionError or an OverflowError."""
    with pytest.raises(ValueError) as info:
        fn(*args)
    assert str(info.value) == message


def test_closed_forms_accept_zero_gains_and_couplings():
    """Zero gains and couplings stay valid where no division by them occurs."""
    assert lambda1_closed_form(0.0, 1.0, 0.0, 1.0) == 0.0
    assert lambda1_closed_form(2.0, 0.0, 0.0, 1.0) == 2.0
    assert lambda_delta_closed_form(0.0, 0.0, 0.0, 1.0) == 1.0
    assert mrt_rate(2.0, 1.0, 0.0) == math.log2(3.0)
    assert mrt_required_power(2.0, 1.0, 0.0) == 0.5


def test_closed_forms_accept_their_edge_values():
    """Zero power, zero rate and zero coupling stay valid inputs."""
    assert lambda_delta_closed_form(2.0, 1.0, 0.5, 0.0) == 1.0
    assert mrt_rate(2.0, 0.0, 0.5) == 0.0
    assert mrt_required_power(2.0, 0.0, 0.5) == 0.0
    assert lambda1_closed_form(2.0, 1.0, 0.0, 0.0) == 2.0


def test_budget_and_target_take_only_real_scalars():
    """An array or a complex number is a named error, not numpy's ambiguous
    truth value later on."""
    for value in (np.array([1.0, math.nan]), np.array([1.0, 2.0]), np.array(1.0), 1.0 + 0j):
        with pytest.raises(ValueError, match="^power budget must be finite and non-negative$"):
            PowerBudget(value)
        with pytest.raises(ValueError, match="^target rate must be finite and positive$"):
            SecrecyTarget(value)


def _random_stats(rng, count=40):
    """(B, E, x) arrays of random pairs, with one orthogonal pair (x = 0)."""
    rows = [channel_stats(random_pair(rng)) for _ in range(count - 1)]
    rows.append(channel_stats(_orthogonal_pair()))
    return tuple(np.array(col) for col in zip(*rows))


def test_closed_forms_on_arrays_equal_scalar_calls():
    """Array inputs give, entry by entry, the Python floats of scalar calls."""
    rng = np.random.default_rng(131)
    b, e, x = _random_stats(rng)
    powers = 10.0 ** rng.uniform(-2.0, 2.0, size=b.size)
    powers[3] = 0.0
    cases = [
        (lambda1_closed_form, lambda i: (b[i], e[i], x[i], 7.0), (b, e, x, 7.0)),
        (lambda_delta_closed_form, lambda i: (b[i], e[i], x[i], powers[i]),
         (b, e, x, powers)),
        (mrt_required_power, lambda i: (b[i], 2.0, x[i]), (b, 2.0, x)),
        (mrt_rate, lambda i: (b[i], powers[i], x[i]), (b, powers, x)),
    ]
    for fn, scalar_args, array_args in cases:
        scalars = [fn(*scalar_args(i)) for i in range(b.size)]
        assert all(type(v) is float for v in scalars), fn.__name__
        got = fn(*array_args)
        assert isinstance(got, np.ndarray) and got.shape == b.shape, fn.__name__
        assert_array_equal(got, scalars, err_msg=fn.__name__)
    assert np.isinf(mrt_required_power(b, 40.0, x)[:-1]).all()


@pytest.mark.parametrize("bob_gain, rate, coupling", [
    ([1.0, 2.0], 2000.0, [0.0, 0.5]),  # 2^R overflows, and inf * 0 is nan
    ([1e-200], 10.0, [1e200]),         # 2^R x / B overflows
])
def test_mrt_required_power_on_arrays_warns_no_more_than_on_floats(bob_gain, rate,
                                                                   coupling):
    """Where a float overflows, array entries equal the scalar calls'
    Python floats, with no numpy warning (an error under this suite)."""
    scalars = [mrt_required_power(b, rate, x) for b, x in zip(bob_gain, coupling)]
    assert scalars == [math.inf] * len(bob_gain)
    assert_array_equal(mrt_required_power(np.array(bob_gain), rate, np.array(coupling)),
                       scalars)


def test_closed_forms_broadcast_over_power_grid():
    rng = np.random.default_rng(137)
    b, e, x = _random_stats(rng, count=5)
    grid = np.array([0.0, 0.1, 1.0, 10.0])
    lam = lambda_delta_closed_form(b[:, None], e[:, None], x[:, None], grid)
    assert lam.shape == (5, 4)
    for i in range(5):
        for j, p in enumerate(grid):
            assert lam[i, j] == lambda_delta_closed_form(b[i], e[i], x[i], p)


def test_array_inputs_raise_the_cauchy_schwarz_error():
    b = np.array([2.0, 2.0, 1.0])
    e = np.array([3.0, 3.0, 1.0])
    x = np.array([1.0, 6.5, 0.5])
    for fn in (lambda1_closed_form, lambda_delta_closed_form):
        with pytest.raises(ValueError, match="Cauchy-Schwarz") as scalar:
            fn(2.0, 3.0, 6.5, 1.0)
        with pytest.raises(ValueError, match="Cauchy-Schwarz") as array:
            fn(b, e, x, 1.0)
        assert str(array.value) == str(scalar.value)
        with pytest.raises(ValueError, match="Cauchy-Schwarz"):
            fn(b[:, None], e[:, None], x[:, None], np.array([0.5, 1.0]))


def test_stacked_channel_stats_equal_channel_stats_bitwise():
    rng = np.random.default_rng(141)
    pairs = [random_pair(rng, n=5) for _ in range(12)]
    h_bob = np.array([p.h_bob for p in pairs]).reshape(3, 4, 5)
    h_eve = np.array([p.h_eve for p in pairs]).reshape(3, 4, 5)
    b, e, x = stacked_channel_stats(h_bob, h_eve)
    assert b.shape == e.shape == x.shape == (3, 4)
    expect = np.array([vdot_stats(p.h_bob, p.h_eve) for p in pairs]).reshape(3, 4, 3)
    assert_array_equal(np.stack([b, e, x], axis=-1), expect)
    assert_array_equal(np.array([channel_stats(p) for p in pairs]).reshape(3, 4, 3), expect)


_SPECIAL_PARTS = [0.0, -0.0, 5e-324, 2.5e-310, math.inf, -math.inf, math.nan]


def test_stacked_channel_stats_x_equals_python_abs_squares_bitwise():
    """x equals Python's ``abs(z) ** 2`` per entry on 2 * 10^5 entries whose
    |z| spans 1e-150 to 1e150, and on every pair of zero, subnormal,
    infinite, NaN and ordinary parts: bit for bit, and NaN where it is NaN
    (Python's NaN is always positive, and ``hypot`` passes on the sign of a
    NaN part).  With a one-element Bob channel of 1, z is the conjugate of
    Eve's entry where both of its parts are finite; an infinite or NaN part
    makes the other one NaN."""
    rng = np.random.default_rng(26)
    size = 200_000
    h_eve = 10.0 ** rng.uniform(-150.0, 150.0, size) * np.exp(1j * rng.uniform(0, 2 * np.pi, size))
    parts = _SPECIAL_PARTS + [1.0, 1e150]
    special = np.array([complex(re, im) for re in parts for im in parts])
    h_eve[:special.size] = special
    h_eve = h_eve[:, None]
    h_bob = np.ones_like(h_eve)
    with np.errstate(invalid="ignore"):  # inf * 0 in the matmuls
        got = stacked_channel_stats(h_bob, h_eve)
        expect = abs_square_stats(h_bob, h_eve)
    for value, ref in zip(got, expect):
        assert value.shape == (size,)
        nan = np.isnan(ref)
        assert_array_equal(np.isnan(value), nan)
        assert value[~nan].tobytes() == ref[~nan].tobytes()
    x = got[2]
    assert np.isinf(x).any() and np.isnan(x).any() and (x == 0.0).any()
    assert x[special.size:].min() < 1e-290 and x[special.size:].max() > 1e290


def test_stacked_channel_stats_x_on_mixed_stacks_equals_python_abs_squares():
    """x equals the per-entry oracle on (R, K, N) stacks of random channels
    whose scale spans 1e-75 to 1e75 per row."""
    rng = np.random.default_rng(27)
    shape = (50, 21, 8)
    scale = 10.0 ** rng.uniform(-75.0, 75.0, shape[:2] + (1,))
    h_bob, h_eve = (scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
                    for _ in range(2))
    for got, ref in zip(stacked_channel_stats(h_bob, h_eve), abs_square_stats(h_bob, h_eve)):
        assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("h_bob, h_eve", [
    ([1e100], [1e100]),  # finite |z| = 1e200 whose square overflows
    ([1.0], [1e300 + 1e300j]),  # finite parts whose |z| overflows
])
def test_stacked_channel_stats_overflow_raises_as_abs_squared_does(h_bob, h_eve):
    h_bob, h_eve = np.array(h_bob, dtype=complex), np.array(h_eve, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # E overflows on the second pair
        with pytest.raises(OverflowError):
            abs_square_stats(h_bob, h_eve)
        with pytest.raises(OverflowError, match="overflows"):
            stacked_channel_stats(h_bob, h_eve)
        with pytest.raises(OverflowError, match="overflows"):
            channel_stats(ChannelPair(h_bob, h_eve))


def _channel_stack(rng, realizations, rows, n):
    """(R, K, N) noise-normalized channels of random layouts, plans and times."""
    h_bob, h_eve = [], []
    for _ in range(realizations):
        scn = random_scenario(rng, n)
        offsets = _plan_offsets(scn, [random_plan(rng, n) for _ in range(rows)])
        hb, he = _channels(scn.rf, scn.bob_distances, scn.eve_distances, offsets,
                           rng.uniform(0.0, 20e-6, rows))
        h_bob.append(hb)
        h_eve.append(he)
    return np.array(h_bob), np.array(h_eve)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 64, 128])
def test_stacked_channel_stats_equal_vdot_rows(n):
    """The matmul reduction equals np.vdot on every row bit for bit, on
    (R, K, N) stacks and on non-contiguous views of them."""
    h_bob, h_eve = _channel_stack(np.random.default_rng(n), 4, 6, n)
    views = {
        "stack": (h_bob, h_eve),
        "every other layout and row": (h_bob[::2, 1::2], h_eve[::2, 1::2]),
        "transposed": (h_bob.transpose(1, 0, 2), h_eve.transpose(1, 0, 2)),
        "every other element": (h_bob[..., ::2], h_eve[..., ::2]),
        "reversed elements": (h_bob[..., ::-1], h_eve[..., ::-1]),
    }
    for name, (hb, he) in views.items():
        b, e, x = stacked_channel_stats(hb, he)
        # Each oracle row is a view with the stack's element stride.
        rows = [vdot_stats(hb[i], he[i]) for i in np.ndindex(hb.shape[:-1])]
        expect = np.array(rows).reshape(*hb.shape[:-1], 3)
        assert_array_equal(np.stack([b, e, x], axis=-1), expect, err_msg=name)


def test_principal_eigvec_span2_residual():
    """The in-span eigenpair solves the full N-dimensional problem.

    ``a`` stays positive, matching how the solvers call this: the top in-span
    eigenvalue then dominates the (n-2)-fold zero eigenvalue of the full
    rank-2 matrix, so comparing against a dense eigensolver is meaningful.
    """
    rng = np.random.default_rng(107)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        u = rng.normal(size=n) + 1j * rng.normal(size=n)
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        a = float(rng.uniform(0.1, 3.0))
        b = float(rng.uniform(-3.0, 3.0))
        val, vec = principal_eigvec_span2(a, u, b, v)
        assert_allclose(np.linalg.norm(vec), 1.0, rtol=1e-12)
        full = a * np.outer(u, u.conj()) + b * np.outer(v, v.conj())
        scale = float(np.linalg.norm(full)) + 1.0
        residual = np.linalg.norm(full @ vec - val * vec)
        assert residual <= 1e-9 * scale
        assert_allclose(val, float(np.linalg.eigvalsh(full)[-1]),
                        rtol=1e-10, atol=1e-12 * scale)


def test_principal_eigvec_span2_degenerate():
    u = np.array([1.0 + 0j, 2.0, -1.0])
    # parallel vectors collapse to a 1-D problem
    val, vec = principal_eigvec_span2(2.0, u, 3.0, (1.5 - 0.5j) * u)
    gain = float(np.vdot(u, u).real)
    expected = 2.0 * gain + 3.0 * abs(1.5 - 0.5j) ** 2 * gain
    assert_allclose(val, expected, rtol=1e-12)
    assert_allclose(abs(np.vdot(vec, u / np.linalg.norm(u))), 1.0, rtol=1e-12)
    # one zero vector is fine, two is not
    val2, _ = principal_eigvec_span2(2.0, u, 3.0, np.zeros(3))
    assert_allclose(val2, 2.0 * gain, rtol=1e-12)
    with pytest.raises(ValueError):
        principal_eigvec_span2(1.0, np.zeros(3), 1.0, np.zeros(3))


def test_principal_eigvec_span2_unit_norm_when_nearly_parallel():
    """Vectors 1e-6 off parallel with balanced weights, as in the max-rate
    call on phased-array channels, still give a unit vector (a single
    Gram-Schmidt pass is off by up to 6e-10 here)."""
    rng = np.random.default_rng(167)
    for _ in range(50):
        u = rng.normal(size=6) + 1j * rng.normal(size=6)
        v = u + 1e-6 * (rng.normal(size=6) + 1j * rng.normal(size=6))
        _, vec = principal_eigvec_span2(1.0, u, -1.0, v)
        assert abs(float(np.vdot(vec, vec).real) - 1.0) <= 4e-15


# ---------------------------------------------------------------------------
# minimum power under a secrecy target


def test_min_power_meets_target_exactly():
    rng = np.random.default_rng(109)
    for _ in range(50):
        pair = random_pair(rng, min_separation=1e-9)
        target = SecrecyTarget(float(rng.uniform(0.5, 10.0)))
        sol = min_power_beamformer(pair, target)
        assert sol.feasible
        assert_allclose(float(np.vdot(sol.beamformer, sol.beamformer).real),
                        sol.power, rtol=1e-12)
        assert_allclose(secrecy_rate(sol.beamformer, pair), target.rate,
                        rtol=1e-9)
        assert sol.power >= power_lower_bound(pair, target) * (1.0 - 1e-12)
        b, _, x = channel_stats(pair)
        assert sol.power <= mrt_required_power(b, target.rate, x) * (1.0 + 1e-12)


def test_min_power_matches_dense_bisection():
    """Independent oracle: bisect the transmit power against the dense
    whitened eigensolver until the best achievable ratio hits 2^R."""
    rng = np.random.default_rng(113)
    for _ in range(10):
        pair = random_pair(rng, min_separation=1e-6)
        target = SecrecyTarget(float(rng.uniform(1.0, 8.0)))
        sol = min_power_beamformer(pair, target)
        threshold = 2.0**target.rate
        lo = power_lower_bound(pair, target)
        hi = lo
        for _ in range(200):
            if dense_lambda_delta(pair, hi) >= threshold:
                break
            hi *= 2.0
        else:
            pytest.fail("no feasible power found")
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if dense_lambda_delta(pair, mid) >= threshold:
                hi = mid
            else:
                lo = mid
        assert_allclose(sol.power, hi, rtol=1e-6)


def test_min_power_infeasible_when_channels_coincide():
    # Bob and Eve in the same spot see identical normalized channels, so no
    # beamformer can create a rate advantage
    scenario = half_wave_scenario(5, 90.0, 1.1, 90.0, 1.1)
    pair = channel_pair(scenario, FrequencyPlan(np.zeros(5)), 0.0)
    sol = min_power_beamformer(pair, SecrecyTarget(2.0))
    assert not sol.feasible
    assert sol.beamformer is None
    assert sol.power == math.inf
    assert sol.lambda1 <= 0.0


def test_min_power_orthogonal_equals_bound():
    pair = _orthogonal_pair(bob_gain=4.0, eve_gain=9.0)
    target = SecrecyTarget(3.0)
    sol = min_power_beamformer(pair, target)
    assert sol.feasible
    assert sol.power == power_lower_bound(pair, target)
    assert_allclose(secrecy_rate(sol.beamformer, pair), target.rate,
                    rtol=1e-12)
    b, _, x = channel_stats(pair)
    assert sol.power == mrt_required_power(b, target.rate, x)


# ---------------------------------------------------------------------------
# maximum rate under a power budget


def _span_grid_best_rate(pair, power, count=200_001):
    """Oracle for the best secrecy rate at ``||w||^2 = power``.

    The optimal direction lies in span{h_b, h_e}.  Parameterize it as
    cos(psi) b1 + sin(psi) e^{j phi} b2 with b1 along h_b; Bob's SNR does
    not depend on phi, so the best phi turns Eve's two contributions
    antiphase and only a 1-D scan over psi remains.
    """
    h_b, h_e = pair.h_bob, pair.h_eve
    b1 = h_b / np.linalg.norm(h_b)
    resid = h_e - np.vdot(b1, h_e) * b1
    b2 = resid / np.linalg.norm(resid)
    q1 = abs(np.vdot(h_e, b1))
    q2 = abs(np.vdot(h_e, b2))
    bob = float(np.vdot(h_b, h_b).real)
    psi = np.linspace(0.0, 0.5 * math.pi, count)
    c, s = np.cos(psi), np.sin(psi)
    eve = (c * q1 - s * q2) ** 2
    ratio = (1.0 + power * bob * c**2) / (1.0 + power * eve)
    return float(np.max(np.log2(ratio)))


def test_max_rate_achieves_claimed_rate():
    rng = np.random.default_rng(127)
    for _ in range(30):
        pair = random_pair(rng, min_separation=1e-9)
        budget = PowerBudget(float(10.0 ** rng.uniform(-2.0, 2.0)))
        sol = max_rate_beamformer(pair, budget)
        assert_allclose(float(np.vdot(sol.beamformer, sol.beamformer).real),
                        budget.power, rtol=1e-12)
        assert_allclose(secrecy_rate(sol.beamformer, pair), sol.rate,
                        rtol=1e-9, atol=1e-12)
        assert_allclose(sol.rate, math.log2(sol.lambda_delta), rtol=1e-12)


def test_max_rate_matches_span_scan_oracle():
    rng = np.random.default_rng(131)
    for power in (0.1, 1.0, 10.0):
        pair = random_pair(rng, n=4, min_separation=1e-6)
        sol = max_rate_beamformer(pair, PowerBudget(power))
        oracle = _span_grid_best_rate(pair, power)
        # the scan can undershoot by its resolution but never beat the truth
        assert sol.rate >= oracle - 1e-6 * max(1.0, oracle)
        assert sol.rate <= oracle + 1e-6 * max(1.0, oracle)


def test_max_rate_on_sweep_geometry():
    """Nearly parallel channels: the reference sweep's shared-bearing draws,
    which the random-pair tests exclude through ``min_separation``.  The
    design meets its claimed rate and the budget for the phased, linear and
    proposed plans alike."""
    config = ExperimentConfig()
    for idx in range(40):
        for n in (1, 2, 4, 8):
            scenario = sample_scenario(np.random.default_rng((0, idx)), config, n)
            plans = (phased_array_plan(n), linear_fda_plan(n, MAX_OFFSET),
                     optimize_offsets(scenario)[0])
            for plan in plans:
                pair = channel_pair(scenario, plan, 0.0)
                for power in (0.1, 1.0, 10.0):
                    sol = max_rate_beamformer(pair, PowerBudget(power))
                    assert abs(secrecy_rate(sol.beamformer, pair) - sol.rate) <= 1e-8
                    assert_allclose(float(np.vdot(sol.beamformer, sol.beamformer).real),
                                    power, rtol=1e-12)


def test_max_rate_monotone_in_power():
    rng = np.random.default_rng(137)
    pair = random_pair(rng, n=5)
    budgets = [10.0**d for d in np.linspace(-2, 2, 15)]
    rates = [max_rate_beamformer(pair, PowerBudget(p)).rate for p in budgets]
    assert np.all(np.diff(rates) >= -1e-12)


def test_max_rate_zero_budget():
    pair = _orthogonal_pair()
    sol = max_rate_beamformer(pair, PowerBudget(0.0))
    assert sol.rate == 0.0
    assert sol.lambda_delta == 1.0
    assert np.all(sol.beamformer == 0.0)
    assert sol.beamformer.shape == pair.h_bob.shape


def test_max_rate_overflow_is_named():
    """A budget at which lambda_delta overflows is a named error, not an
    infinite rate, and raises without a numpy warning."""
    scn = half_wave_scenario(4, 100.0, math.radians(60.0), 120.0, math.radians(60.0))
    pair = channel_pair(scn, FrequencyPlan(np.zeros(4)), 0.0)
    for power in (1e150, 1e305):
        with pytest.raises(OverflowError, match="lambda_delta is"):
            max_rate_beamformer(pair, PowerBudget(power))


def test_closed_forms_own_their_overflow():
    """Scalar and broadcast calls raise the named error without a numpy
    warning, naming the first non-finite entry in C order: its value and
    rate for lambda1 (inf where only ``(2^R E)^2`` overflows, nan where
    ``2^R E`` does), its budget for lambda_delta."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match=r"^lambda1 is inf at a 500-bit target$"):
            lambda1_closed_form(1e3, 1e5, 1.0, 500.0)
        with pytest.raises(OverflowError, match=r"^lambda1 is nan at a 1000-bit target$"):
            lambda1_closed_form(1e3, np.array([[1e3, 1e3], [1e10, 1e5]]), 1.0,
                                np.array([[1.0, 500.0], [1000.0, 500.0]]))
        with pytest.raises(OverflowError,
                           match=r"^lambda_delta is not finite at a 1e\+150 W budget$"):
            lambda_delta_closed_form(1e3, 1e3, 1.0, 1e150)
        with pytest.raises(OverflowError,
                           match=r"^lambda_delta is not finite at a 1e\+160 W budget$"):
            lambda_delta_closed_form(1.0, 1.0, np.array([[1.0], [0.5]]),
                                     np.array([1e100, 1e160, 1e200]))


@pytest.mark.parametrize("rate", [1024.0, 1100.0, 1e308])
def test_targets_past_float_range_are_named(rate):
    """From 1024 bits on, ``2.0**rate`` overflows a Python float: lambda1 is
    then the named nan error, and MRT never meets the target (inf power),
    neither with a numpy warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError) as exc:
            lambda1_closed_form(1e3, 1e5, 1.0, rate)
        assert str(exc.value) == f"lambda1 is nan at a {rate:g}-bit target"
        pair = random_pair(np.random.default_rng(5))
        with pytest.raises(OverflowError, match=r"^lambda1 is nan"):
            min_power_beamformer(pair, SecrecyTarget(rate))
        assert mrt_required_power(1e3, rate, 1.0) == math.inf
        assert mrt_required_power(1e3, rate, 0.0) == math.inf


def test_min_power_on_orthogonal_channels_past_float_range_is_named():
    """On orthogonal channels lambda1 = B stays finite at any target, so an
    infinite 2^R reaches the power: a named error from 1024 bits on, while
    1023.5 bits stays feasible and finite."""
    pair = ChannelPair([1, 0], [0, 1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for rate in (1024.0, 1100.0):
            with pytest.raises(OverflowError) as exc:
                min_power_beamformer(pair, SecrecyTarget(rate))
            assert str(exc.value) == f"power is inf at a {rate:g}-bit target"
        sol = min_power_beamformer(pair, SecrecyTarget(1023.5))
    assert sol.feasible and sol.lambda1 == 1.0
    assert sol.power == 2.0**1023.5 - 1.0
    assert np.isfinite(sol.beamformer).all()


def test_max_rate_orthogonal_equals_mrt():
    pair = _orthogonal_pair(bob_gain=6.0, eve_gain=2.0)
    b, _, x = channel_stats(pair)
    sol = max_rate_beamformer(pair, PowerBudget(2.5))
    assert_allclose(sol.rate, math.log2(1.0 + 2.5 * b), rtol=1e-12)
    assert_allclose(sol.rate, mrt_rate(b, 2.5, x), rtol=1e-12)


# ---------------------------------------------------------------------------
# what is time-invariant: the design at t = 0 rotated per instant, not held

def _max_rate_designs(count):
    """(scenario, plan, t = 0 max-rate design at 1 W) of the seed-0
    reference draws 0 .. count - 1 at N = 4."""
    config = ExperimentConfig()
    designs = []
    for index in range(count):
        scenario, plan, _ = draw_realization(config, 4, index)
        pair = channel_pair(scenario, plan, 0.0)
        designs.append((scenario, plan, max_rate_beamformer(pair, PowerBudget(1.0))))
    return designs


def _rotated(scenario, plan, w, t):
    """diag(exp(j 2 pi f_n t)) w, with f_n t reduced modulo one cycle in
    exact rational arithmetic."""
    freqs = (scenario.rf.carrier_frequency + plan.offsets).tolist()
    turns = [float(Fraction(f) * Fraction(t) % 1) for f in freqs]
    return np.array([cmath.exp(2j * math.pi * u) for u in turns]) * w


def test_rotated_design_keeps_its_rate():
    """Every entry of h(t) is h(0)'s times exp(j 2 pi f_n t), so the
    per-instant weights w(t) = diag(exp(j 2 pi f_n t)) w(0) see the t = 0
    channels at every t and give the designed rate (4.1e-15 relative at
    worst over the first 100 draws)."""
    for scenario, plan, design in _max_rate_designs(5):
        assert design.rate > 1.0
        for t in (5e-9, 1e-6, 20e-6):  # within the reference 20 us window
            w_t = _rotated(scenario, plan, design.beamformer, t)
            rate = secrecy_rate(w_t, channel_pair(scenario, plan, t))
            assert abs(rate - design.rate) <= 1e-13 * design.rate, (t, rate, design.rate)


def test_held_design_loses_its_rate():
    """A w held fixed does not keep its rate: 5 ns after t = 0 the t = 0
    design falls below half of it (at most 0.492 of it over the first 100
    draws), because the per-element rotation breaks its null on Eve."""
    for scenario, plan, design in _max_rate_designs(5):
        rate = secrecy_rate(design.beamformer, channel_pair(scenario, plan, 5e-9))
        assert rate < 0.5 * design.rate, (rate, design.rate)


# ---------------------------------------------------------------------------
# maximum-ratio transmission baseline


def test_mrt_beamformer_alignment():
    rng = np.random.default_rng(139)
    pair = random_pair(rng, n=6)
    w = mrt_beamformer(pair.h_bob, PowerBudget(3.0))
    assert_allclose(float(np.vdot(w, w).real), 3.0, rtol=1e-12)
    b = float(np.vdot(pair.h_bob, pair.h_bob).real)
    assert_allclose(abs(np.vdot(pair.h_bob, w)) ** 2, 3.0 * b, rtol=1e-12)
    with pytest.raises(ValueError):
        mrt_beamformer(np.zeros(4, dtype=complex), PowerBudget(1.0))


def test_mrt_rate_matches_direct_evaluation():
    rng = np.random.default_rng(149)
    for _ in range(20):
        pair = random_pair(rng)
        power = float(10.0 ** rng.uniform(-2.0, 2.0))
        b, _, x = channel_stats(pair)
        w = mrt_beamformer(pair.h_bob, PowerBudget(power))
        assert_allclose(mrt_rate(b, power, x),
                        secrecy_rate(w, pair), rtol=1e-9, atol=1e-12)


def test_mrt_required_power_meets_target():
    rng = np.random.default_rng(151)
    seen_finite = 0
    for _ in range(40):
        pair = random_pair(rng)
        target = SecrecyTarget(float(rng.uniform(0.5, 6.0)))
        b, _, x = channel_stats(pair)
        p_req = mrt_required_power(b, target.rate, x)
        if not math.isfinite(p_req):
            continue
        seen_finite += 1
        assert_allclose(mrt_rate(b, p_req, x), target.rate,
                        rtol=1e-9)
        sol = min_power_beamformer(pair, target)
        assert sol.power <= p_req * (1.0 + 1e-12)
    assert seen_finite >= 10


def test_mrt_required_power_infinite_branch():
    scenario = half_wave_scenario(3, 90.0, 0.7, 90.0, 0.7)
    pair = channel_pair(scenario, FrequencyPlan(np.zeros(3)), 0.0)
    b, _, x = channel_stats(pair)
    assert mrt_required_power(b, 1.0, x) == math.inf


def test_optimal_rate_dominates_mrt():
    rng = np.random.default_rng(157)
    for _ in range(30):
        pair = random_pair(rng)
        power = float(10.0 ** rng.uniform(-1.0, 2.0))
        b, _, x = channel_stats(pair)
        best = max_rate_beamformer(pair, PowerBudget(power)).rate
        assert best >= mrt_rate(b, power, x) - 1e-9


def test_global_phase_invariance():
    """Rotating either channel by a unit phase changes no reported scalar."""
    rng = np.random.default_rng(163)
    pair = random_pair(rng, n=4)
    rotated = ChannelPair(h_bob=pair.h_bob * np.exp(0.9j),
                          h_eve=pair.h_eve * np.exp(-2.2j))
    target = SecrecyTarget(3.0)
    budget = PowerBudget(0.7)
    a = min_power_beamformer(pair, target)
    b = min_power_beamformer(rotated, target)
    assert_allclose(a.power, b.power, rtol=1e-12)
    assert_allclose(a.lambda1, b.lambda1, rtol=1e-12)
    c = max_rate_beamformer(pair, budget)
    d = max_rate_beamformer(rotated, budget)
    assert_allclose(c.rate, d.rate, rtol=1e-11)
