"""Closed-form secrecy beamformers against dense linear-algebra oracles."""

import math
import warnings

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
    snr,
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
from fdabeam.scenario import ChannelPair, FrequencyPlan, channel_pair, channel_pairs

from helpers import (
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


def _dense_lambda1(pair, rate):
    h_b, h_e = pair.h_bob, pair.h_eve
    z = np.outer(h_b, h_b.conj()) - 2.0**rate * np.outer(h_e, h_e.conj())
    return float(np.linalg.eigvalsh(z)[-1])


def _dense_lambda_delta(pair, power):
    """Symmetric whitened eigenproblem, built with dense factorizations."""
    a = 1.0 / power
    n = pair.h_bob.shape[0]
    m = a * np.eye(n, dtype=complex) + np.outer(pair.h_eve, pair.h_eve.conj())
    t = a * np.eye(n, dtype=complex) + np.outer(pair.h_bob, pair.h_bob.conj())
    vals, vecs = np.linalg.eigh(m)
    m_isqrt = (vecs * (vals**-0.5)) @ vecs.conj().T
    return float(np.linalg.eigvalsh(m_isqrt @ t @ m_isqrt)[-1])


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
        assert_allclose(lam, _dense_lambda1(pair, rate), rtol=1e-9)


def test_lambda_delta_matches_dense_eigensolver():
    """Powers span the 0.01-10 W operating range; beyond that the *oracle*
    loses accuracy, since its whitening error grows like eps * (1 + P E)."""
    rng = np.random.default_rng(103)
    for _ in range(100):
        pair = random_pair(rng, min_separation=1e-6)
        power = float(10.0 ** rng.uniform(-2.0, 1.0))
        b, e, x = channel_stats(pair)
        lam = lambda_delta_closed_form(b, e, x, power)
        assert lam >= 1.0
        assert_allclose(lam, _dense_lambda_delta(pair, power), rtol=1e-9)


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
    for power in (math.nan, math.inf):
        with pytest.raises(ValueError, match="power budget must be finite"):
            PowerBudget(power)
    for rate in (math.nan, math.inf):
        with pytest.raises(ValueError, match="target rate must be finite"):
            SecrecyTarget(rate)


def test_budget_and_target_take_only_real_scalars():
    """An array, a string or a bool is a named error, not numpy's ambiguous
    truth value later on; numpy and Python numbers are accepted."""
    for value in (np.array([1.0, math.nan]), np.array([1.0, 2.0]), np.array(1.0),
                  "1", True, 1.0 + 0j, None):
        with pytest.raises(ValueError, match="power budget must be a real scalar"):
            PowerBudget(value)
        with pytest.raises(ValueError, match="target rate must be a real scalar"):
            SecrecyTarget(value)
    for value in (2, np.float64(2.0), np.int64(2), np.float32(2.0)):
        assert PowerBudget(value).power == 2.0
        assert SecrecyTarget(value).rate == 2.0


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


def _channel_stack(rng, realizations, rows, n):
    """(R, K, N) noise-normalized channels of random layouts, plans and times."""
    h_bob, h_eve = [], []
    for _ in range(realizations):
        scn = random_scenario(rng, n)
        hb, he = channel_pairs(scn, [random_plan(rng, n) for _ in range(rows)],
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
            if _dense_lambda_delta(pair, hi) >= threshold:
                break
            hi *= 2.0
        else:
            pytest.fail("no feasible power found")
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if _dense_lambda_delta(pair, mid) >= threshold:
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


def test_max_rate_orthogonal_equals_mrt():
    pair = _orthogonal_pair(bob_gain=6.0, eve_gain=2.0)
    b, _, x = channel_stats(pair)
    sol = max_rate_beamformer(pair, PowerBudget(2.5))
    assert_allclose(sol.rate, math.log2(1.0 + 2.5 * b), rtol=1e-12)
    assert_allclose(sol.rate, mrt_rate(b, 2.5, x), rtol=1e-12)


# ---------------------------------------------------------------------------
# maximum-ratio transmission baseline


def test_mrt_beamformer_alignment():
    rng = np.random.default_rng(139)
    pair = random_pair(rng, n=6)
    w = mrt_beamformer(pair.h_bob, PowerBudget(3.0))
    assert_allclose(float(np.vdot(w, w).real), 3.0, rtol=1e-12)
    b = float(np.vdot(pair.h_bob, pair.h_bob).real)
    assert_allclose(snr(w, pair.h_bob), 3.0 * b, rtol=1e-12)
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
