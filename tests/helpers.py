"""Shared builders and brute-force oracles for randomized tests."""

import math
import os
from dataclasses import dataclass

import numpy as np

from fdabeam import (
    ArrayGeometry,
    FrequencyPlan,
    NodePlacement,
    RfParams,
    Scenario,
    channel_pair,
)
from fdabeam import experiments, kernels
from fdabeam.beamforming import (
    channel_stats,
    lambda1_closed_form,
    lambda_delta_closed_form,
    mrt_rate,
    mrt_required_power,
)
from fdabeam.coupling import (
    OptimizerTrace,
    cosine_argmin,
    optimize_offsets,
)
from fdabeam.experiments import (
    SCHEMES,
    linear_fda_plan,
    phased_array_plan,
    sample_scenario,
)
from fdabeam.scenario import _channels, _plan_offsets, _synthesize

CARRIER = 2.4e9
MAX_OFFSET = 3e6
NOISE = 1e-13

_CHUNK = 1 << 18
_SCAN_CHUNK = 1 << 14
_TWO_PI = 2.0 * math.pi


def reference_rf(max_offset=MAX_OFFSET):
    return RfParams(carrier_frequency=CARRIER, max_offset=max_offset,
                    noise_power_bob=NOISE, noise_power_eve=NOISE)


def half_wave_scenario(n, r_bob, theta_bob, r_eve, theta_eve, rf=None):
    rf = rf or reference_rf()
    return Scenario(rf=rf,
                    array=ArrayGeometry(n, 0.0, rf.wavelength / 2.0),
                    bob=NodePlacement(r_bob, theta_bob),
                    eve=NodePlacement(r_eve, theta_eve))


def random_scenario(rng, n=None, shared_bearing=False):
    """Random layout under the reference RF constants.

    ``shared_bearing`` pins Eve a fixed 20 m behind Bob on the same angle;
    otherwise both nodes are drawn independently, which spreads the channel
    inner products over a much wider range.
    """
    if n is None:
        n = int(rng.integers(2, 9))
    r_b = float(rng.uniform(50.0, 150.0))
    th_b = float(rng.uniform(0.0, np.pi))
    if shared_bearing:
        r_e, th_e = r_b + 20.0, th_b
    else:
        r_e = float(rng.uniform(70.0, 170.0))
        th_e = float(rng.uniform(0.0, np.pi))
    return half_wave_scenario(n, r_b, th_b, r_e, th_e)


def random_plan(rng, n, max_offset=MAX_OFFSET):
    return FrequencyPlan(rng.uniform(0.0, max_offset, n))


def random_pair(rng, n=None, shared_bearing=False, min_separation=0.0):
    """Random channel pair; ``min_separation`` rejects draws whose channels
    are numerically parallel (1 - x/(B*E) below the threshold), where both
    the closed forms and any dense oracle lose relative accuracy."""
    while True:
        scn = random_scenario(rng, n, shared_bearing)
        plan = random_plan(rng, scn.array.element_count)
        t = float(rng.uniform(0.0, 20e-6))
        pair = channel_pair(scn, plan, t)
        if min_separation == 0.0:
            return pair
        hb, he = pair.h_bob, pair.h_eve
        b = np.vdot(hb, hb).real
        e = np.vdot(he, he).real
        x = abs(np.vdot(he, hb)) ** 2
        if 1.0 - x / (b * e) >= min_separation:
            return pair


def channel_vector(scenario, node, plan, t=0.0):
    """Free-space channel of ``node`` ("bob" or "eve") under ``plan`` at ``t``
    before noise normalization; the synthesis behind ``scenario.channel_pair``."""
    dist = {"bob": scenario.bob_distances, "eve": scenario.eve_distances}[node]
    return _synthesize(scenario.rf, dist, _plan_offsets(scenario, (plan,)), (t,))[0]


def floor_synthesize(rf, dist, offsets, times):
    """``scenario._synthesize`` with the phase reduced as ``cycles -
    np.floor(cycles)``; the package's ``np.modf`` reduction must equal it bit
    for bit.  Input checks are left to the package."""
    times = np.asarray(times, dtype=np.longdouble)
    dist = dist[..., None, :]
    amp = rf.wavelength / (4.0 * np.pi * dist)
    delay = times[:, None] - dist.astype(np.longdouble) / np.longdouble(rf.wave_speed)
    cycles = (rf.carrier_frequency + offsets).astype(np.longdouble) * delay
    frac = (cycles - np.floor(cycles)).astype(float)
    return amp * np.exp(1j * _TWO_PI * frac)


def zero_plan_descent(scenario, **options):
    """``optimize_offsets`` from an explicit all-zero plan; its ``initial=None``
    start must equal this bit for bit."""
    zero = FrequencyPlan(np.zeros(scenario.array.element_count))
    return optimize_offsets(scenario, zero, **options)


def pool_on_every_task_list(monkeypatch, tmp_path):
    """Let ``experiments._map_tasks`` start a pool for any task list of two
    or more (one task per worker suffices, on four usable CPUs whatever the
    machine has) and log the process of every descent the sweeps start
    (``experiments.optimize_offsets``).  Returns a function giving the ids of
    the processes other than this one that descended, so a test can check
    that a pool really ran."""
    monkeypatch.setattr(experiments, "_TASKS_PER_WORKER", 1)
    monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                        raising=False)
    log = tmp_path / "descent_pids.txt"
    log.touch()
    descend = experiments.optimize_offsets

    def logged_descent(*args, **kwargs):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return descend(*args, **kwargs)

    monkeypatch.setattr(experiments, "optimize_offsets", logged_descent)
    return lambda: set(log.read_text().split()) - {str(os.getpid())}


def rowwise_nanstat(fn, block):
    """Per-row form of ``experiments._row_stats``: ``fn`` of each row's
    non-NaN entries, NaN for an all-NaN row."""
    rows = (row[~np.isnan(row)] for row in block)
    return np.array([fn(good) if good.size else math.nan for good in rows], dtype=float)


def scheme_mean(result, scheme):
    """Mean of each axis value's feasible (non-NaN) realizations of
    ``scheme`` in a ``SweepResult``, NaN where none is feasible."""
    return rowwise_nanstat(np.mean, result.values[scheme])


def power_lower_bound(pair, target):
    """Eavesdropper-free power floor ``(2^R - 1) / ||h_b||^2``."""
    b, _, _ = channel_stats(pair)
    return (2.0**target.rate - 1.0) / b


def mrt_beamformer(h_bob, budget):
    """Maximum-ratio transmission: all power along Bob's channel."""
    norm = float(np.linalg.norm(h_bob))
    if norm == 0.0:
        raise ValueError("cannot steer toward a zero channel")
    return math.sqrt(budget.power) * np.asarray(h_bob, dtype=complex) / norm


# ---------------------------------------------------------------------------
# brute-force oracles


def dense_lambda1(pair, rate):
    """Largest eigenvalue of ``h_b h_b^H - 2^R h_e h_e^H``, by numpy's dense
    Hermitian eigensolver."""
    h_b, h_e = pair.h_bob, pair.h_eve
    z = np.outer(h_b, h_b.conj()) - 2.0**rate * np.outer(h_e, h_e.conj())
    return float(np.linalg.eigvalsh(z)[-1])


def dense_lambda_delta(pair, power):
    """Dense whitened EVD, with one generalized Rayleigh quotient to polish.

    The whitening step alone carries an eps * (1 + P E) error; evaluating
    the quotient of the original pencil at the dense eigenvector removes it,
    because the quotient is stationary there (second-order in the vector
    error).
    """
    a = 1.0 / power
    n = pair.h_bob.shape[0]
    h_b, h_e = pair.h_bob, pair.h_eve
    m = a * np.eye(n, dtype=complex) + np.outer(h_e, h_e.conj())
    t = a * np.eye(n, dtype=complex) + np.outer(h_b, h_b.conj())
    vals, vecs = np.linalg.eigh(m)
    m_isqrt = (vecs * (vals**-0.5)) @ vecs.conj().T
    _, dvecs = np.linalg.eigh(m_isqrt @ t @ m_isqrt)
    u = m_isqrt @ dvecs[:, -1]
    uu = a * float(np.vdot(u, u).real)
    return (uu + abs(np.vdot(h_b, u)) ** 2) / (uu + abs(np.vdot(h_e, u)) ** 2)


def coupling_power_row(alpha, omega, freqs):
    """``kernels.coupling_power`` of the terms at one frequency vector."""
    return kernels.coupling_power(alpha * np.exp(1j * (omega * freqs)))


def numpy_coupling_power(terms):
    """``kernels.coupling_power`` with the square taken in numpy scalars
    (float64 parts of the pairwise sum); the package's Python-float form
    must equal it bit for bit."""
    s = np.add.reduce(terms)
    return float(s.real * s.real + s.imag * s.imag)


def coupling_power_batch(alpha, omega, freq_rows):
    """|sum_n alpha_n exp(j omega_n f_n)|^2 for each row of ``freq_rows``."""
    rows = freq_rows.shape[0]
    out = np.empty(rows)
    for start in range(0, rows, _CHUNK):
        block = freq_rows[start:start + _CHUNK]
        s = np.exp(1j * (block * omega)) @ alpha
        out[start:start + _CHUNK] = s.real * s.real + s.imag * s.imag
    return out


def coordinate_scan(weights, phases, slope, f_lo, f_hi, count):
    """Brute-force minimum of ``sum_k w_k cos(slope*f - phases[k])`` on a grid.

    Scans ``count`` equispaced points on [f_lo, f_hi] (both endpoints
    included) and returns ``(f_best, value_best)``.
    """
    step = (f_hi - f_lo) / (count - 1)
    best_val = np.inf
    best_f = f_lo
    buf = np.empty((min(_SCAN_CHUNK, count), phases.shape[0]))
    for start in range(0, count, _SCAN_CHUNK):
        idx = np.arange(start, min(start + _SCAN_CHUNK, count))
        f = f_lo + step * idx
        arg = np.subtract(slope * f[:, None], phases[None, :], out=buf[:idx.size])
        vals = np.cos(arg, out=arg) @ weights
        k = int(np.argmin(vals))
        if vals[k] < best_val:
            best_val = float(vals[k])
            best_f = float(f[k])
    return best_f, best_val


def grid_oracle(scenario, points_per_axis):
    """Exhaustive minimum of the coupling on a regular offset grid.

    Only intended for small arrays (N <= 3); the grid has
    ``points_per_axis ** N`` nodes including both box endpoints.
    """
    n = scenario.array.element_count
    if n > 3:
        raise ValueError("grid oracle is limited to 3 elements")
    if points_per_axis < 2:
        raise ValueError("need at least 2 points per axis")
    omega, alpha = scenario.omega, scenario.alpha
    axis = np.linspace(0.0, scenario.rf.max_offset, points_per_axis)
    mesh = np.stack(np.meshgrid(*([axis] * n), indexing="ij"), axis=-1)
    offsets = mesh.reshape(-1, n)
    vals = coupling_power_batch(
        alpha, omega, scenario.rf.carrier_frequency + offsets)
    best = int(np.argmin(vals))
    return (FrequencyPlan(offsets[best]),
            scenario.rf.coupling_prefactor * float(vals[best]))


def two_level_optimum(scenario):
    """Minimum coupling over the 2^N plans whose every offset is 0 or
    ``max_offset`` (N <= 12)."""
    n = scenario.array.element_count
    if n > 12:
        raise ValueError("two-level oracle is limited to 12 elements")
    bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    vals = coupling_power_batch(scenario.alpha, scenario.omega,
                                scenario.rf.carrier_frequency + bits * scenario.rf.max_offset)
    return scenario.rf.coupling_prefactor * float(vals.min())


@dataclass(frozen=True)
class CosineTerm:
    """Single-coordinate objective ``amplitude * cos(|omega_n| f - phase)``."""

    amplitude: float
    phase: float


def _other_sums(n, freqs, coeffs):
    """Real and imaginary coupling sums over every element but n;
    ``coeffs`` is the ``(omega, alpha)`` pair of a ``Scenario``."""
    omega, alpha = coeffs
    phases = omega * freqs
    mask = np.arange(freqs.shape[0]) != n
    a = float(np.sum(alpha[mask] * np.cos(phases[mask])))
    b = float(np.sum(alpha[mask] * np.sin(phases[mask])))
    return a, b


def _cosine_term(n, freqs, coeffs):
    """Reduce the coupling seen by element n to a single cosine in f_n."""
    a, b = _other_sums(n, freqs, coeffs)
    omega_n = coeffs[0][n]
    sign = math.copysign(1.0, omega_n) if omega_n != 0 else 0.0
    return CosineTerm(amplitude=math.hypot(a, b), phase=sign * math.atan2(b, a))


def _coordinate_minimizer(a, b, omega_n, rf):
    """Best frequency f in the box [f_c, f_c + f_m] for one coordinate.

    ``a + jb`` is the coupling sum over every other element, so the part of
    the coupling that depends on f is ``a cos(omega_n f) + b sin(omega_n f)``
    (up to a positive factor), i.e. ``hypot(a, b) cos(|omega_n| f - phase)``.
    Returns None when every f in the box is optimal (omega_n = 0, a vanishing
    amplitude or an empty offset budget).  The package's descent inlines this
    expression sequence, ``cosine_argmin``'s steps included, with
    per-element constants hoisted; its results must equal this form bit for
    bit.
    """
    amplitude = math.hypot(a, b)
    w = abs(omega_n)
    if w == 0.0 or amplitude == 0.0 or rf.max_offset == 0.0:
        return None
    phase = math.copysign(1.0, omega_n) * math.atan2(b, a)
    f_lo = rf.carrier_frequency
    f_hi = rf.carrier_frequency + rf.max_offset
    x = cosine_argmin(w * f_lo - phase, w * f_hi - phase)
    return min(max((x + phase) / w, f_lo), f_hi)


def _best_frequency(n, freqs, coeffs, rf):
    """Best frequency f_n in [f_c, f_c + f_m] with all other entries fixed.

    Rebuilds the sums over the other elements from all N phases and hands
    them to :func:`_coordinate_minimizer`.  Degenerate coordinates
    (omega_n = 0, a vanishing amplitude or no offset budget) leave the
    current frequency unchanged.
    """
    a, b = _other_sums(n, freqs, coeffs)
    f_new = _coordinate_minimizer(a, b, float(coeffs[0][n]), rf)
    return float(freqs[n]) if f_new is None else f_new


def reference_descent(scenario, initial=None, tol=1e-8, max_outer=50):
    """Full-recompute form of ``coupling.optimize_offsets``.

    Every coordinate rebuilds its cosine term from all N phases and every
    update re-evaluates the whole coupling sum; the package's descent must
    reproduce this arithmetic bit for bit.  Input checks are left to the
    package.
    """
    rf = scenario.rf
    n_elem = scenario.array.element_count
    if initial is None:
        initial = FrequencyPlan(np.zeros(n_elem))
    coeffs = (scenario.omega, scenario.alpha)
    omega, alpha = coeffs
    pref = scenario.rf.coupling_prefactor
    freqs = rf.carrier_frequency + initial.offsets.copy()
    history = [pref * coupling_power_row(alpha, omega, freqs)]
    rejected = 0
    converged = False
    outer = 0
    while outer < max_outer and not converged:
        outer += 1
        g_before = history[-1]
        for i in range(n_elem):
            f_old = freqs[i]
            freqs[i] = _best_frequency(i, freqs, coeffs, rf)
            g_new = pref * coupling_power_row(alpha, omega, freqs)
            if g_new > history[-1]:
                freqs[i] = f_old
                g_new = history[-1]
                rejected += 1
            history.append(g_new)
        if g_before - history[-1] <= tol * g_before:
            converged = True

    offsets = np.clip(freqs - rf.carrier_frequency, 0.0, rf.max_offset)
    trace = OptimizerTrace(objective_history=history, outer_iterations=outer,
                           converged=converged, rejected_updates=rejected)
    return FrequencyPlan(offsets), trace


def update_frequency_case_table(n, plan, coeffs, rf):
    """Case-table form of the coordinate update ``_best_frequency``.

    Splits the shifted interval endpoint ``a = (|omega_n| f_c - phase) mod
    2 pi`` into five cases instead of calling the generic cosine argmin.
    Both paths agree on objective value away from the case boundaries.
    """
    freqs = rf.carrier_frequency + plan.offsets
    f_c = rf.carrier_frequency
    f_m = rf.max_offset
    term = _cosine_term(n, freqs, coeffs)
    w = abs(float(coeffs[0][n]))
    if w == 0.0 or term.amplitude == 0.0 or f_m == 0.0:
        return float(freqs[n])
    b = w * f_c - term.phase
    a = b - _TWO_PI * math.floor(b / _TWO_PI)
    c = w * f_m
    d = b - a + term.phase
    if a <= math.pi:
        if c + a < math.pi:
            f = f_c + f_m
        else:
            f = (math.pi + d) / w
    else:
        if c + 2.0 * a < 4.0 * math.pi:
            f = f_c
        elif c + a >= 3.0 * math.pi:
            f = (3.0 * math.pi + d) / w
        else:
            f = f_c + f_m
    return min(max(f, f_c), f_c + f_m)


# ---------------------------------------------------------------------------
# per-realization sweep oracle


def vdot_stats(h_bob, h_eve):
    """(B, E, x) of one channel pair through ``np.vdot``; the row oracle of
    ``beamforming.stacked_channel_stats``."""
    b = float(np.vdot(h_bob, h_bob).real)
    e = float(np.vdot(h_eve, h_eve).real)
    x = float(abs(np.vdot(h_eve, h_bob)) ** 2)
    return b, e, x


def abs_square_stats(h_bob, h_eve):
    """``beamforming.stacked_channel_stats`` with x as a list of Python's
    ``abs(z) ** 2``, one complex entry at a time; the package's array form
    must equal it bit for bit, and overflow where it does."""
    col_bob = h_bob[..., :, None]
    b = (h_bob.conj()[..., None, :] @ col_bob)[..., 0, 0].real
    e = (h_eve.conj()[..., None, :] @ h_eve[..., :, None])[..., 0, 0].real
    z = (h_eve.conj()[..., None, :] @ col_bob)[..., 0, 0]
    x = np.array([abs(v) ** 2 for v in z.ravel().tolist()]).reshape(z.shape)
    return b, e, x


def plan_stats(scenario, plan_star, times):
    """(B, E, x) of one sweep realization from one channel synthesis
    (``_channels`` of the scenario), row by row through :func:`vdot_stats`.

    Rows 0-2 are the proposed, linear-FDA and phased-array plans at the
    first time sample; row 3 + k is the proposed plan at ``times[1 + k]``.
    """
    n = scenario.array.element_count
    plans = (plan_star, linear_fda_plan(n, MAX_OFFSET), phased_array_plan(n))
    offsets = _plan_offsets(scenario, plans + (plan_star,) * (len(times) - 1))
    h_bob, h_eve = _channels(scenario.rf, scenario.bob_distances, scenario.eve_distances,
                             offsets, (times[0],) * len(plans) + tuple(times[1:]))
    return np.array([vdot_stats(b, e) for b, e in zip(h_bob, h_eve)]).T


def _spreads(times, checks):
    spread = {}
    for scheme, (reference, later) in checks.items():
        if len(times) > 1 and not math.isnan(reference):
            deviation = np.max(np.abs(np.asarray(later()) - reference))
            spread[scheme] = float(deviation / abs(reference)) if reference else 0.0
    return spread


def draw_realization(config, n, index):
    """Realization ``index`` of a sweep at ``n`` elements, on its own: its
    scenario from numpy's own ``default_rng((seed, index))`` through
    ``sample_scenario``, the optimized plan and the descent trace.  The
    prologue of the per-realization oracle below, which shares no draw code
    with the sweeps."""
    scenario = sample_scenario(np.random.default_rng((config.rng_seed, index)), config, n)
    return scenario, *optimize_offsets(scenario)


def _power_realization(config, n, index):
    scenario, plan_star, _ = draw_realization(config, n, index)
    rate = config.target_rate
    times = config.time_samples or (0.0,)
    b, e, x = plan_stats(scenario, plan_star, times)
    lam1 = lambda1_closed_form(b, e, x, rate)  # raises on overflow
    excess = 2.0**rate - 1.0
    power = np.divide(excess, lam1, out=np.full(lam1.shape, math.inf), where=lam1 > 0.0)
    p_mrt = mrt_required_power(b[0], rate, x[0])
    row = np.array([excess / b[2], *power[:3], p_mrt])
    row[~np.isfinite(row)] = math.nan
    spread = _spreads(times, {
        "proposed": (row[1], lambda: power[3:]),
        "mrt": (row[4], lambda: [mrt_required_power(b_t, rate, x_t)
                                 for b_t, x_t in zip(b[3:], x[3:])]),
    })
    return row, spread


def _rate_realization(config, index):
    scenario, plan_star, _ = draw_realization(config, config.antenna_counts[0], index)
    times = config.time_samples or (0.0,)
    b, e, x = plan_stats(scenario, plan_star, times)
    grid = np.array(config.power_grid, dtype=float)
    # Overflow raises at the first failing grid power, the bound (lambda_delta
    # at zero coupling, exactly 1 + P B) included.
    for p in grid:
        lambda_delta_closed_form(b[[0, 0, 1, 2]], e[[0, 0, 1, 2]], np.r_[0.0, x[:3]], p)
    free = 1.0 + grid * b[0]
    lam = lambda_delta_closed_form(b[:3, None], e[:3, None], x[:3, None], grid)
    rates = np.vstack([np.log2(free), np.maximum(np.log2(lam), 0.0),
                       mrt_rate(b[0], grid, x[0])])
    top = int(np.argmax(grid))
    spread = _spreads(times, {
        "proposed": (rates[1, top], lambda: np.log2(
            lambda_delta_closed_form(b[3:], e[3:], x[3:], grid[top]))),
        "mrt": (rates[4, top], lambda: mrt_rate(b[3:], grid[top], x[3:])),
    })
    return rates, spread


def realization_sweep(config, which):
    """Per-realization form of ``run_power_sweep`` (``which="power"``) or
    ``run_rate_sweep`` (``"rate"``): every realization synthesizes its own
    channels, reduces them row by row through :func:`vdot_stats` and
    evaluates the closed forms on its own (K,) stats.  Returns the sweep's
    ``(values, time_spread)``, placed as the sweeps place them."""
    reps = config.realizations
    if which == "power":
        results = [_power_realization(config, n, idx)
                   for n in config.antenna_counts for idx in range(reps)]
    else:
        results = [_rate_realization(config, idx) for idx in range(reps)]
    table = np.array([m for m, _ in results])
    table = table.reshape(len(results) // reps, reps, len(SCHEMES), -1)
    spread = {}
    for _, sp in results:
        for s, v in sp.items():
            spread[s] = max(spread.get(s, 0.0), v)
    values = {s: table[:, :, SCHEMES.index(s)].swapaxes(1, 2).reshape(-1, reps)
              for s in config.baselines}
    return values, {s: v for s, v in spread.items() if s in config.baselines}


def realization_convergence(config):
    """Per-realization form of ``run_convergence_study``: every (count,
    index) draws and descends on its own through :func:`draw_realization`.
    Returns the study's ``(mean_history, outer_counts)``."""
    mean_history, outer_counts = {}, {}
    for n in config.antenna_counts:
        traces = [draw_realization(config, n, idx)[2] for idx in range(config.realizations)]
        histories = [trace.objective_history[::n] for trace in traces]
        depth = max(len(h) for h in histories)
        padded = np.array([h + [h[-1]] * (depth - len(h)) for h in histories])
        mean_history[n] = padded.mean(axis=0)
        outer_counts[n] = np.array([trace.outer_iterations for trace in traces], dtype=float)
    return mean_history, outer_counts


def first_layout_error(config, counts):
    """The message of the first (count, index) task, in the sweeps' task
    order over ``counts``, whose draw fails, or None."""
    for n in counts:
        for idx in range(config.realizations):
            try:
                sample_scenario(np.random.default_rng((config.rng_seed, idx)), config, n)
            except ValueError as exc:
                return str(exc)
    return None
