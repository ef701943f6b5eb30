"""Bob/Eve channel coupling and frequency-offset optimization.

The squared coupling ``g = |h_eve^H h_bob|^2`` between the noise-normalized
channels factors into geometry-only coefficients

    omega_n = 2 pi (r_eve_n - r_bob_n) / c      (rad/Hz)
    alpha_n = 1 / (r_bob_n r_eve_n)             (1/m^2)

via ``g = K |sum_n alpha_n exp(j omega_n f_n)|^2`` with a constant prefactor
``K = wavelength^4 / ((4 pi)^4 sigma_b^2 sigma_e^2)``.  Time drops out
entirely, so minimizing g over the per-element frequencies is a purely
geometric problem.  The minimization runs as cyclic coordinate descent where
each 1-D subproblem has a closed-form solution.

The descent caches the per-element terms ``alpha_n cos(phi_n)``,
``alpha_n sin(phi_n)`` and ``alpha_n exp(j phi_n)`` with
``phi_n = omega_n f_n``, and rewrites entry n only when an update of f_n is
accepted.  Each coordinate still sums the other N - 1 real terms, and each
re-evaluation (``kernels.coupling_power``) all N complex terms, in index
order with numpy's pairwise sum, exactly as recomputing every phase per
update would; offsets and objective values are therefore bit for bit those
of that full-recompute form (``tests/helpers.py`` keeps it as the oracle).  A running sum would make the
update O(1), but its ulp drift decides the outcome at the cancellation floor,
where the reachable couplings are roundoff noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .scenario import FrequencyPlan, RfParams, Scenario

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class CouplingCoefficients:
    """Geometry-only coefficients of the coupling objective."""

    omega: np.ndarray
    alpha: np.ndarray

    def __post_init__(self):
        om = np.array(self.omega, dtype=float, copy=True)
        al = np.array(self.alpha, dtype=float, copy=True)
        if om.shape != al.shape or om.ndim != 1:
            raise ValueError("omega and alpha must be 1-D and equally sized")
        if np.any(al <= 0):
            raise ValueError("alpha entries must be positive")
        om.flags.writeable = False
        al.flags.writeable = False
        object.__setattr__(self, "omega", om)
        object.__setattr__(self, "alpha", al)


@dataclass
class OptimizerTrace:
    """Convergence record of :func:`optimize_offsets`.

    ``objective_history`` holds the coupling value before any update followed
    by one entry per inner (single-coordinate) update.  ``rejected_updates``
    counts the updates whose re-evaluated coupling came out higher, which
    only happens at the cancellation floor; they keep the old frequency.
    """

    objective_history: list = field(default_factory=list)
    outer_iterations: int = 0
    converged: bool = False
    rejected_updates: int = 0


def coupling_coefficients(scenario: Scenario) -> CouplingCoefficients:
    """Geometry coefficients (omega, alpha) from the stored element distances."""
    r_b, r_e = scenario.bob_distances, scenario.eve_distances
    omega = _TWO_PI * (r_e - r_b) / scenario.rf.wave_speed
    alpha = 1.0 / (r_b * r_e)
    return CouplingCoefficients(omega=omega, alpha=alpha)


def coupling_prefactor(scenario: Scenario) -> float:
    """Constant K mapping |sum alpha exp(j omega f)|^2 to |h_e^H h_b|^2."""
    lam = scenario.rf.wavelength
    four_pi = 4.0 * math.pi
    return lam**4 / (four_pi**4 * scenario.rf.noise_power_bob
                     * scenario.rf.noise_power_eve)


def g_value(scenario: Scenario, plan: FrequencyPlan) -> float:
    """Squared coupling |h_eve^H h_bob|^2 of the normalized channels.

    Computed through the geometric factorization, which is exactly
    time-invariant; it agrees with the direct inner product of
    :func:`fdabeam.scenario.channel_pair` vectors at any t.
    """
    if plan.offsets.shape[0] != scenario.array.element_count:
        raise ValueError("plan length does not match element count")
    coeffs = coupling_coefficients(scenario)
    freqs = scenario.rf.carrier_frequency + plan.offsets
    terms = coeffs.alpha * np.exp(1j * (coeffs.omega * freqs))
    return coupling_prefactor(scenario) * kernels.coupling_power(terms)


def cosine_argmin(lower: float, upper: float) -> float:
    """Argmin of cos on [lower, upper].

    Returns the smallest odd multiple of pi inside the interval if one
    exists, otherwise the endpoint with the smaller cosine (ties go to the
    lower endpoint).
    """
    if lower > upper:
        raise ValueError("empty interval")
    k = math.ceil(lower / math.pi)
    if k % 2 == 0:
        k += 1
    x = k * math.pi
    if x <= upper:
        return x
    return lower if math.cos(lower) <= math.cos(upper) else upper


def _coordinate_minimizer(a: float, b: float, omega_n: float,
                          rf: RfParams) -> float | None:
    """Best frequency f in the box [f_c, f_c + f_m] for one coordinate.

    ``a + jb`` is the coupling sum over every other element, so the part of
    the coupling that depends on f is ``a cos(omega_n f) + b sin(omega_n f)``
    (up to a positive factor), i.e. ``hypot(a, b) cos(|omega_n| f - phase)``.
    Returns None when every f in the box is optimal (omega_n = 0, a vanishing
    amplitude or an empty offset budget).
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


def optimize_offsets(scenario: Scenario, initial: FrequencyPlan | None = None,
                     tol: float = 1e-8,
                     max_outer: int = 50) -> tuple[FrequencyPlan, OptimizerTrace]:
    """Cyclic coordinate descent on the coupling over the offset box.

    Sweeps elements in order, replacing each frequency by its closed-form
    conditional minimizer; every step is a global 1-D minimum, so the
    objective never increases.  Stops once the relative decrease over a full
    sweep drops to ``tol`` or below, or after ``max_outer`` sweeps.

    Returns the final plan together with an :class:`OptimizerTrace`.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError("tol must be finite and non-negative")
    if max_outer < 0:
        raise ValueError("max_outer must be non-negative")
    rf = scenario.rf
    n_elem = scenario.array.element_count
    if initial is None:
        initial = FrequencyPlan(np.zeros(n_elem))
    if initial.offsets.shape[0] != n_elem:
        raise ValueError("initial plan length does not match element count")
    if np.any(initial.offsets > rf.max_offset * (1.0 + 1e-12)):
        raise ValueError("initial offsets exceed max_offset")

    coeffs = coupling_coefficients(scenario)
    pref = coupling_prefactor(scenario)
    freqs = rf.carrier_frequency + initial.offsets
    # Per-element terms of the coupling sum at the current frequencies;
    # entry n changes only when an update of f_n is accepted.
    alpha, omega = coeffs.alpha, coeffs.omega
    phases = omega * freqs
    re = alpha * np.cos(phases)
    im = alpha * np.sin(phases)
    terms = alpha * np.exp(1j * phases)
    om, fr = omega.tolist(), freqs.tolist()
    history = [pref * kernels.coupling_power(terms)]
    rejected = 0
    converged = False
    outer = 0
    while outer < max_outer and not converged:
        outer += 1
        g_before = history[-1]
        # re and im without entry i, in index order: moving on to i + 1
        # writes entry i into the slot that held entry i + 1.
        re_rest, im_rest = re[1:].copy(), im[1:].copy()
        for i in range(n_elem):
            if i:
                re_rest[i - 1] = re[i - 1]
                im_rest[i - 1] = im[i - 1]
            g_new = history[-1]
            f_new = _coordinate_minimizer(float(np.add.reduce(re_rest)),
                                          float(np.add.reduce(im_rest)),
                                          om[i], rf)
            # An unchanged frequency re-evaluates to the current value.
            if f_new is not None and f_new != fr[i]:
                phase = om[i] * f_new
                kept = terms[i]
                terms[i] = alpha[i] * np.exp(1j * phase)
                g_trial = pref * kernels.coupling_power(terms)
                if g_trial > g_new:
                    # The exact 1-D update cannot increase the objective, so
                    # any recorded increase is evaluation noise at the
                    # cancellation floor; keep the previous frequency.
                    terms[i] = kept
                    rejected += 1
                else:
                    fr[i] = f_new
                    re[i] = alpha[i] * np.cos(phase)
                    im[i] = alpha[i] * np.sin(phase)
                    g_new = g_trial
            history.append(g_new)
        if g_before - history[-1] <= tol * g_before:
            converged = True

    offsets = np.clip(np.array(fr) - rf.carrier_frequency, 0.0, rf.max_offset)
    trace = OptimizerTrace(objective_history=history, outer_iterations=outer,
                           converged=converged, rejected_updates=rejected)
    return FrequencyPlan(offsets), trace
