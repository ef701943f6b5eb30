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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .scenario import (
    FrequencyPlan,
    RfParams,
    Scenario,
    propagation_distances,
)

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


@dataclass(frozen=True)
class CosineTerm:
    """Single-coordinate objective ``amplitude * cos(|omega_n| f - phase)``."""

    amplitude: float
    phase: float


@dataclass
class OptimizerTrace:
    """Convergence record of :func:`optimize_offsets`.

    ``objective_history`` holds the coupling value before any update followed
    by one entry per inner (single-coordinate) update.
    """

    objective_history: list = field(default_factory=list)
    outer_iterations: int = 0
    converged: bool = False


def coupling_coefficients(scenario: Scenario) -> CouplingCoefficients:
    """Geometry coefficients (omega, alpha) of the scenario."""
    r_b = propagation_distances(scenario, "bob")
    r_e = propagation_distances(scenario, "eve")
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
    return coupling_prefactor(scenario) * kernels.coupling_power(
        coeffs.alpha, coeffs.omega, freqs)


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


def _cosine_term(n: int, freqs: np.ndarray, coeffs: CouplingCoefficients) -> CosineTerm:
    """Reduce the coupling seen by element n to a single cosine in f_n."""
    phases = coeffs.omega * freqs
    mask = np.arange(freqs.shape[0]) != n
    a = float(np.sum(coeffs.alpha[mask] * np.cos(phases[mask])))
    b = float(np.sum(coeffs.alpha[mask] * np.sin(phases[mask])))
    sign = math.copysign(1.0, coeffs.omega[n]) if coeffs.omega[n] != 0 else 0.0
    return CosineTerm(amplitude=math.hypot(a, b), phase=sign * math.atan2(b, a))


def _best_frequency(n: int, freqs: np.ndarray, coeffs: CouplingCoefficients,
                    rf: RfParams) -> float:
    """Best frequency f_n in [f_c, f_c + f_m] with all other entries fixed.

    Minimizes ``sum_{n' != n} alpha_n' cos(omega_n f - omega_n' f_n')``,
    which is the only part of the coupling that depends on f_n.  Degenerate
    coordinates (omega_n = 0, or a vanishing amplitude) leave the current
    frequency unchanged.
    """
    f_lo = rf.carrier_frequency
    f_hi = rf.carrier_frequency + rf.max_offset
    term = _cosine_term(n, freqs, coeffs)
    w = abs(float(coeffs.omega[n]))
    if w == 0.0 or term.amplitude == 0.0 or rf.max_offset == 0.0:
        return float(freqs[n])
    x = cosine_argmin(w * f_lo - term.phase, w * f_hi - term.phase)
    return min(max((x + term.phase) / w, f_lo), f_hi)


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
    freqs = rf.carrier_frequency + initial.offsets.copy()
    history = [pref * kernels.coupling_power(coeffs.alpha, coeffs.omega, freqs)]
    converged = False
    outer = 0
    while outer < max_outer and not converged:
        outer += 1
        g_before = history[-1]
        for i in range(n_elem):
            f_old = freqs[i]
            freqs[i] = _best_frequency(i, freqs, coeffs, rf)
            g_new = pref * kernels.coupling_power(coeffs.alpha, coeffs.omega,
                                                  freqs)
            if g_new > history[-1]:
                # The exact 1-D update cannot increase the objective, so any
                # recorded increase is evaluation noise at the cancellation
                # floor; keep the previous frequency.
                freqs[i] = f_old
                g_new = history[-1]
            history.append(g_new)
        if g_before - history[-1] <= tol * g_before:
            converged = True

    offsets = np.clip(freqs - rf.carrier_frequency, 0.0, rf.max_offset)
    trace = OptimizerTrace(objective_history=history, outer_iterations=outer,
                           converged=converged)
    return FrequencyPlan(offsets), trace

