"""Wiretap geometry and free-space channel synthesis for frequency diverse arrays.

A linear array sits on the x axis and radiates toward a legitimate receiver
(Bob) and an eavesdropper (Eve), both described in polar coordinates around
the array origin.  Each element n transmits at its own frequency
``f_n = f_c + offset_n``, which makes the narrowband channel vectors depend
on range as well as direction.

A :class:`Scenario` computes its element-to-receiver distances once, at
construction; channel synthesis and the coupling coefficients read them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0
"""Propagation speed used by default, m/s."""

_TWO_PI = 2.0 * np.pi


def _is_int(value) -> bool:
    """True for a Python or numpy integer (not a bool)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class RfParams:
    """RF constants shared by every solver.

    Parameters
    ----------
    carrier_frequency : float
        Common carrier f_c in Hz.
    max_offset : float
        Upper bound f_m of the per-element frequency offsets, Hz.  Offsets
        live in [0, max_offset].
    noise_power_bob, noise_power_eve : float
        Receiver noise variances sigma^2 in W (linear scale).
    wave_speed : float
        Propagation speed in m/s.

    The carrier wavelength is always derived as ``wave_speed /
    carrier_frequency`` and never stored.
    """

    carrier_frequency: float
    max_offset: float
    noise_power_bob: float
    noise_power_eve: float
    wave_speed: float = SPEED_OF_LIGHT

    def __post_init__(self):
        for name in ("carrier_frequency", "max_offset", "noise_power_bob",
                     "noise_power_eve", "wave_speed"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not self.carrier_frequency > 0:
            raise ValueError("carrier_frequency must be positive")
        if self.max_offset < 0:
            raise ValueError("max_offset must be non-negative")
        if not self.noise_power_bob > 0 or not self.noise_power_eve > 0:
            raise ValueError("noise powers must be positive")
        if not self.wave_speed > 0:
            raise ValueError("wave_speed must be positive")

    @property
    def wavelength(self) -> float:
        """Carrier wavelength in m."""
        return self.wave_speed / self.carrier_frequency


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform linear array on the x axis.

    Element n (0-based) sits at ``(first_element_x + n * spacing, 0)``.
    """

    element_count: int
    first_element_x: float = 0.0
    spacing: float = 0.0625

    def __post_init__(self):
        if not _is_int(self.element_count) or self.element_count < 1:
            raise ValueError("element_count must be a positive integer")
        for name in ("first_element_x", "spacing"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not self.spacing > 0:
            raise ValueError("spacing must be positive")


@dataclass(frozen=True)
class NodePlacement:
    """Receiver position in polar form: range from the origin and the angle
    measured from the positive x axis, restricted to the upper half plane."""

    range_m: float
    angle_rad: float

    def __post_init__(self):
        if not math.isfinite(self.range_m):
            raise ValueError("range_m must be finite")
        if not self.range_m > 0:
            raise ValueError("range_m must be positive")
        if not 0.0 <= self.angle_rad <= np.pi:
            raise ValueError("angle_rad must lie in [0, pi]")


@dataclass(frozen=True)
class Scenario:
    """One wiretap layout: RF constants, array geometry and both receivers,
    with their read-only (N,) element distances in m, ``bob_distances`` and
    ``eve_distances``."""

    rf: RfParams
    array: ArrayGeometry
    bob: NodePlacement
    eve: NodePlacement
    bob_distances: np.ndarray = field(init=False, repr=False, compare=False)
    eve_distances: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        x = self.array.first_element_x + self.array.spacing * np.arange(
            self.array.element_count)
        for node, place in (("bob", self.bob), ("eve", self.eve)):
            dist = np.hypot(x - place.range_m * np.cos(place.angle_rad),
                            place.range_m * np.sin(place.angle_rad))
            if np.any(dist <= 0.0):
                raise ValueError(f"{node} coincides with an array element")
            dist.flags.writeable = False
            object.__setattr__(self, f"{node}_distances", dist)


@dataclass(frozen=True)
class FrequencyPlan:
    """Per-element frequency offsets in Hz (element n radiates at
    ``f_c + offsets[n]``)."""

    offsets: np.ndarray

    def __post_init__(self):
        arr = np.array(self.offsets, dtype=float, copy=True)
        if arr.ndim != 1:
            raise ValueError("offsets must be a 1-D array")
        if not np.all(np.isfinite(arr)) or np.any(arr < 0):
            raise ValueError("offsets must be finite and non-negative")
        arr.flags.writeable = False
        object.__setattr__(self, "offsets", arr)


@dataclass(frozen=True)
class ChannelPair:
    """Noise-normalized channel vectors of Bob and Eve at one time instant."""

    h_bob: np.ndarray
    h_eve: np.ndarray

    def __post_init__(self):
        hb = np.array(self.h_bob, dtype=complex, copy=True)
        he = np.array(self.h_eve, dtype=complex, copy=True)
        if hb.shape != he.shape or hb.ndim != 1:
            raise ValueError("channel vectors must be 1-D and equally sized")
        hb.flags.writeable = False
        he.flags.writeable = False
        object.__setattr__(self, "h_bob", hb)
        object.__setattr__(self, "h_eve", he)


def channel_pair(scenario: Scenario, plan: FrequencyPlan,
                 t: float = 0.0) -> ChannelPair:
    """Noise-normalized channels ``h_i / sigma_i`` for Bob and Eve at ``t``;
    one row of :func:`channel_pairs`."""
    hb, he = channel_pairs(scenario, (plan,), (t,))
    return ChannelPair(h_bob=hb[0], h_eve=he[0])


def channel_pairs(scenario: Scenario, plans, times) -> tuple[np.ndarray, np.ndarray]:
    """Noise-normalized channels ``(h_b / sigma_b, h_e / sigma_e)`` for K
    (plan, time) pairs: ``plans`` holds K :class:`FrequencyPlan` and
    ``times`` K instants in s.  Each result has shape (K, N), row k being the
    channel under ``plans[k]`` at ``times[k]``: entry n of the free-space
    channel ``h`` is ``wavelength / (4 pi r_n) * exp(j 2 pi f_n (t - r_n / c))``
    with ``f_n = f_c + offsets[n]`` and r_n the element-to-receiver distance
    stored on the scenario (``bob_distances``, ``eve_distances``).

    Row k equals ``channel_pair(scenario, plans[k], times[k])`` bit for bit:
    both come from this one synthesis.
    """
    rf = scenario.rf
    offsets = _plan_offsets(scenario, plans)
    hb = _synthesize(rf, scenario.bob_distances, offsets, times)
    he = _synthesize(rf, scenario.eve_distances, offsets, times)
    return hb / np.sqrt(rf.noise_power_bob), he / np.sqrt(rf.noise_power_eve)


def _synthesize(rf: RfParams, dist: np.ndarray, offsets: np.ndarray, times) -> np.ndarray:
    """(K, N) channels of a receiver at element distances ``dist``: row k
    under ``offsets[k]`` at ``times[k]``."""
    times = np.asarray(times, dtype=np.longdouble)
    if times.shape != offsets.shape[:1]:
        raise ValueError("plans and times must pair up one to one")
    if not np.isfinite(times).all():
        raise ValueError("times must be finite")
    amp = rf.wavelength / (4.0 * np.pi * dist)
    # Phases reach ~1e5 rad at t = 20 us; reduce modulo one cycle in extended
    # precision so that the t terms cancel to ~1e-14 rad in later conjugate
    # products instead of ~1e-10.
    delay = times[:, None] - dist.astype(np.longdouble) / np.longdouble(rf.wave_speed)
    cycles = (rf.carrier_frequency + offsets).astype(np.longdouble) * delay
    frac = (cycles - np.floor(cycles)).astype(float)
    return amp * np.exp(1j * _TWO_PI * frac)


def _plan_offsets(scenario: Scenario, plans) -> np.ndarray:
    """(K, N) offsets of ``plans``, checked against the array and the offset
    budget."""
    n = scenario.array.element_count
    if any(plan.offsets.shape[0] != n for plan in plans):
        raise ValueError("plan length does not match element count")
    offsets = np.array([plan.offsets for plan in plans]).reshape(len(plans), n)
    if np.any(offsets > scenario.rf.max_offset * (1.0 + 1e-12)):
        raise ValueError("offsets exceed max_offset")
    return offsets
