"""Wiretap geometry and free-space channel synthesis for frequency diverse arrays.

A linear array sits on the x axis and radiates toward a legitimate receiver
(Bob) and an eavesdropper (Eve), both described in polar coordinates around
the array origin.  Each element n transmits at its own frequency
``f_n = f_c + offset_n``, which makes the narrowband channel vectors depend
on range as well as direction.

:class:`RfParams` computes its wavelength and coupling prefactor K, and a
:class:`Scenario` its element-to-receiver distances and coupling
coefficients omega and alpha, once, at construction, beside the checks that
bound them; channel synthesis and the offset descent read them.  A
scenario's arrays are the one-layout call of :func:`_layouts`, which the
sweeps run on (R, N) stacks of layouts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0
"""Propagation speed used by default, m/s."""

_TWO_PI = 2.0 * np.pi
_LONGDOUBLE_EPS = float(np.finfo(np.longdouble).eps)
_SQRT_FLOAT_MAX = math.sqrt(np.finfo(float).max)


def _count(value, message: str, low: int = 1, high: float = math.inf) -> int:
    """``value`` as a Python int where it is a Python or numpy integer, not a
    bool, from ``low`` to ``high``; else ``ValueError(message)``."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool) \
            and low <= value <= high:
        return int(value)
    raise ValueError(message)


def _is_finite(value) -> bool:
    """True for a Python or numpy int or float (not a bool) whose float value
    is finite; false, never raising, for anything else."""
    if type(value) is float:  # the common case, at about the cost of isfinite
        return math.isfinite(value)
    try:
        return (isinstance(value, (float, int, np.floating, np.integer))
                and not isinstance(value, bool) and math.isfinite(value))
    except OverflowError:  # an int past the float range
        return False


@dataclass(frozen=True)
class RfParams:
    """RF constants shared by every solver.

    Parameters
    ----------
    carrier_frequency : float
        Common carrier f_c in Hz.
    max_offset : float
        Upper bound f_m of the per-element frequency offsets, Hz.  Offsets
        live in [0, max_offset].  A -0.0 bound is stored as +0.0.
    noise_power_bob, noise_power_eve : float
        Receiver noise variances sigma^2 in W (linear scale).
    wave_speed : float
        Propagation speed in m/s.

    Derived at construction: ``wavelength = wave_speed / carrier_frequency``
    in m and ``coupling_prefactor``, the K of the factorization
    ``|h_eve^H h_bob|^2 = K |sum_n alpha_n exp(j omega_n f_n)|^2``.
    """

    carrier_frequency: float
    max_offset: float
    noise_power_bob: float
    noise_power_eve: float
    wave_speed: float = SPEED_OF_LIGHT
    wavelength: float = field(init=False, repr=False, compare=False)
    coupling_prefactor: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("carrier_frequency", "max_offset", "noise_power_bob",
                     "noise_power_eve", "wave_speed"):
            if not _is_finite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not self.carrier_frequency > 0:
            raise ValueError("carrier_frequency must be positive")
        if self.max_offset < 0:
            raise ValueError("max_offset must be non-negative")
        # -0.0 passes that check, and every clamp into [0, -0.0] would give
        # -0.0 offsets; an empty budget is stored as +0.0.
        if self.max_offset == 0.0:
            object.__setattr__(self, "max_offset", 0.0)
        if not self.noise_power_bob > 0 or not self.noise_power_eve > 0:
            raise ValueError("noise powers must be positive")
        if not self.wave_speed > 0:
            raise ValueError("wave_speed must be positive")
        # In float64, so that an overflow or a zero division gives inf or 0,
        # which the checks below reject, instead of raising.
        with np.errstate(all="ignore"):
            wavelength = np.float64(self.wave_speed) / self.carrier_frequency
            prefactor = wavelength**4 / ((4.0 * math.pi)**4 * np.float64(self.noise_power_bob)
                                         * self.noise_power_eve)
        if not 0.0 < wavelength < math.inf:
            raise ValueError("wavelength wave_speed / carrier_frequency must be finite "
                             "and positive")
        if not 0.0 < prefactor < math.inf:
            raise ValueError("coupling prefactor wavelength^4 / ((4 pi)^4 noise_power_bob "
                             "noise_power_eve) must be finite and positive")
        object.__setattr__(self, "wavelength", float(wavelength))
        object.__setattr__(self, "coupling_prefactor", float(prefactor))


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform linear array on the x axis.

    Element n (0-based) sits at ``(first_element_x + n * spacing, 0)``.
    """

    element_count: int
    first_element_x: float = 0.0
    spacing: float = 0.0625

    def __post_init__(self):
        object.__setattr__(self, "element_count", _count(
            self.element_count, "element_count must be a positive integer"))
        for name in ("first_element_x", "spacing"):
            if not _is_finite(getattr(self, name)):
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
        if not _is_finite(self.range_m):
            raise ValueError("range_m must be finite")
        if not self.range_m > 0:
            raise ValueError("range_m must be positive")
        if not (_is_finite(self.angle_rad) and 0.0 <= self.angle_rad <= math.pi):
            raise ValueError("angle_rad must lie in [0, pi]")


@dataclass(frozen=True)
class Scenario:
    """One wiretap layout: RF constants, array geometry and both receivers,
    with read-only (N,) arrays derived at construction: the element
    distances ``bob_distances`` (r_b) and ``eve_distances`` (r_e) in m, and
    the coupling coefficients ``omega = 2 pi (r_e - r_b) / wave_speed`` in
    rad/Hz and ``alpha = 1 / (r_b r_e)`` in 1/m^2."""

    rf: RfParams
    array: ArrayGeometry
    bob: NodePlacement
    eve: NodePlacement
    bob_distances: np.ndarray = field(init=False, repr=False, compare=False)
    eve_distances: np.ndarray = field(init=False, repr=False, compare=False)
    omega: np.ndarray = field(init=False, repr=False, compare=False)
    alpha: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        arrays = _layouts(self.rf, self.array, _position(self.bob.range_m, self.bob.angle_rad),
                          _position(self.eve.range_m, self.eve.angle_rad))
        self.__dict__.update(zip(_DERIVED, arrays))  # frozen, so not through setattr

    @classmethod
    def _assembled(cls, rf, array, bob, eve, *arrays) -> Scenario:
        """A scenario of parts that were checked already and its derived
        arrays, in :data:`_DERIVED` order, as one layout of :func:`_layouts`
        gives them; nothing is computed or checked again."""
        self = object.__new__(cls)
        self.__dict__.update(zip(("rf", "array", "bob", "eve", *_DERIVED),
                                 (rf, array, bob, eve, *arrays)))
        return self


_DERIVED = ("bob_distances", "eve_distances", "omega", "alpha")
"""The arrays a :class:`Scenario` derives at construction, in the order
:func:`_layouts` returns them."""


def _position(range_m, angle_rad) -> tuple:
    """Cartesian (x, y) in m of receivers at polar (range, angle): scalars,
    or arrays of any shape."""
    return range_m * np.cos(angle_rad), range_m * np.sin(angle_rad)


def _layouts(rf: RfParams, array: ArrayGeometry, bob: tuple, eve: tuple) -> tuple:
    """Read-only element distances of Bob and Eve, omega and alpha of layouts
    sharing ``rf`` and ``array``: (R, N) arrays for receivers at
    :func:`_position` (x, y) pairs of (R, 1) arrays, and (N,) arrays for a
    pair of scalars, the one-layout call that :class:`Scenario` makes.

    Every layout is checked in order, and the first one whose channel gains,
    their product over the two receivers, coupling coefficients alpha_n or
    coupling phases omega_n f may leave the float range raises its first
    failing check's ``ValueError``.  Each receiver's nearest and farthest
    element distances bound all of them and their sums, so a layout's check
    is a min and a max per receiver and float arithmetic that cannot raise.
    """
    n = array.element_count
    with np.errstate(all="ignore"):
        x = array.first_element_x + array.spacing * np.arange(n)
        r_b = np.hypot(x - bob[0], bob[1])
        r_e = np.hypot(x - eve[0], eve[1])
        arrays = (r_b, r_e, _TWO_PI * (r_e - r_b) / rf.wave_speed, 1.0 / (r_b * r_e))
    # Python min and max are faster than numpy reductions at small N and R.
    rows = r_b.tolist(), r_e.tolist()
    for layout in zip(*rows) if r_b.ndim == 2 else (rows,):
        _check_layout(rf, n, layout)
    for value in arrays:
        value.flags.writeable = False
    return arrays


def _check_layout(rf: RfParams, n: int, rows: tuple) -> None:
    """Reject one layout of :func:`_layouts` from Bob's and Eve's element
    distances (lists of N floats)."""
    amp = rf.wavelength / (4.0 * math.pi)  # a gain is (amp / r)^2 / noise power
    extent = []
    for node, dist, noise in zip(("bob", "eve"), rows, (rf.noise_power_bob, rf.noise_power_eve)):
        lo, hi = min(dist), max(dist)
        if not lo > 0.0:
            raise ValueError(f"{node} coincides with an array element")
        far, near = amp / hi, amp / lo
        total = n * near * near / noise
        if not (far * far / noise > 0.0 and total < math.inf):
            raise ValueError(f"{node}'s channel gains (wavelength / (4 pi r))^2 / "
                             f"noise_power_{node} must be positive, and N times the "
                             "largest finite")
        extent.append((lo, hi, total))
    (lo_b, hi_b, total_b), (lo_e, hi_e, total_e) = extent
    # (sum alpha)^2 <= (N / (lo_b lo_e))^2 is finite below sqrt(max float).
    if not (hi_b * hi_e < math.inf and n < _SQRT_FLOAT_MAX * lo_b * lo_e):
        raise ValueError("coupling coefficients 1 / (r_bob r_eve) must be positive, "
                         "and (N / (min r_bob min r_eve))^2 finite")
    if not (_TWO_PI * max(hi_b, hi_e) / rf.wave_speed
            * (rf.carrier_frequency + rf.max_offset) < math.inf):
        raise ValueError("coupling phases 2 pi r (f_c + f_m) / wave_speed must be "
                         "finite at every element distance r")
    # B E, and so |h_eve^H h_bob|^2 and K (sum alpha)^2 (Cauchy-Schwarz), is
    # at most the product of the two receivers' N times largest gain.
    if not total_b * total_e < math.inf:
        raise ValueError("channel-gain product (N times bob's largest gain) (N times "
                         "eve's largest gain) must be finite")


@dataclass(frozen=True)
class FrequencyPlan:
    """Per-element frequency offsets in Hz (element n radiates at
    ``f_c + offsets[n]``)."""

    offsets: np.ndarray

    def __post_init__(self):
        arr = np.array(self.offsets, copy=True)
        if arr.ndim != 1:
            raise ValueError("offsets must be a 1-D array")
        # an int or float array as a whole, anything else entry by entry
        if not (arr.dtype.kind in "iuf" and isinstance(self.offsets, np.ndarray)
                or all(map(_is_finite, self.offsets))):
            raise ValueError("offsets must be finite and non-negative")
        arr = arr.astype(float, copy=False)
        # two reductions without temporaries; a NaN fails both comparisons
        if not (np.minimum.reduce(arr, initial=0.0) >= 0.0
                and np.maximum.reduce(arr, initial=0.0) < math.inf):
            raise ValueError("offsets must be finite and non-negative")
        arr.flags.writeable = False
        object.__setattr__(self, "offsets", arr)

    @classmethod
    def _bounded(cls, offsets: np.ndarray) -> FrequencyPlan:
        """A plan that takes ownership of ``offsets``, a new 1-D float64
        array already within [0, f_m], and makes it read-only in place;
        nothing is copied or checked again, as in :meth:`Scenario._assembled`.

        :func:`fdabeam.coupling.optimize_offsets` returns its plan this way.
        Each frequency it ends at is f_c, f_c plus an offset of a checked
        initial plan, or an update ``f_new``, which is finite or ±inf
        clamped into [f_c, f_c + f_m]; none is NaN.  Its one clamp of
        ``frequency - f_c`` into [0, f_m] therefore leaves every offset
        finite and within that box."""
        offsets.flags.writeable = False
        self = object.__new__(cls)
        self.__dict__["offsets"] = offsets
        return self


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
    """Noise-normalized channels ``h_i / sigma_i`` for Bob and Eve at ``t``:
    entry n of ``h`` is ``wavelength / (4 pi r_n) exp(j 2 pi f_n (t - r_n / c))``
    with ``f_n = f_c + offsets[n]`` and r_n the stored element distance.  The
    one-row call of :func:`_channels`, which the sweeps run on stacks."""
    offsets = _plan_offsets(scenario, [plan])
    _check_times(scenario.rf, (t,))
    hb, he = _channels(scenario.rf, scenario.bob_distances, scenario.eve_distances,
                       offsets, (t,))
    return ChannelPair(h_bob=hb[0], h_eve=he[0])


def _channels(rf: RfParams, bob_distances: np.ndarray, eve_distances: np.ndarray,
              offsets: np.ndarray, times) -> tuple[np.ndarray, np.ndarray]:
    """Noise-normalized (..., K, N) channels of Bob and Eve for a stack of
    layouts sharing ``rf``: element distances (..., N), offsets (..., K, N)
    and K instants ``times``, row k under ``offsets[..., k, :]`` at
    ``times[k]``.  Every entry is computed on its own, so a layout's rows do
    not depend on what else is in the stack."""
    hb = _synthesize(rf, bob_distances, offsets, times)
    he = _synthesize(rf, eve_distances, offsets, times)
    return hb / np.sqrt(rf.noise_power_bob), he / np.sqrt(rf.noise_power_eve)


def _synthesize(rf: RfParams, dist: np.ndarray, offsets: np.ndarray, times) -> np.ndarray:
    """(..., K, N) channels of a receiver at element distances ``dist``
    (..., N): row k under ``offsets[..., k, :]`` at ``times[k]``, instants
    that :func:`_check_times` passed already."""
    times = np.asarray(times, dtype=np.longdouble)
    if times.shape != offsets.shape[-2:-1]:
        raise ValueError("plans and times must pair up one to one")
    dist = dist[..., None, :]
    amp = rf.wavelength / (4.0 * np.pi * dist)
    # Phases reach ~1e5 rad at t = 20 us; reduce modulo one cycle in extended
    # precision so that the t terms cancel to ~1e-14 rad in later conjugate
    # products instead of ~1e-10.  np.modf's fractional part is exact, and a
    # negative one plus 1 equals cycles - floor(cycles) bit for bit, at about
    # a seventh of the cost of np.floor on longdouble (x87 floorl on x86-64).
    # Adding the mask, not selecting part + 1, keeps an integer cycle count
    # at +0.0.
    delay = times[:, None] - dist.astype(np.longdouble) / np.longdouble(rf.wave_speed)
    cycles = (rf.carrier_frequency + offsets).astype(np.longdouble) * delay
    part = np.modf(cycles)[0]
    frac = (part + (part < 0)).astype(float)
    return amp * np.exp(1j * _TWO_PI * frac)


def _check_times(rf: RfParams, times, name: str = "times") -> None:
    """Reject a sequence of instants unless each is a finite real number
    within ``|t| = 1e-6 / ((f_c + f_m) eps)``, past which the
    extended-precision phase ``f (t - r / c)`` at the top frequency would
    round off more than 1e-6 of a cycle."""
    limit = 1e-6 / ((rf.carrier_frequency + rf.max_offset) * _LONGDOUBLE_EPS)
    if not all(_is_finite(t) and abs(t) <= limit for t in times):
        raise ValueError(f"{name} must be finite and within ±{limit:.4g} s")


def _plan_offsets(scenario: Scenario, plans) -> np.ndarray:
    """(K, N) offsets of ``plans``, checked against the array and the offset
    budget."""
    n = scenario.array.element_count
    if any(plan.offsets.shape[0] != n for plan in plans):
        raise ValueError("plan length does not match element count")
    offsets = np.array([plan.offsets for plan in plans]).reshape(len(plans), n)
    if (offsets > scenario.rf.max_offset * (1.0 + 1e-12)).any():
        raise ValueError("offsets exceed max_offset")
    return offsets
