"""Secrecy-rate beamformer design against a single eavesdropper.

All solvers work on noise-normalized channels, so SNRs are plain squared
inner products.  Two problems are covered:

* minimum transmit power subject to a secrecy-rate target, solved through
  the principal eigenvalue ``lambda1`` of the rank-2 matrix
  ``h_b h_b^H - 2^R h_e h_e^H``;
* maximum secrecy rate under a power budget P, solved through the
  principal eigenvalue ``lambda_delta`` of the pencil
  ``(I + P h_b h_b^H, I + P h_e h_e^H)``.

Both eigenvalues have closed forms in the three scalars
``B = ||h_b||^2``, ``E = ||h_e||^2`` and the coupling ``x = |h_e^H h_b|^2``.
Both beamformer directions are the principal eigenvector of
``h_b h_b^H - tau h_e h_e^H`` with ``tau = 2^R`` or ``lambda_delta``, found
from a 2x2 problem in the span of the two channels, never from a dense
decomposition.  The closed forms, and the MRT baseline, take plain numbers
or arrays that broadcast together: a float in, a Python float out; arrays
in, an array out.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .scenario import ChannelPair


def _is_real(value) -> bool:
    """True for a real scalar: a Python or numpy int or float (not a bool)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class SecrecyTarget:
    """Required secrecy rate in bits/s/Hz."""

    rate: float

    def __post_init__(self):
        if not _is_real(self.rate):
            raise ValueError("target rate must be a real scalar")
        if not (math.isfinite(self.rate) and self.rate > 0):
            raise ValueError("target rate must be finite and positive")


@dataclass(frozen=True)
class PowerBudget:
    """Total transmit power ||w||^2 in W."""

    power: float

    def __post_init__(self):
        if not _is_real(self.power):
            raise ValueError("power budget must be a real scalar")
        if not (math.isfinite(self.power) and self.power >= 0):
            raise ValueError("power budget must be finite and non-negative")


@dataclass
class PowerMinSolution:
    """Result of :func:`min_power_beamformer`.

    ``feasible`` is False when the target rate cannot be met at any power
    (lambda1 <= 0); the offending lambda1 is still reported and ``power`` is
    infinite.
    """

    beamformer: np.ndarray | None
    power: float
    lambda1: float
    feasible: bool


@dataclass
class RateMaxSolution:
    """Result of :func:`max_rate_beamformer`; ``rate = log2(lambda_delta)``."""

    beamformer: np.ndarray
    rate: float
    lambda_delta: float


def secrecy_rate(w: np.ndarray, pair: ChannelPair) -> float:
    """Achievable secrecy rate of beamformer ``w`` in bits/s/Hz (clamped at 0)."""
    gamma_b = float(abs(np.vdot(pair.h_bob, w)) ** 2)
    gamma_e = float(abs(np.vdot(pair.h_eve, w)) ** 2)
    return max(math.log2((1.0 + gamma_b) / (1.0 + gamma_e)), 0.0)


def channel_stats(pair: ChannelPair) -> tuple[float, float, float]:
    """The three scalars (B, E, x) every closed form depends on; the
    one-pair call of :func:`stacked_channel_stats`."""
    return tuple(float(v) for v in stacked_channel_stats(pair.h_bob, pair.h_eve))


def stacked_channel_stats(h_bob: np.ndarray,
                          h_eve: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(B, E, x) of every channel pair in two equally shaped (..., N)
    stacks, as three arrays of shape (...).

    Each inner product is a BLAS ``matmul`` of conjugated (..., 1, N) rows
    with (..., N, 1) columns, which equals ``np.vdot`` row by row bit for bit
    (strided rows included).  Phased-array power rests on ``B E - x``, which
    cancels, so that identity matters: a last-bit change in x moves that power
    by up to ~1e-5 relative.  For the same reason x keeps the bits of
    Python's ``abs(z) ** 2``, which is the C library's ``hypot`` of the parts
    and then its ``pow(., 2.0)``: ``np.hypot`` and ``np.float_power`` call
    those two functions on every entry at once (only a NaN x may carry the
    other sign bit).  ``np.abs`` rounds a third of the rows differently, and
    squaring the magnitude by multiplication, which ``np.power`` does for an
    exponent of 2, about one row in 1 000.  A finite z whose x overflows
    raises :class:`OverflowError`, as ``abs(z) ** 2`` does.
    """
    col_bob = h_bob[..., :, None]
    b = (h_bob.conj()[..., None, :] @ col_bob)[..., 0, 0].real
    e = (h_eve.conj()[..., None, :] @ h_eve[..., :, None])[..., 0, 0].real
    z = (h_eve.conj()[..., None, :] @ col_bob)[..., 0, 0]
    # Only a finite result that rounds to inf raises the overflow flag, and
    # an infinite part gives inf without it, as in Python.
    try:
        with np.errstate(over="raise"):
            x = np.float_power(np.hypot(z.real, z.imag), 2.0)
    except FloatingPointError:
        raise OverflowError("x = |h_e^H h_b|^2 overflows") from None
    return b, e, x


def _check_inputs(nonnegative: tuple = (), positive: tuple = (), **inputs) -> None:
    """ValueError naming the first of ``inputs`` (floats or arrays) that
    holds a NaN, then the first one named in ``nonnegative`` that holds a
    negative value, then the first one named in ``positive`` that holds a
    value <= 0.  A Python float is checked without a numpy call."""
    for name, value in inputs.items():
        if value != value if isinstance(value, float) else np.isnan(value).any():
            raise ValueError(f"{name} is NaN")
    for name in nonnegative:
        value = inputs[name]
        if value < 0.0 if isinstance(value, float) else np.any(np.less(value, 0.0)):
            raise ValueError(f"{name} must be non-negative")
    for name in positive:
        value = inputs[name]
        if value <= 0.0 if isinstance(value, float) else np.any(np.less_equal(value, 0.0)):
            raise ValueError(f"{name} must be positive")


def _float_or_array(value):
    """A Python float for a scalar result, the array otherwise."""
    return float(value) if np.ndim(value) == 0 else value


_float_semantics = np.errstate(all="ignore")
"""Decorator: overflow and inf/inf give inf and nan without a warning, as in
Python float arithmetic."""


def _exp2(rate):
    """``2.0**rate`` (``np.exp2`` rounds some rates differently), with inf
    where a Python float overflows: from 1024 bits on."""
    try:
        return 2.0**rate
    except OverflowError:
        return math.inf


def _cauchy_schwarz_limit(bob_gain, eve_gain, coupling):
    """``B E``, after checking that no coupling exceeds it."""
    limit = bob_gain * eve_gain
    if np.any(coupling > limit * (1.0 + 1e-9)):
        raise ValueError("coupling exceeds the Cauchy-Schwarz bound B*E")
    return limit


@_float_semantics
def lambda1_closed_form(bob_gain: float, eve_gain: float, coupling: float,
                        rate: float) -> float:
    """Principal eigenvalue of ``h_b h_b^H - 2^R h_e h_e^H``.

    Parameters are ``B = ||h_b||^2``, ``E = ||h_e||^2``, the coupling
    ``x = |h_e^H h_b|^2`` and the target rate R.  Always non-negative; zero
    exactly when the channels are parallel and ``2^R E >= B``.  Since
    ``lambda1 <= B``, a non-finite entry can only come from ``2^R E``
    overflowing, which raises :class:`OverflowError` naming the first one.
    A NaN or negative input is a ValueError.
    """
    _check_inputs(("bob_gain", "eve_gain", "coupling", "rate"),
                  bob_gain=bob_gain, eve_gain=eve_gain, coupling=coupling, rate=rate)
    limit = _cauchy_schwarz_limit(bob_gain, eve_gain, coupling)
    t = _exp2(rate)
    w1 = t * eve_gain - bob_gain
    w2 = np.maximum(limit - coupling, 0.0)
    lam = 0.5 * (-w1 + np.sqrt(w1 * w1 + 4.0 * t * w2))
    # Orthogonal channels: the eigenvalue is exactly B.
    lam = np.where(coupling == 0.0, bob_gain, lam)
    finite = np.isfinite(lam)  # argmin: the first non-finite entry in C order
    if not finite.all():
        v, r = (np.broadcast_to(a, lam.shape).flat[finite.argmin()] for a in (lam, rate))
        raise OverflowError(f"lambda1 is {v} at a {r:g}-bit target")
    return _float_or_array(lam)


@_float_semantics
def lambda_delta_closed_form(bob_gain: float, eve_gain: float, coupling: float,
                             power: float) -> float:
    """Principal eigenvalue of the whitened pencil; the best ratio
    ``(1 + snr_bob) / (1 + snr_eve)`` achievable with ``||w||^2 = power``.

    Always >= 1; equals ``1 + power * B`` exactly for orthogonal channels
    and 1 for identical channels or zero power.  A non-finite entry raises
    :class:`OverflowError` naming the budget of the first one.  A NaN or
    negative input is a ValueError.
    """
    _check_inputs(("bob_gain", "eve_gain", "coupling", "power"), bob_gain=bob_gain,
                  eve_gain=eve_gain, coupling=coupling, power=power)
    limit = _cauchy_schwarz_limit(bob_gain, eve_gain, coupling)
    f1 = power * (limit - coupling) + bob_gain - eve_gain
    f2 = 4.0 * (1.0 + power * eve_gain) * np.maximum(limit - coupling, 0.0)
    lam = 1.0 + 0.5 * power * (f1 + np.sqrt(f1 * f1 + f2)) / (1.0 + power * eve_gain)
    lam = np.where(coupling == 0.0, 1.0 + power * bob_gain, lam)
    lam = np.where(power == 0.0, 1.0, lam)
    finite = np.isfinite(lam)
    if not finite.all():
        budget = np.broadcast_to(power, lam.shape).flat[finite.argmin()]
        raise OverflowError(f"lambda_delta is not finite at a {budget:g} W budget")
    return _float_or_array(lam)


def principal_eigvec_span2(a: float, u: np.ndarray, b: float,
                           v: np.ndarray) -> tuple[float, np.ndarray]:
    """Principal eigenpair of ``a u u^H + b v v^H`` restricted to span{u, v}.

    Orthonormalizes the span (1-D when the vectors are parallel or one is
    zero), solves the projected problem of size <= 2 and maps the winner
    back.  The returned vector has unit norm.
    """
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 and nv == 0.0:
        raise ValueError("both defining vectors are zero")
    first, second = (u, v) if nu >= nv else (v, u)
    u1 = first / np.linalg.norm(first)
    resid = second - np.vdot(u1, second) * u1
    nr = float(np.linalg.norm(resid))
    if nr > 1e-12 * max(float(np.linalg.norm(second)), nu, nv):
        # Nearly parallel vectors leave resid off-orthogonal to u1 by about
        # eps |second| / nr; a second projection keeps the basis, and so the
        # returned vector, orthonormal.
        resid -= np.vdot(u1, resid) * u1
        basis = np.column_stack([u1, resid / np.linalg.norm(resid)])
    else:
        basis = u1[:, None]
    cu = basis.conj().T @ u
    cv = basis.conj().T @ v
    s = a * np.outer(cu, cu.conj()) + b * np.outer(cv, cv.conj())
    vals, vecs = np.linalg.eigh(s)
    top = int(np.argmax(vals))
    return float(vals[top]), basis @ vecs[:, top]


def min_power_beamformer(pair: ChannelPair, target: SecrecyTarget) -> PowerMinSolution:
    """Minimum-power beamformer meeting the secrecy target exactly.

    The optimal direction is the principal eigenvector of
    ``h_b h_b^H - 2^R h_e h_e^H`` and the power is ``(2^R - 1) / lambda1``.
    Infeasibility (lambda1 <= 0) is reported in the result, not raised; a
    power past float range raises :class:`OverflowError`.
    """
    b, e, x = channel_stats(pair)
    lam1 = lambda1_closed_form(b, e, x, target.rate)
    if lam1 <= 0.0:
        return PowerMinSolution(beamformer=None, power=math.inf,
                                lambda1=lam1, feasible=False)
    t = _exp2(target.rate)
    power = (t - 1.0) / lam1
    if not math.isfinite(power):
        # An infinite 2^R passes lambda1 only at coupling 0 (lambda1 = B);
        # the direction step would then get a -inf weight.
        raise OverflowError(f"power is {power} at a {target.rate:g}-bit target")
    _, direction = principal_eigvec_span2(1.0, pair.h_bob, -t, pair.h_eve)
    return PowerMinSolution(beamformer=math.sqrt(power) * direction,
                            power=power, lambda1=lam1, feasible=True)


def max_rate_beamformer(pair: ChannelPair, budget: PowerBudget) -> RateMaxSolution:
    """Maximum-secrecy-rate beamformer with ``||w||^2 = power``.

    The best ratio ``lambda_delta`` solves the pencil
    ``(I + P h_b h_b^H) w = lambda (I + P h_e h_e^H) w``, which is the same
    as ``(h_b h_b^H - lambda h_e h_e^H) w = ((lambda - 1) / P) w``.  That
    matrix has at most one positive eigenvalue, so the direction is its
    principal eigenvector: the construction of :func:`min_power_beamformer`
    with ``lambda_delta`` in place of ``2^R``.
    """
    p = budget.power
    if p == 0.0:
        return RateMaxSolution(beamformer=np.zeros(pair.h_bob.shape[0], dtype=complex),
                               rate=0.0, lambda_delta=1.0)
    b, e, x = channel_stats(pair)
    lam = lambda_delta_closed_form(b, e, x, p)
    _, direction = principal_eigvec_span2(1.0, pair.h_bob, -lam, pair.h_eve)
    return RateMaxSolution(beamformer=math.sqrt(p) * direction,
                           rate=math.log2(lam), lambda_delta=lam)


@_float_semantics
def mrt_rate(bob_gain: float, power: float, coupling: float) -> float:
    """Secrecy rate of MRT at transmit power ``power`` given Bob's gain
    ``B = ||h_b||^2`` and the coupling ``x = |h_e^H h_b|^2``.  A NaN input,
    a negative power or coupling, or a gain B <= 0 is a ValueError."""
    _check_inputs(("power", "coupling"), ("bob_gain",),
                  bob_gain=bob_gain, power=power, coupling=coupling)
    val = np.log2((1.0 + power * bob_gain) / (1.0 + power * coupling / bob_gain))
    return _float_or_array(np.maximum(val, 0.0))


@_float_semantics
def mrt_required_power(bob_gain: float, rate: float, coupling: float) -> float:
    """Power at which MRT meets the secrecy-rate target ``rate``, or inf
    when it never does.

    Finite exactly when ``B^2 > 2^R x``; always an upper bound for the
    optimal (eigenvector-based) minimum power.  A NaN input, a negative
    rate or coupling, or a gain B <= 0 is a ValueError.
    """
    _check_inputs(("rate", "coupling"), ("bob_gain",),
                  bob_gain=bob_gain, rate=rate, coupling=coupling)
    t = _exp2(rate)
    denom = np.asarray(bob_gain - t * coupling / bob_gain)
    power = np.divide(t - 1.0, denom, out=np.full(denom.shape, math.inf),
                      where=denom > 0.0)
    return _float_or_array(power)
