"""Hot numeric kernels, numba-accelerated with a pure-numpy fallback.

The numba path is used whenever numba imports cleanly; set
``FDABEAM_DISABLE_NUMBA=1`` to force the numpy path.  ``BACKEND`` records
which path is active.
"""

from __future__ import annotations

import os

import numpy as np

_CHUNK = 1 << 18


def _env_disabled() -> bool:
    return os.environ.get("FDABEAM_DISABLE_NUMBA", "").strip().lower() in {
        "1", "true", "yes", "on",
    }


# ---------------------------------------------------------------------------
# numpy implementations

def coupling_power_numpy(alpha: np.ndarray, omega: np.ndarray, freqs: np.ndarray) -> float:
    """|sum_n alpha_n exp(j omega_n f_n)|^2 for one frequency vector."""
    s = np.sum(alpha * np.exp(1j * (omega * freqs)))
    return float(s.real * s.real + s.imag * s.imag)


def coupling_power_batch_numpy(alpha: np.ndarray, omega: np.ndarray,
                               freq_rows: np.ndarray) -> np.ndarray:
    """|sum_n alpha_n exp(j omega_n f_n)|^2 for each row of ``freq_rows``."""
    rows = freq_rows.shape[0]
    out = np.empty(rows)
    for start in range(0, rows, _CHUNK):
        block = freq_rows[start:start + _CHUNK]
        s = np.exp(1j * (block * omega)) @ alpha
        out[start:start + _CHUNK] = s.real * s.real + s.imag * s.imag
    return out


def coordinate_scan_numpy(weights: np.ndarray, phases: np.ndarray, slope: float,
                          f_lo: float, f_hi: float, count: int) -> tuple[float, float]:
    """Brute-force minimum of ``sum_k w_k cos(slope*f - phases[k])`` on a grid.

    Scans ``count`` equispaced points on [f_lo, f_hi] (both endpoints
    included) and returns ``(f_best, value_best)``.
    """
    step = (f_hi - f_lo) / (count - 1)
    best_val = np.inf
    best_f = f_lo
    for start in range(0, count, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, count))
        f = f_lo + step * idx
        vals = np.cos(slope * f[:, None] - phases[None, :]) @ weights
        k = int(np.argmin(vals))
        if vals[k] < best_val:
            best_val = float(vals[k])
            best_f = float(f[k])
    return best_f, best_val


# ---------------------------------------------------------------------------
# numba implementations (same contracts, loop form)

def _coupling_power_loop(alpha, omega, freqs):
    s_re = 0.0
    s_im = 0.0
    for k in range(alpha.shape[0]):
        x = omega[k] * freqs[k]
        s_re += alpha[k] * np.cos(x)
        s_im += alpha[k] * np.sin(x)
    return s_re * s_re + s_im * s_im


def _coupling_power_batch_loop(alpha, omega, freq_rows):
    rows = freq_rows.shape[0]
    n = alpha.shape[0]
    out = np.empty(rows)
    for i in range(rows):
        s_re = 0.0
        s_im = 0.0
        for k in range(n):
            x = omega[k] * freq_rows[i, k]
            s_re += alpha[k] * np.cos(x)
            s_im += alpha[k] * np.sin(x)
        out[i] = s_re * s_re + s_im * s_im
    return out


def _coordinate_scan_loop(weights, phases, slope, f_lo, f_hi, count):
    step = (f_hi - f_lo) / (count - 1)
    vals = np.empty(count)
    for i in range(count):
        f = f_lo + step * i
        acc = 0.0
        for k in range(weights.shape[0]):
            acc += weights[k] * np.cos(slope * f - phases[k])
        vals[i] = acc
    best = 0
    for i in range(1, count):
        if vals[i] < vals[best]:
            best = i
    return f_lo + step * best, vals[best]


try:
    from numba import njit, prange

    _NUMBA_OK = True
except ImportError:  # pragma: no cover - exercised via the env flag instead
    _NUMBA_OK = False

if _NUMBA_OK:
    coupling_power_numba = njit(cache=True)(_coupling_power_loop)

    def _batch_loop_parallel(alpha, omega, freq_rows):
        rows = freq_rows.shape[0]
        n = alpha.shape[0]
        out = np.empty(rows)
        for i in prange(rows):
            s_re = 0.0
            s_im = 0.0
            for k in range(n):
                x = omega[k] * freq_rows[i, k]
                s_re += alpha[k] * np.cos(x)
                s_im += alpha[k] * np.sin(x)
            out[i] = s_re * s_re + s_im * s_im
        return out

    def _scan_loop_parallel(weights, phases, slope, f_lo, f_hi, count):
        step = (f_hi - f_lo) / (count - 1)
        vals = np.empty(count)
        for i in prange(count):
            f = f_lo + step * i
            acc = 0.0
            for k in range(weights.shape[0]):
                acc += weights[k] * np.cos(slope * f - phases[k])
            vals[i] = acc
        best = 0
        for i in range(1, count):
            if vals[i] < vals[best]:
                best = i
        return f_lo + step * best, vals[best]

    coupling_power_batch_numba = njit(cache=True, parallel=True)(_batch_loop_parallel)
    coordinate_scan_numba = njit(cache=True, parallel=True)(_scan_loop_parallel)
else:
    coupling_power_numba = None
    coupling_power_batch_numba = None
    coordinate_scan_numba = None

_USE_NUMBA = _NUMBA_OK and not _env_disabled()
BACKEND = "numba" if _USE_NUMBA else "numpy"

if _USE_NUMBA:
    coupling_power = coupling_power_numba
    coupling_power_batch = coupling_power_batch_numba
    coordinate_scan = coordinate_scan_numba
else:
    coupling_power = coupling_power_numpy
    coupling_power_batch = coupling_power_batch_numpy
    coordinate_scan = coordinate_scan_numpy
