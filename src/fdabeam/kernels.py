"""Hot numeric kernel of the offset descent, in numpy.

``BACKEND`` names the numeric path for run metadata; there is only one.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"


def coupling_power(alpha: np.ndarray, omega: np.ndarray, freqs: np.ndarray) -> float:
    """|sum_n alpha_n exp(j omega_n f_n)|^2 for one frequency vector."""
    s = np.sum(alpha * np.exp(1j * (omega * freqs)))
    return float(s.real * s.real + s.imag * s.imag)
