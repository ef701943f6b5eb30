"""Hot numeric kernel of the coupling objective, in numpy.

``BACKEND`` names the numeric path for run metadata; there is only one.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"


def coupling_power(terms: np.ndarray) -> float:
    """|sum_n terms_n|^2 of the coupling terms alpha_n exp(j omega_n f_n).

    The terms are summed in index order with numpy's pairwise sum.
    """
    s = complex(np.add.reduce(terms))
    return s.real * s.real + s.imag * s.imag
