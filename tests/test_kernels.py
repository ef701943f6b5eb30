import numpy as np
from numpy.testing import assert_allclose

from fdabeam import kernels

from helpers import (
    _CHUNK,
    coordinate_scan,
    coupling_power_batch,
    coupling_power_row,
    numpy_coupling_power,
)


def _random_inputs(rng, n):
    alpha = rng.uniform(0.3, 2.0, n)
    omega = rng.uniform(-1e-6, 1e-6, n)
    freqs = rng.uniform(2.4e9, 2.403e9, n)
    return alpha, omega, freqs


def test_single_matches_direct_sum():
    rng = np.random.default_rng(0)
    for n in (1, 3, 8):
        alpha, omega, freqs = _random_inputs(rng, n)
        direct = abs(np.sum(alpha * np.exp(1j * omega * freqs))) ** 2
        assert_allclose(kernels.coupling_power(alpha * np.exp(1j * (omega * freqs))),
                        direct, rtol=1e-12)


def test_single_equals_numpy_scalar_form_bitwise():
    """Widths 1-299 cross every form change of numpy's pairwise sum, each at
    three magnitudes."""
    rng = np.random.default_rng(4)
    for n in range(1, 300):
        for scale in (1e-6, 1.0, 1e40):
            alpha = scale * rng.uniform(0.3, 2.0, n)
            terms = alpha * np.exp(1j * rng.uniform(-np.pi, np.pi, n))
            got, want = kernels.coupling_power(terms), numpy_coupling_power(terms)
            assert type(got) is float
            assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_batch_matches_single():
    rng = np.random.default_rng(1)
    alpha, omega, _ = _random_inputs(rng, 4)
    rows = rng.uniform(2.4e9, 2.403e9, (500, 4))
    batch = coupling_power_batch(alpha, omega, rows)
    singles = [coupling_power_row(alpha, omega, r) for r in rows]
    assert_allclose(batch, singles, rtol=1e-12)


def test_batch_chunking_boundary():
    rng = np.random.default_rng(2)
    alpha, omega, _ = _random_inputs(rng, 2)
    rows = rng.uniform(2.4e9, 2.403e9, (_CHUNK + 7, 2))
    out = coupling_power_batch(alpha, omega, rows)
    assert out.shape == (_CHUNK + 7,)
    assert_allclose(out[-1], coupling_power_row(alpha, omega, rows[-1]),
                    rtol=1e-12)


def test_coordinate_scan_against_plain_numpy():
    rng = np.random.default_rng(3)
    for _ in range(5):
        k = int(rng.integers(1, 7))
        weights = rng.uniform(0.2, 1.5, k)
        phases = rng.uniform(-800.0, 800.0, k)
        slope = float(rng.uniform(2e-7, 1e-6)) * (1 if rng.random() < 0.5 else -1)
        count = 4001
        f = np.linspace(2.4e9, 2.403e9, count)
        vals = np.cos(slope * f[:, None] - phases[None, :]) @ weights
        i = int(np.argmin(vals))
        fb, vb = coordinate_scan(weights, phases, slope, 2.4e9, 2.403e9, count)
        assert_allclose(vb, vals[i], rtol=1e-9)
        assert abs(fb - f[i]) < 1e-3
