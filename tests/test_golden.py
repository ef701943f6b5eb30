"""Golden outputs: the sweeps and the README solves against frozen values.

``golden.json`` holds, at a small reference config (24 realizations, seed 0,
every other knob at its default: N in {2, 4, 6, 8}, all five schemes and 21
time samples over 20 us):

* the per-realization values of the power and rate sweeps and their
  ``time_spread``;
* the mean descent history of the convergence study;
* the printed numbers and the solution CSV of ``solve-power`` and
  ``solve-rate`` on the README scenario.

Every number is compared at a relative tolerance of 1e-9.  The time spreads
are rounding noise of order 1e-16, so they get an absolute tolerance of 1e-13
as well: losing the extended-precision phase reduction of the channel
synthesis raises them by orders of magnitude past that.

Regenerate the file with ``PYTHONPATH=src python tests/test_golden.py``,
and only when an output change is intended.
"""

import contextlib
import csv
import io
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from fdabeam.cli import main
from fdabeam.experiments import (
    ExperimentConfig,
    run_convergence_study,
    run_power_sweep,
    run_rate_sweep,
)

GOLDEN = Path(__file__).with_name("golden.json")

REL = 1e-9
"""Relative tolerance of every golden comparison."""

SPREAD_ABS = 1e-13
"""Extra absolute tolerance of the time spreads (rounding noise)."""

CONFIG = ExperimentConfig(realizations=24, rng_seed=0)

README_INI = """\
[rf]
carrier_frequency = 2.4 GHz
max_offset = 3 MHz
noise_power_bob = -100 dBm
noise_power_eve = -100 dBm

[array]
element_count = 4

[bob]
range = 100 m
angle = 60 deg

[eve]
range = 120 m
angle = 100 deg

[solver]
target_rate = 5
power_budget = 1 W
"""


def _sweep(result):
    return {"values": {s: result.values[s].tolist() for s in result.schemes},
            "time_spread": dict(result.time_spread)}


def _solve(command, workdir):
    ini = workdir / "scenario.ini"
    ini.write_text(README_INI)
    out = workdir / command
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        code = main([command, "-c", str(ini), "-o", str(out)])
    assert code == 0
    printed = {}
    for line in stdout.getvalue().splitlines():
        key, value = line.split(": ", 1)
        if key not in ("offsets", "wrote", "converged"):
            printed[key] = float(value.split()[0])
    with open(out / "solution.csv", newline="") as fh:
        rows = [[float(v) for v in row[1:]] for row in list(csv.reader(fh))[1:]]
    return {"printed": printed, "solution": rows}


def compute(workdir: Path) -> dict:
    """Every golden output, computed by the current code."""
    conv = run_convergence_study(CONFIG)
    return {
        "power_sweep": _sweep(run_power_sweep(CONFIG)),
        "rate_sweep": _sweep(run_rate_sweep(CONFIG)),
        "convergence": {str(n): conv.mean_history[n].tolist()
                        for n in conv.antenna_counts},
        "solve_power": _solve("solve-power", workdir),
        "solve_rate": _solve("solve-rate", workdir),
    }


def _close(got, want, atol=0.0):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return got.shape == want.shape and np.allclose(got, want, rtol=REL, atol=atol,
                                                   equal_nan=True)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return compute(tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("sweep", ["power_sweep", "rate_sweep"])
def test_sweep_values_match_golden(outputs, golden, sweep):
    got, want = outputs[sweep]["values"], golden[sweep]["values"]
    assert sorted(got) == sorted(want)
    bad = [s for s in want if not _close(got[s], want[s])]
    assert not bad, f"{sweep} values differ from golden.json for {bad}"


@pytest.mark.parametrize("sweep", ["power_sweep", "rate_sweep"])
def test_time_spread_matches_golden(outputs, golden, sweep):
    got, want = outputs[sweep]["time_spread"], golden[sweep]["time_spread"]
    assert sorted(got) == sorted(want)
    for scheme, value in want.items():
        assert _close(got[scheme], value, atol=SPREAD_ABS), (scheme, got[scheme], value)


def test_convergence_history_matches_golden(outputs, golden):
    got, want = outputs["convergence"], golden["convergence"]
    assert sorted(got) == sorted(want)
    for n, history in want.items():
        assert _close(got[n], history), f"mean history differs at N={n}"


@pytest.mark.parametrize("command", ["solve_power", "solve_rate"])
def test_readme_solve_matches_golden(outputs, golden, command):
    got, want = outputs[command], golden[command]
    assert sorted(got["printed"]) == sorted(want["printed"])
    for key, value in want["printed"].items():
        assert _close(got["printed"][key], value), (key, got["printed"][key], value)
    assert _close(got["solution"], want["solution"])
    assert all(math.isfinite(v) for row in want["solution"] for v in row)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        data = compute(Path(tmp))
    GOLDEN.write_text(json.dumps(data, indent=1) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
