"""SHA-256 fingerprints of the command-line outputs, to show that a change
keeps every output byte.

Runs ``sweep-power``, ``sweep-rate`` and ``convergence`` at the reference
config (an empty ``[experiment]`` section) at ``-j 1`` and ``-j 2``,
``convergence -j 1`` at N = 9, 33 and 130 (the reference config descends at
N <= 8 only; its CSV carries the mean histories to 17 digits), and
``solve-power``, ``solve-rate`` and ``optimize-offsets`` on the README's INI
block.  Three more runs on that block cover a descent from a non-zero start
(``solve-power`` with ``solver.initialization=linear``, which ends at
interior offsets) and two failure paths: ``optimize-offsets`` with a
coupling prefactor K past the float range (``rf.noise_power_bob``) and with
channel gains past it (``bob.range``).  Three runs rewrite existing
outputs: ``solve-power`` on the README block into a directory where a
64-element solve left a longer ``trace.csv`` and ``solution.csv``,
``sweep-rate`` at the reference grid where a 31-point grid left a longer
``rate_sweep.csv``, and an infeasible ``solve-power`` (Bob moved onto Eve's
position, exit 2) over the README block's feasible outputs, whose
``solution.csv`` it replaces.  The next run, ``sweep-power -j 1`` at
6 realizations and N = 2, 5 with ``--seed`` 2**128 + 1, draws from seeds of
five 32-bit words, more than numpy's 4-word ``SeedSequence`` pool, so
comparing it with a tree that drew through ``numpy.random`` checks the
sweeps' draws there.  The next run, ``sweep-rate -j 1`` at 32 realizations
and N = 2 with the same seed, does the same at more realizations.  The
next run, ``convergence -j 1`` at one realization and N = 32, 128 (the
shape of perfbench's ``descent_large``) with the same seed, hashes its one
index as a Python int, not an array, so the same comparison checks the
draw at one realization, its mixing of the fifth word included.  The next
run, ``sweep-rate -j 2`` on the benchmark's ``sweep_rate_cli`` config
(100 realizations, too few tasks for a pool), runs in the calling process,
so comparing it with a tree that started a pool there checks that path.
The next run, ``sweep-power -j 1`` at 300 realizations and N = 2, 8 (21
time samples, so 23 N channel entries per realization and receiver),
packs its task rows into two blocks at the default ``_BLOCK_ENTRIES`` of
65 536: the first holds all 300 realizations at N = 2 and 281 at N = 8,
the second the last 19 at N = 8, so one block spans both counts and
N = 8 splits across the two.  Three runs, ``sweep-power``,
``sweep-rate`` and ``convergence -j 1`` at 3 realizations and N = 1, 2
with Bob drawn exactly half a wavelength out on the array axis, cover a
layout check that fails at N = 2 only: the first and third exit 1 with the
scenario's error on stderr and write no CSV, the second (N = 1) runs.
Six last runs put the product of Bob's and Eve's channel gains past the
float range: the three sweeps at ``-j 1`` with Bob drawn 3e-150 m out
(Eve 20 m behind him) at N = 1, and the three single-scenario commands on
the README block with N = 1, Bob at 3e-150 m and Eve at 20 m on his
bearing; each exits 1 with the scenario's error and writes no CSV.
The next run, ``optimize-offsets`` on the README block with
``solver.initialization=linear`` and ``solver.max_outer=0``, writes the
clamped linear start as its plan: the descent's start from a plan and its
exit, with no sweep in between.  The next two runs, ``optimize-offsets`` on
the README block at ``array.element_count=8`` and ``=9``, put a descent on
each side of N = 9, where its start, rest sums and end clamp switch from
Python floats to numpy; Bob and Eve sit on separated bearings there, so the
descents take 11 and 9 sweeps, and their ``trace.csv`` (90 and 83 lines)
carries every coupling value to 17 digits.  The next run,
``optimize-offsets`` on the README block at ``array.element_count=8`` with
``solver.initialization=linear``, starts the descent from a plan at the top
of the Python-float range (11 sweeps, 4 rejected updates).  The next run,
``optimize-offsets`` on the README block at ``array.element_count=128``
with Bob at 60 m and Eve at 80 m, both at 120 deg, takes 35 sweeps with 13
rejected updates on the buffered rest sums of N >= 9; its ``trace.csv``
(4 482 lines) carries the coupling after every coordinate visit to 17
digits.  The last two runs, ``sweep-power -j 1`` and ``sweep-rate -j 1`` at 6
realizations and N = 2, 3 with ``experiment.baselines=mrt, phased,
bound``, select a reversed, partial list of schemes, which the sweeps
place by name.
Each command runs in a fresh
directory (the rewrites after their first command), on the package of the
tree this file sits in, and the script prints one hash per CSV, per stdout
and per stderr, plus the exit code.  Run it on two trees and compare:

    python3 tests/fingerprint.py > before.txt   # in the parent's checkout
    python3 tests/fingerprint.py > after.txt    # in the change's checkout
    diff before.txt after.txt

pytest does not collect it (the name does not match ``test_*.py``).  The
sweeps take a few seconds each.
"""

import hashlib
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_EXPERIMENT = "[experiment]\n"
LARGE_N_EXPERIMENT = "[experiment]\nrealizations = 4\nantenna_counts = 9, 33, 130\n"
WIDE_SEED_EXPERIMENT = "[experiment]\nrealizations = 6\nantenna_counts = 2, 5\n"
WIDE_SEED_ARRAY_EXPERIMENT = "[experiment]\nrealizations = 32\nantenna_counts = 2\n"
WIDE_SEED_ONE_EXPERIMENT = "[experiment]\nrealizations = 1\nantenna_counts = 32, 128\n"
# RATE_INI of perfbench/workloads.py at its 100 realizations.
BENCH_RATE_EXPERIMENT = """\
[experiment]
realizations = 100
antenna_counts = 2
target_rate = 10
power_grid = -10 dBW : 10 dBW : 21
baselines = bound, proposed, linear, phased, mrt
time_samples = 21
time_horizon = 20 us
"""

# 300 x 23 x (2 + 8) channel entries: two blocks, the first spanning both counts.
PACKED_EXPERIMENT = "[experiment]\nrealizations = 300\nantenna_counts = 2, 8\n"

# Bob exactly half a wavelength out on the array axis: on element 1 at N = 2.
ON_ELEMENT_EXPERIMENT = """\
[experiment]
realizations = 3
antenna_counts = 1, 2
range_min = 0.06245676208333333 m
range_max = 0.06245676208333333 m
angle_min = 0 deg
angle_max = 0 deg
"""

# N = 1 and Bob 3e-150 m out: N times his gain is finite, its product with
# Eve's (20 m farther out) is not.
GAIN_PRODUCT_EXPERIMENT = """\
[experiment]
realizations = 2
antenna_counts = 1
range_min = 3e-150 m
range_max = 3e-150 m
"""
GAIN_PRODUCT_SETS = ("array.element_count=1", "bob.range=3e-150 m", "eve.range=20 m",
                     "eve.angle=60 deg")

# A reversed, partial scheme selection, which the sweeps place by name.
SELECTED_EXPERIMENT = "[experiment]\nrealizations = 6\nantenna_counts = 2, 3\n"
SELECTED_SET = "experiment.baselines=mrt, phased, bound"

# Bob and Eve on one bearing, 20 m apart: 35 sweeps and 13 rejections at N = 128.
LONG_DESCENT_SETS = ("array.element_count=128", "bob.range=60 m", "bob.angle=120 deg",
                     "eve.range=80 m", "eve.angle=120 deg")


def _readme_ini() -> str:
    return re.search(r"```ini\n(.*?)```", (ROOT / "README.md").read_text(), re.S).group(1)


def _run(command: list, ini: str, before: tuple = ()) -> tuple[int, dict]:
    """Exit code and output bytes of ``fdabeam <command>`` on ``ini``, run
    after the ``before`` commands (which must succeed) wrote into the same
    output directory."""
    env = dict(os.environ)
    env.pop("FDABEAM_OUTPUT_DIR", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "config.ini").write_text(ini)
        for i, args in enumerate((*before, command)):
            proc = subprocess.run(
                [sys.executable, "-m", "fdabeam.cli", *args,
                 "--config", "config.ini", "--output", "out"],
                cwd=tmp, env=env, capture_output=True, check=i < len(before))
        outputs = {"stdout": proc.stdout, "stderr": proc.stderr}
        for path in sorted((Path(tmp) / "out").glob("*")):
            outputs[path.name] = path.read_bytes()
    return proc.returncode, outputs


def main() -> int:
    runs = [(f"{name} -j {jobs}", [name, "-j", jobs], REFERENCE_EXPERIMENT, ())
            for name in ("sweep-power", "sweep-rate", "convergence")
            for jobs in ("1", "2")]
    runs.append(("convergence -j 1 large-N", ["convergence", "-j", "1"],
                 LARGE_N_EXPERIMENT, ()))
    runs += [(name, [name], _readme_ini(), ())
             for name in ("solve-power", "solve-rate", "optimize-offsets")]
    runs += [(f"{name} --set {override}", [name, "--set", override], _readme_ini(), ())
             for name, override in (("solve-power", "solver.initialization=linear"),
                                    ("optimize-offsets", "rf.noise_power_bob=1e-320 W"),
                                    ("optimize-offsets", "bob.range=1e-300 m"))]
    runs += [
        ("solve-power over N=64 outputs", ["solve-power"], _readme_ini(),
         (["solve-power", "--set", "array.element_count=64"],)),
        ("sweep-rate -j 1 over a 31-point grid's output", ["sweep-rate", "-j", "1"],
         REFERENCE_EXPERIMENT,
         (["sweep-rate", "-j", "1", "--set", "experiment.power_grid=-10 dBW : 20 dBW : 31"],)),
        ("infeasible solve-power over README outputs",
         ["solve-power", "--set", "bob.range=120 m", "--set", "bob.angle=100 deg"],
         _readme_ini(), (["solve-power"],)),
        ("sweep-power -j 1 --seed 2**128 + 1",
         ["sweep-power", "-j", "1", "--seed", str(2**128 + 1)], WIDE_SEED_EXPERIMENT, ()),
        ("sweep-rate -j 1 --seed 2**128 + 1 at 32 realizations",
         ["sweep-rate", "-j", "1", "--seed", str(2**128 + 1)], WIDE_SEED_ARRAY_EXPERIMENT, ()),
        ("convergence -j 1 --seed 2**128 + 1 at 1 realization",
         ["convergence", "-j", "1", "--seed", str(2**128 + 1)], WIDE_SEED_ONE_EXPERIMENT, ()),
        ("sweep-rate -j 2 at 100 realizations", ["sweep-rate", "-j", "2"],
         BENCH_RATE_EXPERIMENT, ()),
        ("sweep-power -j 1 at 300 realizations and N = 2, 8", ["sweep-power", "-j", "1"],
         PACKED_EXPERIMENT, ()),
    ]
    runs += [(f"{name} -j 1 with Bob on element 1", [name, "-j", "1"], ON_ELEMENT_EXPERIMENT, ())
             for name in ("sweep-power", "sweep-rate", "convergence")]
    runs += [(f"{name} -j 1 past the gain-product bound", [name, "-j", "1"],
              GAIN_PRODUCT_EXPERIMENT, ())
             for name in ("sweep-power", "sweep-rate", "convergence")]
    sets = [arg for override in GAIN_PRODUCT_SETS for arg in ("--set", override)]
    runs += [(f"{name} past the gain-product bound", [name, *sets], _readme_ini(), ())
             for name in ("solve-power", "solve-rate", "optimize-offsets")]
    runs.append(("optimize-offsets from the linear start at max_outer=0",
                 ["optimize-offsets", "--set", "solver.initialization=linear",
                  "--set", "solver.max_outer=0"], _readme_ini(), ()))
    runs += [(f"optimize-offsets at N = {n}",
              ["optimize-offsets", "--set", f"array.element_count={n}"], _readme_ini(), ())
             for n in (8, 9)]
    runs.append(("optimize-offsets at N = 8 from the linear start",
                 ["optimize-offsets", "--set", "array.element_count=8",
                  "--set", "solver.initialization=linear"], _readme_ini(), ()))
    sets = [arg for override in LONG_DESCENT_SETS for arg in ("--set", override)]
    runs.append(("optimize-offsets at N = 128 over 35 sweeps",
                 ["optimize-offsets", *sets], _readme_ini(), ()))
    runs += [(f"{name} -j 1 with baselines mrt, phased, bound",
              [name, "-j", "1", "--set", SELECTED_SET], SELECTED_EXPERIMENT, ())
             for name in ("sweep-power", "sweep-rate")]
    for label, command, ini, before in runs:
        code, outputs = _run(command, ini, before)
        print(f"{label}: exit {code}")
        for name, data in outputs.items():
            print(f"{label}: {name} {hashlib.sha256(data).hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
