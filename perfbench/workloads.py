"""The four benchmark workloads and the checks on their outputs.

Each workload calls one public entry point of fdabeam.  The inputs of call
number ``j`` come from the benchmark seed and ``j`` alone: ``prepare(j)``
builds them, ``call()`` is the timed part, ``result`` turns what the call
produced into plain values and ``check`` returns the problems found in them
(empty when the outputs are correct).  A pass is ``calls_per_pass`` calls.
See README.md for why each workload exists.

Checks, applied to every call:

* invariants on any seed: per realization bound <= proposed <= linear <=
  phased and proposed <= MRT power, time spread <= 1e-9, rate means ordered
  and monotone with proposed >= MRT, monotone mean descent history, and
  every solve meeting its secrecy-rate target within 1e-9;
* at the seed the reference was frozen for (``reference.json``): outputs
  that do not depend on the descent match it to 1e-9 relative, outputs that
  do are no worse than it.  The README-geometry solve is seed-independent
  and is compared on every seed.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import math
import os

import numpy as np

from fdabeam import cli, experiments
from fdabeam.beamforming import secrecy_rate
from fdabeam.config import load_scenario_config
from fdabeam.experiments import ExperimentConfig
from fdabeam.scenario import FrequencyPlan, channel_pair

REL = 1e-9
"""Relative tolerance against the frozen reference."""

README_SCENARIO_INI = """\
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

RATE_INI = """\
[experiment]
realizations = {realizations}
antenna_counts = 2
target_rate = 10
power_grid = -10 dBW : 10 dBW : 21
baselines = bound, proposed, linear, phased, mrt
time_samples = 21
time_horizon = 20 us
"""


def _inf_nan(a):
    """Infeasible entries are NaN; order them as infinite power."""
    a = np.asarray(a, dtype=float)
    return np.where(np.isnan(a), np.inf, a)


def _match(name, got, ref, problems, atol=0.0):
    got = np.asarray(got, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if got.shape != ref.shape or not np.allclose(got, ref, rtol=REL, atol=atol,
                                                 equal_nan=True):
        problems.append(f"{name} differs from the reference")


def _no_worse(name, got, ref, problems, lower_is_better=True):
    got = _inf_nan(got)
    ref = _inf_nan(ref)
    if got.shape != ref.shape:
        problems.append(f"{name} has shape {got.shape}, reference {ref.shape}")
    elif lower_is_better and np.any(got > ref * (1.0 + REL)):
        problems.append(f"{name} is worse than the reference")
    elif not lower_is_better and np.any(got < ref * (1.0 - REL)):
        problems.append(f"{name} is worse than the reference")


@contextlib.contextmanager
def _quiet():
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()):
        yield out


def call_seed(seed: int, j: int) -> int:
    """Experiment seed of call ``j``: the benchmark seed itself for call 0, and
    a distinct seed for every later call, so a run covers many geometries."""
    return seed + (j << 32)


class Workload:
    """One benchmark workload; a pass is ``calls_per_pass`` calls."""

    name = ""
    calls_per_pass = 1
    ops_per_call = 1
    pool_workers = 1

    def __init__(self, seed: int, workdir, nproc: int):
        self.seed = seed
        self.nproc = nproc
        self.j = 0

    def prepare(self, j: int) -> None:
        """Build the inputs of call ``j`` (not timed)."""
        self.j = j

    def call(self):
        raise NotImplementedError

    def result(self, raw) -> dict:
        return raw

    def check(self, res: dict, reference: dict | None) -> list:
        """Problems in ``res``; ``reference`` is this workload's frozen record."""
        raise NotImplementedError

    def freeze(self, results: list) -> dict:
        """Reference record from the results of calls 0 .. calls_per_pass - 1."""
        raise NotImplementedError

    def resolved(self) -> dict:
        raise NotImplementedError

    def extras(self, results: list) -> dict:
        """Workload-specific figures printed beside the metrics."""
        return {}

    def _reference_call(self, reference, problems, **sizes):
        """Whether the reference record applies: it was frozen at this seed."""
        if reference is None or reference["seed"] != self.seed:
            return False
        for key, value in sizes.items():
            if reference.get(key) != value:
                problems.append(f"reference was frozen for {key}={reference.get(key)}, "
                                f"this run uses {value}")
        return True


class SweepPower(Workload):
    name = "sweep_power"
    calls_per_pass = 16
    realizations = 12
    ops_per_call = len(ExperimentConfig().antenna_counts) * realizations

    def prepare(self, j):
        super().prepare(j)
        self.config = ExperimentConfig(realizations=self.realizations,
                                       rng_seed=call_seed(self.seed, j))

    def call(self):
        return experiments.run_power_sweep(self.config, workers=1)

    def result(self, raw):
        return {"values": {s: raw.values[s] for s in raw.schemes},
                "time_spread": dict(raw.time_spread)}

    def check(self, res, reference):
        problems = []
        v = {s: _inf_nan(a) for s, a in res["values"].items()}
        slack = 1.0 + 1e-12
        if np.any(v["bound"] > v["proposed"] * slack):
            problems.append("bound above proposed power")
        if np.any(v["proposed"] > v["linear"] * slack):
            problems.append("proposed above linear-FDA power")
        if np.any(v["linear"] > v["phased"] * slack):
            problems.append("linear-FDA above phased-array power")
        if np.any(v["proposed"] > v["mrt"] * slack):
            problems.append("proposed above MRT power")
        for scheme, spread in res["time_spread"].items():
            if not spread <= 1e-9:
                problems.append(f"{scheme} time spread {spread:.3g} > 1e-9")
        if self._reference_call(reference, problems, realizations=self.realizations,
                                calls=self.calls_per_pass):
            ref = reference["values"][self.j]
            for scheme in ("bound", "linear", "phased"):
                _match(scheme, res["values"][scheme], ref[scheme], problems)
            for scheme in ("proposed", "mrt"):
                _no_worse(scheme, res["values"][scheme], ref[scheme], problems)
        return problems

    def freeze(self, results):
        return {"seed": self.seed, "realizations": self.realizations,
                "calls": self.calls_per_pass,
                "values": [{s: a.tolist() for s, a in r["values"].items()}
                           for r in results]}

    def resolved(self):
        return {"entry": "experiments.run_power_sweep", "workers": 1,
                "rng_seed": "seed + (call << 32)",
                "config": dataclasses.asdict(self.config)}


class SweepRateCli(Workload):
    name = "sweep_rate_cli"
    calls_per_pass = 10
    realizations = 100
    ops_per_call = realizations

    def __init__(self, seed, workdir, nproc):
        super().__init__(seed, workdir, nproc)
        self.pool_workers = nproc
        self.ini = os.path.join(workdir, "rate.ini")
        self.out = os.path.join(workdir, "rate_out")
        with open(self.ini, "w") as fh:
            fh.write(RATE_INI.format(realizations=self.realizations))

    def prepare(self, j):
        super().prepare(j)
        self.argv = ["sweep-rate", "-c", self.ini, "--seed", str(call_seed(self.seed, j)),
                     "-j", str(self.nproc), "-o", self.out]

    def call(self):
        with _quiet():
            return cli.main(self.argv)

    def result(self, raw):
        with open(os.path.join(self.out, "rate_sweep.csv"), newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        return {"exit": raw, "rows": rows}

    @staticmethod
    def _table(rows):
        """{scheme: (n_axis, 4) array of mean, p05, p95, infeasible fraction}."""
        table = {}
        for row in rows:
            table.setdefault(row[1], []).append([float(x) for x in row[2:]])
        return {s: np.array(v) for s, v in table.items()}

    def check(self, res, reference):
        if res["exit"] != 0:
            return [f"sweep-rate exited with {res['exit']}"]
        problems = []
        t = self._table(res["rows"])
        mean = {s: a[:, 0] for s, a in t.items()}
        for upper, lower in (("bound", "proposed"), ("proposed", "linear"),
                             ("linear", "phased")):
            if np.any(mean[upper] < mean[lower] - 1e-12):
                problems.append(f"mean rate of {upper} below {lower}")
        if np.any(mean["proposed"] < mean["mrt"] - 1e-9):
            problems.append("mean rate of proposed below MRT")
        for s, m in mean.items():
            if np.any(np.diff(m) < -1e-12):
                problems.append(f"mean rate of {s} not monotone in power")
        if any(np.any(a[:, 3] != 0.0) for a in t.values()):
            problems.append("infeasible realizations in a rate sweep")
        if self._reference_call(reference, problems, realizations=self.realizations,
                                calls=self.calls_per_pass):
            ref = self._table(reference["rows"][self.j])
            for s in ("bound", "linear", "phased"):
                _match(f"rate {s}", t[s], ref[s], problems)
            for s in ("proposed", "mrt"):
                _no_worse(f"rate {s}", t[s][:, 0], ref[s][:, 0], problems,
                          lower_is_better=False)
        return problems

    def freeze(self, results):
        return {"seed": self.seed, "realizations": self.realizations,
                "calls": self.calls_per_pass, "rows": [r["rows"] for r in results]}

    def resolved(self):
        return {"entry": "fdabeam.cli.main", "argv": self.argv,
                "seed_arg": "seed + (call << 32)",
                "ini": RATE_INI.format(realizations=self.realizations)}


class DescentLarge(Workload):
    """One realization per call, drawn from one cell of a grid over the
    reference range and angle intervals; a pass visits every cell once.

    About one N = 128 descent in five runs far past two sweeps, and those
    sit in one region of the geometry.  Stratifying gives every pass nearly
    the same share of them: the work of a pass varies by about 2% between
    seeds, against about 9% for a 10 x 10 grid.
    """

    name = "descent_large"
    grid = 20
    calls_per_pass = grid * grid
    antenna_counts = (32, 128)
    ops_per_call = len(antenna_counts)

    def prepare(self, j):
        super().prepare(j)
        (r_lo, r_hi), (a_lo, a_hi) = ExperimentConfig().range_interval, \
            ExperimentConfig().angle_interval
        r, a = divmod(j, self.grid)
        r_step, a_step = (r_hi - r_lo) / self.grid, (a_hi - a_lo) / self.grid
        self.config = ExperimentConfig(
            realizations=1, rng_seed=call_seed(self.seed, j),
            antenna_counts=self.antenna_counts,
            range_interval=(r_lo + r * r_step, r_lo + (r + 1) * r_step),
            angle_interval=(a_lo + a * a_step, a_lo + (a + 1) * a_step))

    def call(self):
        return experiments.run_convergence_study(self.config, workers=1)

    def result(self, raw):
        hist = {n: raw.mean_history[n] for n in raw.antenna_counts}
        return {"initial": [float(hist[n][0]) for n in raw.antenna_counts],
                "final": [float(hist[n][-1]) for n in raw.antenna_counts],
                "history": hist}

    def check(self, res, reference):
        problems = []
        for n, h in res["history"].items():
            if np.any(np.diff(h) > 1e-12 * h[:-1]):
                problems.append(f"descent history rises at N={n}")
        if self._reference_call(reference, problems, calls=self.calls_per_pass):
            ref = reference["descents"][self.j]
            _match("initial coupling", res["initial"], ref["initial"], problems)
            _no_worse("final coupling", res["final"], ref["final"], problems)
        return problems

    def freeze(self, results):
        return {"seed": self.seed, "calls": self.calls_per_pass,
                "descents": [{"initial": r["initial"], "final": r["final"]}
                             for r in results]}

    def resolved(self):
        return {"entry": "experiments.run_convergence_study", "workers": 1,
                "rng_seed": "seed + (call << 32)",
                "cells": f"{self.grid} x {self.grid} over range_interval x angle_interval",
                "config": dataclasses.asdict(self.config)}

    def extras(self, results):
        initial = np.mean([r["initial"] for r in results], axis=0)
        final = np.mean([r["final"] for r in results], axis=0)
        db = float(np.mean(10.0 * np.log10(final / initial)))
        return {"residual_coupling_db": {"value": db, "unit": "dB",
                                         "samples": len(results)}}


class SolveSingle(Workload):
    """Call 0 solves the README geometry; every other call draws Bob and Eve
    from (seed, call)."""

    name = "solve_single"
    calls_per_pass = 400
    target_rate = 5.0

    def __init__(self, seed, workdir, nproc):
        super().__init__(seed, workdir, nproc)
        self.ini = os.path.join(workdir, "scenario.ini")
        self.out = os.path.join(workdir, "solve_out")
        with open(self.ini, "w") as fh:
            fh.write(README_SCENARIO_INI)

    def prepare(self, j):
        super().prepare(j)
        self.overrides = ()
        if j:
            rng = np.random.default_rng((self.seed, j))
            r_b, r_e = rng.uniform(50.0, 150.0, size=2).tolist()
            a_b, a_e = rng.uniform(20.0, 160.0, size=2).tolist()
            self.overrides = (f"bob.range={r_b!r} m", f"bob.angle={a_b!r} deg",
                              f"eve.range={r_e!r} m", f"eve.angle={a_e!r} deg")
        self.argv = ["solve-power", "-c", self.ini, "-o", self.out]
        for item in self.overrides:
            self.argv += ["--set", item]

    def call(self):
        with _quiet() as out:
            code = cli.main(self.argv)
        return code, out.getvalue()

    def result(self, raw):
        code, stdout = raw
        res = {"exit": code, "power": math.nan, "offsets": [], "w": []}
        if code != 0:
            return res
        for line in stdout.splitlines():
            if line.startswith("transmit_power:"):
                res["power"] = float(line.split()[1])
        with open(os.path.join(self.out, "solution.csv"), newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        res["offsets"] = [float(r[1]) for r in rows]
        res["w"] = [complex(float(r[2]), float(r[3])) for r in rows]
        return res

    def check(self, res, reference):
        problems = []
        ref = None
        readme = self.j == 0
        if self._reference_call(reference, problems, calls=self.calls_per_pass):
            ref = reference["solves"][self.j]
        elif reference is not None and readme:
            ref = reference["solves"][0]  # the README geometry ignores the seed
        if ref is not None and res["exit"] != ref["exit"]:
            problems.append(f"exit code {res['exit']}, reference {ref['exit']}")
        if res["exit"] != 0:
            if res["exit"] != 2 or ref is None:
                problems.append(f"solve-power exited with {res['exit']}")
            return problems
        scenario, opts = load_scenario_config(self.ini, self.overrides)
        offsets = np.array(res["offsets"])
        w = np.array(res["w"])
        if np.any(offsets < 0) or np.any(offsets > scenario.rf.max_offset):
            problems.append("offsets outside [0, max_offset]")
        else:
            pair = channel_pair(scenario, FrequencyPlan(offsets), opts.time)
            rate = secrecy_rate(w, pair)
            if not abs(rate - self.target_rate) <= 1e-9:
                problems.append(f"secrecy rate {rate!r} misses target {self.target_rate}")
        if not math.isclose(float(np.vdot(w, w).real), res["power"], rel_tol=REL):
            problems.append("printed power differs from ||w||^2")
        if ref is not None:
            if readme:
                _match("README power", res["power"], ref["power"], problems)
                _match("README offsets", res["offsets"], ref["offsets"], problems,
                       atol=REL * scenario.rf.max_offset)
            else:
                _no_worse(f"solve {self.j} power", res["power"], ref["power"], problems)
        return problems

    def freeze(self, results):
        return {"seed": self.seed, "calls": self.calls_per_pass,
                "solves": [{"exit": r["exit"], "power": r["power"],
                            **({"offsets": r["offsets"]} if j == 0 else {})}
                           for j, r in enumerate(results)]}

    def resolved(self):
        return {"entry": "fdabeam.cli.main", "ini": README_SCENARIO_INI,
                "argv": self.argv, "draws": "numpy default_rng((seed, call))"}


WORKLOADS = {w.name: w for w in (SweepPower, SweepRateCli, DescentLarge, SolveSingle)}
