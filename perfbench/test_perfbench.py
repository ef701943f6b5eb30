"""Tests of the benchmark itself: output checks, wrapper removal, self time.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

import copy
import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from fdabeam import cli, experiments  # noqa: E402
from fdabeam.experiments import ExperimentConfig  # noqa: E402
from tracing import MODULES, TARGETS, Tracer  # noqa: E402
from workloads import SolveSingle, SweepPower  # noqa: E402

REFERENCE = json.loads((HERE / "reference.json").read_text())


def _seed(workload):
    return REFERENCE[workload]["seed"]


def test_check_flags_perturbed_sweep_reference(tmp_path):
    wl = SweepPower(_seed("sweep_power"), str(tmp_path), 1)
    wl.prepare(0)
    res = wl.result(wl.call())
    reference = REFERENCE["sweep_power"]
    assert wl.check(res, reference) == []

    perturbed = copy.deepcopy(reference)
    perturbed["values"][0]["linear"][1][3] *= 1.0 + 1e-7
    assert wl.check(res, perturbed) == ["linear differs from the reference"]

    better = copy.deepcopy(reference)
    better["values"][0]["proposed"][2][5] *= 1.0 - 1e-7
    assert wl.check(res, better) == ["proposed is worse than the reference"]


def test_check_flags_perturbed_solve_reference(tmp_path):
    wl = SolveSingle(_seed("solve_single"), str(tmp_path), 1)
    reference = REFERENCE["solve_single"]
    wl.prepare(0)
    res = wl.result(wl.call())
    assert wl.check(res, reference) == []

    perturbed = copy.deepcopy(reference)
    perturbed["solves"][0]["offsets"][1] += 1.0
    assert wl.check(res, perturbed) == ["README offsets differs from the reference"]

    # The README geometry ignores the seed, so it is compared on every seed.
    other = SolveSingle(_seed("solve_single") + 1, str(tmp_path), 1)
    other.prepare(0)
    perturbed = copy.deepcopy(reference)
    perturbed["solves"][0]["power"] *= 1.0 + 1e-7
    assert other.check(other.result(other.call()), perturbed) == [
        "README power differs from the reference"]


def _bindings():
    return {(module.__name__, attr): getattr(module, attr)
            for _, _, attr, _, _ in TARGETS for module in MODULES
            if hasattr(module, attr)}


def test_wrappers_removed_after_traced_run(tmp_path):
    before = _bindings()
    tracer = Tracer(tmp_path)
    with tracer.installed():
        assert experiments.optimize_offsets is not before[("fdabeam.experiments",
                                                            "optimize_offsets")]
        assert cli.main is not before[("fdabeam.cli", "main")]
        tracer.recording = True
        experiments.run_convergence_study(ExperimentConfig(realizations=1,
                                                           antenna_counts=(4,)))
        tracer.recording = False
    assert _bindings() == before
    assert all(after is before[key] for key, after in _bindings().items())

    traced = len(tracer)
    assert traced > 0
    tracer.recording = True
    experiments.run_convergence_study(ExperimentConfig(realizations=1, antenna_counts=(4,)))
    assert len(tracer) == traced


def test_nested_self_times_fit_in_traced_wall(tmp_path):
    tracer = Tracer(tmp_path)
    wl = SolveSingle(3, str(tmp_path), 1)
    with tracer.installed():
        tracer.recording = True
        start = time.perf_counter()
        experiments.run_power_sweep(ExperimentConfig(realizations=2, antenna_counts=(2, 4)))
        for j in range(3):
            wl.prepare(j)
            wl.call()
        wall = time.perf_counter() - start
        tracer.recording = False
    spans = tracer.spans()
    self_s = tracer.self_times(spans)
    assert len(spans) > 100
    assert self_s.min() >= -1e-9
    assert self_s.sum() <= wall
    top = spans["parent"] == -1
    assert self_s.sum() == pytest.approx((spans["end"] - spans["start"])[top].sum())


def test_pool_worker_spans_reach_the_parent(tmp_path):
    ini = tmp_path / "rate.ini"
    ini.write_text("[experiment]\nrealizations = 6\nantenna_counts = 2\ntime_samples = 3\n")
    tracer = Tracer(tmp_path)
    with tracer.installed():
        tracer.recording = True
        assert cli.main(["sweep-rate", "-c", str(ini), "-j", "2",
                         "-o", str(tmp_path / "out")]) == 0
        tracer.recording = False
    tracer.collect_children()
    spans = tracer.spans()
    tasks = spans[spans["name"] == tracer.names.index("experiments.task")]
    assert sorted(tasks["op"]) == list(range(6))
    assert tracer.counts["coupling.descents"] == 6
    assert not list(tmp_path.glob("worker-*.pkl"))
