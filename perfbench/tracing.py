"""In-memory span tracer that wraps fdabeam's public functions from outside.

Each wrapped call records one span: (id, name, start, end, parent span, op
id).  Counters for work that spans cannot express (elements processed,
descent sweeps, infeasible solves, CSV bytes) are recorded at the same
boundaries.  ``fdabeam`` binds most functions with ``from .x import y``, so
a function is replaced under its own name in every package module that holds
it; :meth:`Tracer.installed` restores every original on exit.

Sweeps running in a forked process pool record spans in the workers.  Each
worker appends what it recorded after every task to a spool file, and the
parent merges those files after the call (:meth:`Tracer.collect_children`).
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import pickle
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

import fdabeam
from fdabeam import beamforming, cli, config, coupling, experiments, kernels, scenario

MODULES = (fdabeam, scenario, coupling, kernels, beamforming, experiments, config, cli)

# Every workload starts its time samples at t = 0, so a channel_pair call at
# any other instant belongs to the time-invariance re-check.
FIRST_TIME_SAMPLE = 0.0


def _channel_pair_span(args, kwargs):
    t = args[2] if len(args) > 2 else kwargs.get("t", 0.0)
    if t != FIRST_TIME_SAMPLE:
        return "scenario.channel_pair.recheck"
    return "scenario.channel_pair"


def _after_optimize(tracer, args, result):
    _, trace = result
    hist = np.asarray(trace.objective_history)
    tracer.counts["coupling.inner_updates"] += hist.size - 1
    tracer.counts["coupling.useful_updates"] += int(np.count_nonzero(hist[1:] < hist[:-1]))
    tracer.counts["coupling.converged"] += int(trace.converged)
    tracer.counts["coupling.descents"] += 1
    tracer.outer.append(trace.outer_iterations)


def _after_coupling_power(tracer, args, result):
    tracer.counts["kernels.coupling_power.elements"] += len(args[0])


def _after_min_power(tracer, args, result):
    tracer.counts["beamforming.infeasible"] += int(not result.feasible)


def _after_mrt_power(tracer, args, result):
    tracer.counts["beamforming.infeasible"] += int(math.isinf(result))


def _after_csv(path_index):
    def hook(tracer, args, result):
        tracer.counts["experiments.csv.bytes"] += os.path.getsize(args[path_index])
    return hook


def _power_op(args):
    n, index = args[1]
    return n << 32 | index


def _rate_op(args):
    return args[1]


# (span name, defining module, function name, post-call hook, op id of a task)
TARGETS = (
    ("cli.main", cli, "main", None, None),
    ("config.load", config, "load_scenario_config", None, None),
    ("config.load", config, "load_experiment_config", None, None),
    ("experiments.run", experiments, "run_power_sweep", None, None),
    ("experiments.run", experiments, "run_rate_sweep", None, None),
    ("experiments.run", experiments, "run_convergence_study", None, None),
    ("experiments.task", experiments, "_power_realization", None, _power_op),
    ("experiments.task", experiments, "_rate_realization", None, _rate_op),
    ("experiments.task", experiments, "_convergence_realization", None, _power_op),
    ("experiments.sample_scenario", experiments, "sample_scenario", None, None),
    ("experiments.csv", experiments, "write_sweep_csv", _after_csv(1), None),
    ("experiments.csv", experiments, "write_convergence_csv", _after_csv(1), None),
    ("experiments.csv", experiments, "write_trace_csv", _after_csv(1), None),
    ("experiments.csv", cli, "_write_solution_csv", _after_csv(0), None),
    ("scenario.channel_pair", scenario, "channel_pair", None, None),
    ("coupling.optimize_offsets", coupling, "optimize_offsets", _after_optimize, None),
    ("coupling.g_value", coupling, "g_value", None, None),
    ("kernels.coupling_power", kernels, "coupling_power", _after_coupling_power, None),
    ("beamforming.min_power_beamformer", beamforming, "min_power_beamformer",
     _after_min_power, None),
    ("beamforming.principal_eigvec_span2", beamforming, "principal_eigvec_span2", None, None),
    ("beamforming.channel_stats", beamforming, "channel_stats", None, None),
    ("beamforming.closed_form", beamforming, "lambda1_closed_form", None, None),
    ("beamforming.closed_form", beamforming, "lambda_delta_closed_form", None, None),
    ("beamforming.mrt", beamforming, "mrt_rate", None, None),
    ("beamforming.mrt", beamforming, "mrt_required_power", _after_mrt_power, None),
)

SPAN_DTYPE = np.dtype([("id", "i8"), ("name", "i4"), ("start", "f8"), ("end", "f8"),
                       ("parent", "i8"), ("op", "i8")])


class Tracer:
    """Span and counter store for one benchmark process.

    Spans are kept in compact arrays and only written out by :meth:`save`.
    Recording is off unless ``recording`` is set, so calls the benchmark
    makes to check outputs leave no spans.
    """

    def __init__(self, spool_dir):
        self.spool_dir = Path(spool_dir)
        self.names = ["scenario.channel_pair.recheck"]
        for name, *_ in TARGETS:
            if name not in self.names:
                self.names.append(name)
        self._index = {name: i for i, name in enumerate(self.names)}
        self.recording = False
        self.op = -1
        self._stack = []
        self._next = 0
        self._owner = os.getpid()
        self._buffer_pid = self._owner
        self._patched = []
        self._reset_buffers()

    def _reset_buffers(self):
        self.ids, self.name_ix, self.parents, self.ops = (array("q"), array("i"),
                                                          array("q"), array("q"))
        self.starts, self.ends = array("d"), array("d")
        self.counts = Counter()
        self.outer = []

    def __len__(self):
        return len(self.ids)

    # -- recording -----------------------------------------------------------

    def _record(self, name_ix, fn, args, kwargs, hook):
        span_id = self._buffer_pid << 32 | self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.ids.append(span_id)
            self.name_ix.append(name_ix)
            self.starts.append(start)
            self.ends.append(end)
            self.parents.append(parent)
            self.ops.append(self.op)
        if hook is not None:
            hook(self, args, result)
        return result

    def _wrap(self, name, fn, hook, task_op):
        tracer = self
        name_ix = self._index[name]

        if fn is scenario.channel_pair:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not tracer.recording:
                    return fn(*args, **kwargs)
                ix = tracer._index[_channel_pair_span(args, kwargs)]
                return tracer._record(ix, fn, args, kwargs, hook)
        elif task_op is not None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not tracer.recording:
                    return fn(*args, **kwargs)
                pid = os.getpid()
                if pid != tracer._buffer_pid:
                    # First task in a forked pool worker: drop the parent's
                    # spans inherited through fork.
                    tracer._buffer_pid = pid
                    tracer._next = 0
                    tracer._reset_buffers()
                outer_op, tracer.op = tracer.op, task_op(args)
                try:
                    return tracer._record(name_ix, fn, args, kwargs, hook)
                finally:
                    tracer.op = outer_op
                    if pid != tracer._owner:
                        tracer._spool()
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not tracer.recording:
                    return fn(*args, **kwargs)
                return tracer._record(name_ix, fn, args, kwargs, hook)
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Replace every target wherever the package binds it; restore on exit."""
        try:
            for name, home, attr, hook, task_op in TARGETS:
                original = getattr(home, attr)
                wrapper = self._wrap(name, original, hook, task_op)
                for module in MODULES:
                    if getattr(module, attr, None) is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)
            yield self
        finally:
            while self._patched:
                module, attr, original = self._patched.pop()
                setattr(module, attr, original)

    # -- pool workers --------------------------------------------------------

    def _spool(self):
        payload = (self._arrays(), dict(self.counts), list(self.outer))
        with open(self.spool_dir / f"worker-{os.getpid()}.pkl", "ab") as fh:
            pickle.dump(payload, fh)
        self._reset_buffers()

    def collect_children(self):
        """Merge and delete the spool files that pool workers wrote."""
        for path in sorted(self.spool_dir.glob("worker-*.pkl")):
            with open(path, "rb") as fh:
                while True:
                    try:
                        columns, counts, outer = pickle.load(fh)
                    except EOFError:
                        break
                    for dst, src in zip(self._arrays(), columns):
                        dst.extend(src)
                    self.counts.update(counts)
                    self.outer.extend(outer)
            path.unlink()

    # -- analysis ------------------------------------------------------------

    def _arrays(self):
        return (self.ids, self.name_ix, self.starts, self.ends, self.parents, self.ops)

    def spans(self, first=0):
        """Structured array of the spans recorded from index ``first`` on."""
        out = np.empty(len(self.ids) - first, dtype=SPAN_DTYPE)
        for field, column in zip(SPAN_DTYPE.names, self._arrays()):
            out[field] = np.frombuffer(column, dtype=column.typecode)[first:]
        return out

    def self_times(self, spans):
        """Per span: duration minus the time of its same-process children."""
        dur = spans["end"] - spans["start"]
        if not len(spans):
            return dur
        order = np.argsort(spans["id"], kind="stable")
        sorted_ids = spans["id"][order]
        pos = np.searchsorted(sorted_ids, spans["parent"])
        pos = np.minimum(pos, len(sorted_ids) - 1)
        found = ((spans["parent"] >= 0) & (sorted_ids[pos] == spans["parent"])
                 & (spans["parent"] >> 32 == spans["id"] >> 32))
        child = np.bincount(order[pos[found]], weights=dur[found], minlength=len(spans))
        return dur - child

    def by_name(self, spans, values):
        """Sum ``values`` per span name."""
        totals = np.bincount(spans["name"], weights=values, minlength=len(self.names))
        return dict(zip(self.names, totals))

    def save(self, path):
        np.savez(path, spans=self.spans(), names=np.array(self.names))


COUNTERS = ("coupling.inner_updates", "coupling.useful_updates", "coupling.converged",
            "coupling.descents", "kernels.coupling_power.elements",
            "beamforming.infeasible", "experiments.csv.bytes")


def count_metrics(tracer, mark, counts_before, outer_before):
    """Exact work counts of one pass: calls per span name and counter deltas.

    ``mark``, ``counts_before`` and ``outer_before`` are the span count, the
    counters and the number of descents recorded before the pass.
    """
    calls = np.bincount(tracer.spans(mark)["name"], minlength=len(tracer.names))
    out = {f"{name}.calls": int(c) for name, c in zip(tracer.names, calls)}
    for key in COUNTERS:
        out[key] = tracer.counts[key] - counts_before[key]
    outer = tracer.outer[outer_before:]
    out["coupling.outer_iterations.p50"] = float(np.median(outer)) if outer else 0.0
    out["coupling.outer_iterations.max"] = max(outer, default=0)
    return out


def run_wall(tracer, mark):
    """Wall time of the experiments.run spans recorded from index ``mark`` on."""
    spans = tracer.spans(mark)
    sel = spans["name"] == tracer.names.index("experiments.run")
    return float(np.sum(spans["end"][sel] - spans["start"][sel]))


def layer_metrics(tracer, passes, pool_workers):
    """Per-layer metrics of a traced run; times and counts are per pass."""
    spans = tracer.spans()
    self_s = tracer.by_name(spans, tracer.self_times(spans))
    per_pass = len(passes)
    counts = passes[0]["counts"]
    out = {}

    def put(key, value, unit):
        out[key] = {"value": value, "unit": unit}

    pair, recheck = "scenario.channel_pair", "scenario.channel_pair.recheck"
    put(f"{pair}.calls", counts[f"{pair}.calls"] + counts[f"{recheck}.calls"], "count")
    put(f"{pair}.self_s", (self_s[pair] + self_s[recheck]) / per_pass, "s")
    put(f"{pair}.recheck_calls", counts[f"{recheck}.calls"], "count")
    put(f"{pair}.recheck_s", self_s[recheck] / per_pass, "s")
    put("experiments.sample_scenario.self_s",
        self_s["experiments.sample_scenario"] / per_pass, "s")
    for name in ("coupling.optimize_offsets", "coupling.g_value", "kernels.coupling_power",
                 "beamforming.min_power_beamformer", "beamforming.principal_eigvec_span2",
                 "beamforming.channel_stats", "beamforming.closed_form", "beamforming.mrt"):
        put(f"{name}.calls", counts[f"{name}.calls"], "count")
        put(f"{name}.self_s", self_s[name] / per_pass, "s")
    put("coupling.outer_iterations.p50", counts["coupling.outer_iterations.p50"], "count")
    put("coupling.outer_iterations.max", counts["coupling.outer_iterations.max"], "count")
    inner = counts["coupling.inner_updates"]
    descents = counts["coupling.descents"]
    put("coupling.inner_updates", inner, "count")
    put("coupling.useful_update_ratio",
        counts["coupling.useful_updates"] / inner if inner else 0.0, "ratio")
    put("coupling.converged_fraction",
        counts["coupling.converged"] / descents if descents else 0.0, "ratio")
    put("kernels.coupling_power.elements", counts["kernels.coupling_power.elements"], "count")
    put("beamforming.infeasible", counts["beamforming.infeasible"], "count")
    busy = [p["child_cpu_s"] / (pool_workers * p["run_wall_s"])
            if pool_workers > 1 and p["run_wall_s"] > 0 else 0.0 for p in passes]
    put("experiments.pool.busy_fraction", float(np.median(busy)), "ratio")
    put("experiments.csv.bytes", counts["experiments.csv.bytes"], "bytes")
    put("experiments.csv.self_s", self_s["experiments.csv"] / per_pass, "s")
    put("config.load.self_s", self_s["config.load"] / per_pass, "s")
    put("cli.main.self_s", self_s["cli.main"] / per_pass, "s")
    put("trace.pass_wall_s", float(np.median([p["seconds"] for p in passes])), "s")
    return out
