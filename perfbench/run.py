"""Pipeline benchmark for fdabeam on the installed numpy path.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all        # every workload in turn
    python3 perfbench/run.py --freeze-reference    # rewrite reference.json

The package is imported from the ``src/`` directory next to this one.  A
run sets the workload up (import, inputs, one untimed warm-up call), then
calls the workload's entry point in a closed loop for ``--seconds`` and
checks every output.  With ``--trace 0`` it reports the end-to-end metrics;
setup time is the median of five fresh interpreters that each set up and
exit.  With ``--trace 1`` it measures half the time with every traced
function wrapped and half with the wrappers removed, and reports the
per-layer metrics (README.md lists them) and the tracing overhead.  Call
and setup times are scaled by a calibration kernel (README.md says why).
The last line of standard output is one JSON object; the full record,
including metadata, goes to ``.perfbench_out/``.  The exit code is not 0
when any op failed or the package cannot be found.
"""

import os

# Pin native thread pools before numpy loads, so the process and its pool
# workers never run more threads than there are cores.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
DEFAULT_SEED = 1
SETUP_PROBES = 5
CALIBRATION_REF_S = 0.9e-3
"""Time of :func:`_calibration_s` on an idle 2.1 GHz Xeon vCPU.  Reported
times are scaled to that machine speed (see README.md)."""
_CALIBRATION_X = np.linspace(0.0, 1.0, 64)


def _calibration_s():
    """Wall time of a fixed numpy kernel that shares no code with fdabeam."""
    start = time.perf_counter()
    for i in range(200):
        np.sum(np.cos(_CALIBRATION_X * i))
    return time.perf_counter() - start


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up, print the time the first call could start, exit")
    p.add_argument("--freeze-reference", action="store_true")
    return p.parse_args(argv)


def _import_package():
    src = ROOT / "src"
    if not (src / "fdabeam" / "__init__.py").is_file():
        sys.exit(f"error: no fdabeam package under {src}")
    sys.path.insert(0, str(src))
    import fdabeam
    if Path(fdabeam.__file__).resolve().parent != (src / "fdabeam").resolve():
        sys.exit(f"error: imported fdabeam from {fdabeam.__file__}, not {src}")


def _nproc():
    return len(os.sched_getaffinity(0))


def _load_reference():
    if not REFERENCE.is_file():
        return {}
    return json.loads(REFERENCE.read_text())


def _meta(args, wl):
    import importlib.util
    import platform

    from fdabeam import kernels
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {"git_sha": sha, "python": platform.python_version(), "numpy": np.__version__,
            "numba_importable": importlib.util.find_spec("numba") is not None,
            "backend": kernels.BACKEND, "nproc": _nproc(), "seed": args.seed,
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "workload": wl.name, "resolved": wl.resolved()}


def _setup_time(args):
    """Median time from spawning a fresh interpreter to its first call, each
    sample scaled by the calibration runs around it."""
    samples = []
    for _ in range(SETUP_PROBES):
        cal = _calibration_s()
        t0 = time.time()
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", args.workload, "--seed", str(args.seed),
                               "--setup-probe"], capture_output=True, text=True,
                              timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        wall = float(proc.stdout.split()[-1]) - t0
        samples.append(wall * 2.0 * CALIBRATION_REF_S / (cal + _calibration_s()))
    return statistics.median(samples)


def _measure(wl, seconds, reference, tracer=None):
    """Closed loop of passes over the same ``calls_per_pass`` inputs.

    A new pass starts only while it can be expected to end within
    ``seconds`` of wall time; there are always at least two, so that every
    input has more than one time.
    Every pass repeats the same inputs, so the work counts of a traced pass
    must repeat exactly.  Each call time is scaled by the calibration runs
    just before and after it.
    """
    import resource

    from tracing import count_metrics, run_wall
    run = {"scaled": [[] for _ in range(wl.calls_per_pass)], "raw": [],
           "ops_per_pass": 0, "ops": 0, "failed": 0, "problems": [], "passes": [],
           "results": []}
    start = time.perf_counter()
    cal = _calibration_s()
    last = 0.0
    while len(run["passes"]) < 2 or time.perf_counter() - start + last <= seconds:
        pass_start = time.perf_counter()
        index = len(run["passes"])
        if tracer is not None:
            mark, counts, outer = len(tracer), tracer.counts.copy(), len(tracer.outer)
            cpu0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        pass_ops = pass_failed = 0
        pass_time = 0.0
        for k in range(wl.calls_per_pass):
            wl.prepare(k)
            if tracer is not None:
                tracer.op = index * wl.calls_per_pass + k
                tracer.recording = True
            t0 = time.perf_counter()
            try:
                raw = wl.call()
                problems = None
            except Exception as exc:  # an op that raises counts as failed
                problems = [f"call {k} raised {exc!r}"]
            finally:
                dt = time.perf_counter() - t0
                if tracer is not None:
                    tracer.recording = False
            if problems is None:
                try:
                    res = wl.result(raw)
                    problems = wl.check(res, reference)
                    if index == 0:
                        run["results"].append(res)
                except Exception as exc:  # unreadable output fails the op
                    problems = [f"output of call {k} unreadable: {exc!r}"]
            cal_after = _calibration_s()
            run["scaled"][k].append(dt * 2.0 * CALIBRATION_REF_S / (cal + cal_after))
            run["raw"].append(dt)
            cal = cal_after
            pass_time += dt
            pass_ops += wl.ops_per_call
            if problems:
                pass_failed += wl.ops_per_call
                run["problems"].extend(f"pass {index} call {k}: {p}" for p in problems)
        info = {"ops": pass_ops, "seconds": pass_time}
        if tracer is not None:
            tracer.collect_children()
            cpu1 = resource.getrusage(resource.RUSAGE_CHILDREN)
            info["child_cpu_s"] = (cpu1.ru_utime + cpu1.ru_stime
                                   - cpu0.ru_utime - cpu0.ru_stime)
            info["counts"] = count_metrics(tracer, mark, counts, outer)
            info["run_wall_s"] = run_wall(tracer, mark)
            first = run["passes"][0]["counts"] if run["passes"] else info["counts"]
            if info["counts"] != first:
                pass_failed = pass_ops
                diff = sorted(key for key in first if first[key] != info["counts"].get(key))
                run["problems"].append(f"pass {index}: counts differ from pass 0: {diff}")
        run["passes"].append(info)
        run["ops_per_pass"] = pass_ops
        run["ops"] += pass_ops
        run["failed"] += pass_failed
        last = time.perf_counter() - pass_start
    return run


def _input_times(run):
    """Per input of the pass: the median of its scaled call times."""
    return [statistics.median(times) for times in run["scaled"]]


def _ops_per_s(run):
    """Ops of one pass over the sum of its inputs' scaled call times."""
    return run["ops_per_pass"] / sum(_input_times(run))


def _end_to_end(args, wl, run):
    import resource
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "ops_per_s": {"value": _ops_per_s(run), "unit": "ops/s"},
        "call_p50_ms": {"value": 1e3 * statistics.median(_input_times(run)), "unit": "ms"},
        "setup_s": {"value": _setup_time(args), "unit": "s"},
        "peak_rss_mb": {"value": (self_kb + child_kb) / 1024.0, "unit": "MB"},
    }
    scaled = [t for times in run["scaled"] for t in times]
    extras = {"failed_fraction": {"value": run["failed"] / run["ops"], "unit": "ratio"},
              "passes": {"value": len(run["passes"]), "unit": "count"},
              "unscaled_ops_per_s": {"value": run["ops"] / sum(run["raw"]), "unit": "ops/s"},
              "unscaled_call_p50_ms": {"value": 1e3 * statistics.median(run["raw"]),
                                       "unit": "ms"}}
    if len(scaled) >= 1000:
        extras["call_p99_ms"] = {"value": 1e3 * statistics.quantiles(scaled, n=100)[98],
                                 "unit": "ms", "samples": len(scaled)}
    if not run["failed"]:
        extras.update(wl.extras(run["results"]))
    return metrics, extras


def _per_layer(wl, traced, plain, tracer):
    from tracing import layer_metrics
    metrics = layer_metrics(tracer, traced["passes"], wl.pool_workers)
    metrics["trace.overhead_ratio"] = {
        "value": _ops_per_s(plain) / _ops_per_s(traced) - 1.0, "unit": "ratio"}
    return metrics


def _run_workload(args):
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)} or all")
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, str(workdir), _traced_workers(args))
        reference = _load_reference().get(wl.name)
        wl.prepare(0)
        wl.call()
        if args.setup_probe:
            print(f"ready {time.time():.6f}")
            return 0
        meta = _meta(args, wl)
        if args.trace:
            from tracing import Tracer
            tracer = Tracer(workdir)
            with tracer.installed():
                traced = _measure(wl, args.seconds / 2, reference, tracer)
            plain = _measure(wl, args.seconds / 2, reference)
            metrics = _per_layer(wl, traced, plain, tracer)
            extras = {}
            runs = (traced, plain)
            OUT_DIR.mkdir(exist_ok=True)
            tracer.save(OUT_DIR / f"spans-{wl.name}.npz")
        else:
            run = _measure(wl, args.seconds, reference)
            metrics, extras = _end_to_end(args, wl, run)
            runs = (run,)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(r["ops"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    problems = [p for r in runs for p in r["problems"]]
    record = {"meta": meta, "metrics": metrics, "extras": extras,
              "attempted": attempted, "failed": failed, "problems": problems[:50],
              "passes": [r["passes"] for r in runs]}
    (OUT_DIR / f"result-{wl.name}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))
    print("meta: " + json.dumps(meta, default=str))
    for p in problems[:20]:
        print(f"FAILED {p}")
    for name, m in {**metrics, **extras}.items():
        n = f" (n={m['samples']})" if "samples" in m else ""
        print(f"{wl.name} {name}: {m['value']:.6g} {m['unit']}{n}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                                  for k, m in metrics.items()}}))
    return 1 if failed else 0


def _traced_workers(args):
    """Pool size for the pool workload.  Spans reach the parent only from
    forked workers, so a traced run on another start method uses one."""
    import multiprocessing
    if args.trace and multiprocessing.get_start_method() != "fork":
        print("note: traced run uses -j 1, pool workers would not be traced")
        return 1
    return _nproc()


def _run_all(args):
    from workloads import WORKLOADS
    worst = 0
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              timeout=900)
        worst = max(worst, proc.returncode)
    return worst


def _freeze_reference(args):
    from workloads import WORKLOADS
    reference = {}
    for name, cls in WORKLOADS.items():
        workdir = OUT_DIR / f"freeze-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            wl = cls(DEFAULT_SEED, str(workdir), _nproc())
            results, problems = [], []
            for j in range(wl.calls_per_pass):
                wl.prepare(j)
                results.append(wl.result(wl.call()))
                problems += wl.check(results[-1], None)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if problems:
            sys.exit(f"error: {name} fails its invariants, not freezing: {problems[:5]}")
        reference[name] = wl.freeze(results)
    REFERENCE.write_text(json.dumps(reference, separators=(",", ":")) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


def main(argv=None):
    args = _parse_args(argv)
    _import_package()
    if args.freeze_reference:
        return _freeze_reference(args)
    if args.workload == "all":
        return _run_all(args)
    return _run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
