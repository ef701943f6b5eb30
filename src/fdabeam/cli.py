"""Command line front end.

Six subcommands: solve-power, solve-rate and optimize-offsets act on a
single scenario config; sweep-power, sweep-rate and convergence run the
Monte Carlo harness.  All outputs land in --output (or $FDABEAM_OUTPUT_DIR,
or the working directory).  Exit codes: 0 success, 1 usage, config or
numeric error (printed as ``error: ...``), 2 infeasible single solve.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import os
import sys
from functools import partial
from pathlib import Path

import numpy as np

from .beamforming import PowerBudget, SecrecyTarget, max_rate_beamformer, min_power_beamformer
from .config import (
    ConfigError,
    format_dbm,
    format_mhz,
    load_experiment_config,
    load_scenario_config,
)
from .coupling import g_value, optimize_offsets
from .experiments import (
    linear_fda_plan,
    run_convergence_study,
    run_power_sweep,
    run_rate_sweep,
    write_convergence_csv,
    write_sweep_csv,
    write_trace_csv,
)
from .scenario import channel_pair

OUTPUT_DIR_ENV = "FDABEAM_OUTPUT_DIR"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _resolve_output(args: argparse.Namespace) -> Path:
    path = Path(args.output or os.environ.get(OUTPUT_DIR_ENV) or ".")
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_solution_csv(path: Path, offsets: np.ndarray, w: np.ndarray | None) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["element", "offset_hz", "w_real", "w_imag"])
        for i, off in enumerate(offsets):
            if w is None:
                writer.writerow([i, f"{off:.17g}", "", ""])
            else:
                writer.writerow([i, f"{off:.17g}", f"{w[i].real:.17g}",
                                 f"{w[i].imag:.17g}"])


def _plot_script(csv_name: str, xlabel: str, ylabel: str, logy: bool) -> str:
    yscale = 'ax.set_yscale("log")\n' if logy else ""
    return (
        '"""Plot a sweep CSV produced by fdabeam."""\n'
        "import csv\n"
        "from collections import defaultdict\n\n"
        "import matplotlib.pyplot as plt\n\n"
        "series = defaultdict(list)\n"
        f'with open("{csv_name}") as fh:\n'
        "    for row in csv.DictReader(fh):\n"
        '        series[row["scheme"]].append((float(row["axis"]),\n'
        '                                      float(row["mean_metric"])))\n'
        "fig, ax = plt.subplots()\n"
        "for scheme, pts in sorted(series.items()):\n"
        "    pts.sort()\n"
        '    ax.plot([p[0] for p in pts], [p[1] for p in pts], marker="o",\n'
        "            label=scheme)\n"
        f'ax.set_xlabel("{xlabel}")\n'
        f'ax.set_ylabel("{ylabel}")\n'
        f"{yscale}"
        "ax.legend()\n"
        "ax.grid(True, which=\"both\", alpha=0.3)\n"
        f'fig.savefig("{csv_name.removesuffix(".csv")}.png", dpi=150)\n'
    )


def _load_and_descend(args: argparse.Namespace, required: str | None = None):
    """Load the scenario config, check that ``solver.<required>`` is set, and
    run the offset descent; returns (scenario, options, plan, trace)."""
    scenario, opts = load_scenario_config(args.config, args.overrides)
    if required is not None and getattr(opts, required) is None:
        raise ConfigError(f"solver.{required} is required for {args.command}")
    initial = None
    if opts.initialization == "linear":
        initial = linear_fda_plan(scenario.array.element_count, scenario.rf.max_offset)
    plan, trace = optimize_offsets(scenario, initial=initial, tol=opts.tolerance,
                                   max_outer=opts.max_outer)
    return scenario, opts, plan, trace


def _cmd_solve_power(args: argparse.Namespace, out: Path) -> int:
    scenario, opts, plan, trace = _load_and_descend(args, "target_rate")
    pair = channel_pair(scenario, plan, opts.time)
    sol = min_power_beamformer(pair, SecrecyTarget(opts.target_rate))
    write_trace_csv(trace.objective_history, out / "trace.csv")
    if not sol.feasible:
        print(f"secrecy target infeasible (lambda1 = {sol.lambda1:.17g})",
              file=sys.stderr)
        return 2
    _write_solution_csv(out / "solution.csv", plan.offsets, sol.beamformer)
    print(f"offsets: {' '.join(format_mhz(o) for o in plan.offsets)}")
    print(f"transmit_power: {sol.power:.17g} W ({format_dbm(sol.power)})")
    print(f"secrecy_rate_target: {opts.target_rate:.17g} bits")
    print(f"lambda1: {sol.lambda1:.17g}")
    print(f"coupling: {g_value(scenario, plan):.17g}")
    print(f"outer_iterations: {trace.outer_iterations}")
    print(f"converged: {trace.converged}")
    print(f"wrote: {out / 'solution.csv'}")
    return 0


def _cmd_solve_rate(args: argparse.Namespace, out: Path) -> int:
    scenario, opts, plan, trace = _load_and_descend(args, "power_budget")
    pair = channel_pair(scenario, plan, opts.time)
    sol = max_rate_beamformer(pair, PowerBudget(opts.power_budget))
    write_trace_csv(trace.objective_history, out / "trace.csv")
    _write_solution_csv(out / "solution.csv", plan.offsets, sol.beamformer)
    print(f"offsets: {' '.join(format_mhz(o) for o in plan.offsets)}")
    print(f"power_budget: {opts.power_budget:.17g} W ({format_dbm(opts.power_budget)})")
    print(f"secrecy_rate: {sol.rate:.17g} bits")
    print(f"lambda_delta: {sol.lambda_delta:.17g}")
    print(f"outer_iterations: {trace.outer_iterations}")
    print(f"wrote: {out / 'solution.csv'}")
    return 0


def _cmd_optimize_offsets(args: argparse.Namespace, out: Path) -> int:
    scenario, _, plan, trace = _load_and_descend(args)
    write_trace_csv(trace.objective_history, out / "trace.csv")
    _write_solution_csv(out / "offsets.csv", plan.offsets, None)
    print(f"offsets: {' '.join(format_mhz(o) for o in plan.offsets)}")
    print(f"coupling: {g_value(scenario, plan):.17g}")
    print(f"outer_iterations: {trace.outer_iterations}")
    print(f"converged: {trace.converged}")
    print(f"wrote: {out / 'offsets.csv'}")
    return 0


def _experiment_config(args: argparse.Namespace):
    config = load_experiment_config(args.config, args.overrides)
    if args.seed is not None:
        config = dataclasses.replace(config, rng_seed=args.seed)
    return config


def _workers(args: argparse.Namespace) -> int:
    if args.workers is not None:
        if args.workers < 1:
            raise ConfigError("--workers must be at least 1")
        return args.workers
    return os.cpu_count() or 1


def _cmd_sweep(args: argparse.Namespace, out: Path, which: str) -> int:
    config = _experiment_config(args)
    if which == "power":
        result = run_power_sweep(config, workers=_workers(args))
        name, xlabel, ylabel = "power_sweep.csv", "array elements", "mean power (W)"
    else:
        result = run_rate_sweep(config, workers=_workers(args))
        name, xlabel, ylabel = "rate_sweep.csv", "transmit power (W)", "mean secrecy rate (bits)"
    write_sweep_csv(result, out / name)
    for scheme, spread in result.time_spread.items():
        print(f"time_spread {scheme}: {spread:.17g}")
    print(f"wrote: {out / name}")
    if args.plot_script:
        script = out / f"plot_{name.removesuffix('.csv')}.py"
        script.write_text(_plot_script(name, xlabel, ylabel, logy=(which == "power")))
        print(f"wrote: {script}")
    return 0


def _cmd_convergence(args: argparse.Namespace, out: Path) -> int:
    config = _experiment_config(args)
    result = run_convergence_study(config, workers=_workers(args))
    write_convergence_csv(result, out / "convergence.csv")
    for n in result.antenna_counts:
        print(f"N={n}: median_outer_iterations={result.median_outer[n]:g}")
    print(f"wrote: {out / 'convergence.csv'}")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="fdabeam", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler in (
            ("solve-power", _cmd_solve_power),
            ("solve-rate", _cmd_solve_rate),
            ("optimize-offsets", _cmd_optimize_offsets),
            ("sweep-power", partial(_cmd_sweep, which="power")),
            ("sweep-rate", partial(_cmd_sweep, which="rate")),
            ("convergence", _cmd_convergence)):
        p = sub.add_parser(name)
        p.set_defaults(handler=handler)
        p.add_argument("--config", "-c", required=True, help="config file path")
        p.add_argument("--output", "-o", default=None,
                       help=f"output directory (default ${OUTPUT_DIR_ENV} or .)")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="SECTION.KEY=VALUE",
                       help="override a config entry; repeatable")
        if name in ("sweep-power", "sweep-rate", "convergence"):
            p.add_argument("--seed", type=int, help="override the experiment seed")
            p.add_argument("--workers", "-j", type=int,
                           help="worker processes (default: all cores)")
        if name.startswith("sweep-"):
            p.add_argument("--plot-script", action="store_true",
                           help="also emit a matplotlib script next to the CSV")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.handler(args, _resolve_output(args))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
