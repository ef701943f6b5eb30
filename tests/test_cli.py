"""Config parsing and the command-line front end."""

import math
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fdabeam import experiments
from fdabeam.cli import OUTPUT_DIR_ENV, main
from fdabeam.config import (
    ConfigError,
    format_dbm,
    format_mhz,
    load_experiment_config,
    load_scenario_config,
    parse_angle,
    parse_frequency,
    parse_int_list,
    parse_length,
    parse_names,
    parse_power,
    parse_power_grid,
    parse_time,
)
from fdabeam.experiments import run_power_sweep, run_rate_sweep

SCENARIO_INI = """\
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

EXPERIMENT_INI = """\
[experiment]
realizations = 4
seed = 3
antenna_counts = 2
target_rate = 10
power_grid = -10 dBW : 10 dBW : 5
baselines = bound, proposed, linear, phased, mrt
time_samples = 3
"""


@pytest.fixture
def scenario_ini(tmp_path):
    path = tmp_path / "scenario.ini"
    path.write_text(SCENARIO_INI)
    return path


@pytest.fixture
def experiment_ini(tmp_path):
    path = tmp_path / "experiment.ini"
    path.write_text(EXPERIMENT_INI)
    return path


# ---------------------------------------------------------------------------
# unit-suffixed value parsing


def test_parse_frequency():
    assert parse_frequency("2.4 GHz") == 2.4e9
    assert parse_frequency("3 MHz") == 3e6
    assert parse_frequency("250 kHz") == 250e3
    assert parse_frequency("100") == 100.0
    with pytest.raises(ValueError):
        parse_frequency("3 lightyears")


def test_parse_power():
    assert parse_power("-100 dBm") == 1e-13
    assert parse_power("0 dBW") == 1.0
    assert parse_power("5 mW") == 5e-3
    assert parse_power("2 W") == 2.0
    assert parse_power("0.25") == 0.25
    with pytest.raises(ValueError):
        parse_power("5 horses")


def test_parse_angle_length_time():
    assert_allclose(parse_angle("60 deg"), math.pi / 3, rtol=1e-15)
    assert parse_angle("1.2 rad") == 1.2
    assert parse_length("6.25 cm") == 0.0625
    assert parse_length("100 m") == 100.0
    assert_allclose(parse_time("10 us"), 1e-5, rtol=1e-15)
    assert parse_time("10 µs") == parse_time("10 us")
    assert_allclose(parse_time("3 ms"), 3e-3, rtol=1e-15)


def test_parse_lists():
    assert parse_int_list("2, 4, 6") == (2, 4, 6)
    assert parse_int_list("2 4 8") == (2, 4, 8)
    assert parse_names("bound, proposed ,mrt") == ("bound", "proposed", "mrt")


def test_parse_power_grid():
    grid = parse_power_grid("-10 dBW : 10 dBW : 5")
    assert_allclose(grid, [0.1, 10.0**-0.5, 1.0, 10.0**0.5, 10.0], rtol=1e-12)
    assert_allclose(parse_power_grid("0.5, 1 W, 2000 mW"), [0.5, 1.0, 2.0],
                    rtol=1e-15)
    with pytest.raises(ValueError):
        parse_power_grid("1 W : 2 W : 1")


def test_format_round_trips():
    for watts in (1e-13, 0.5, 13713.463394405579):
        assert_allclose(parse_power(format_dbm(watts)), watts, rtol=1e-12)
    assert format_dbm(0.0) == "-inf dBm"
    assert parse_power(format_dbm(0.0)) == 0.0
    for hz in (0.0, 1.5e6, 3e6):
        assert_allclose(parse_frequency(format_mhz(hz)), hz, atol=1e-9)


# ---------------------------------------------------------------------------
# config files


def test_load_scenario_config(scenario_ini):
    scenario, opts = load_scenario_config(scenario_ini)
    assert scenario.rf.carrier_frequency == 2.4e9
    assert scenario.rf.max_offset == 3e6
    assert scenario.rf.noise_power_bob == 1e-13
    assert scenario.array.element_count == 4
    # spacing defaults to half a wavelength
    assert_allclose(scenario.array.spacing, scenario.rf.wavelength / 2.0,
                    rtol=1e-15)
    assert scenario.bob.range_m == 100.0
    assert_allclose(scenario.eve.angle_rad, math.radians(100.0), rtol=1e-15)
    assert opts.target_rate == 5.0
    assert opts.power_budget == 1.0
    assert opts.tolerance == 1e-8
    assert opts.initialization == "zero"


def test_load_scenario_config_overrides(scenario_ini):
    scenario, opts = load_scenario_config(
        scenario_ini, ("rf.max_offset=1 MHz", "solver.initialization=linear"))
    assert scenario.rf.max_offset == 1e6
    assert opts.initialization == "linear"


def test_unknown_key_is_named(scenario_ini):
    with pytest.raises(ConfigError, match="'bandwidth'"):
        load_scenario_config(scenario_ini, ("rf.bandwidth=1 MHz",))
    with pytest.raises(ConfigError, match=r"\[rooftop\]"):
        load_scenario_config(scenario_ini, ("rooftop.height=3 m",))


def test_missing_required_key(tmp_path):
    path = tmp_path / "incomplete.ini"
    path.write_text("[rf]\ncarrier_frequency = 2.4 GHz\n")
    with pytest.raises(ConfigError, match="max_offset"):
        load_scenario_config(path)


def test_bad_initialization(scenario_ini):
    with pytest.raises(ConfigError, match="initialization"):
        load_scenario_config(scenario_ini, ("solver.initialization=random",))


def test_malformed_override(scenario_ini):
    with pytest.raises(ConfigError, match="section.key=value"):
        load_scenario_config(scenario_ini, ("max_offset=1 MHz",))


def test_load_experiment_config(experiment_ini):
    config = load_experiment_config(experiment_ini)
    assert config.realizations == 4
    assert config.rng_seed == 3
    assert config.antenna_counts == (2,)
    assert len(config.power_grid) == 5
    assert config.baselines == ("bound", "proposed", "linear", "phased", "mrt")
    assert len(config.time_samples) == 3
    assert config.time_samples[-1] == 20e-6


def test_experiment_config_unknown_key(experiment_ini):
    with pytest.raises(ConfigError, match="'realisations'"):
        load_experiment_config(experiment_ini, ("experiment.realisations=9",))


# ---------------------------------------------------------------------------
# CLI commands


def test_solve_power_writes_solution(scenario_ini, tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["solve-power", "-c", str(scenario_ini), "-o", str(out)])
    assert code == 0
    captured = capsys.readouterr()
    assert "transmit_power:" in captured.out
    assert "converged:" in captured.out
    rows = (out / "solution.csv").read_text().splitlines()
    assert rows[0] == "element,offset_hz,w_real,w_imag"
    assert len(rows) == 5
    offsets = [float(r.split(",")[1]) for r in rows[1:]]
    assert all(0.0 <= o <= 3e6 for o in offsets)
    w = np.array([complex(float(r.split(",")[2]), float(r.split(",")[3]))
                  for r in rows[1:]])
    # transmit power equals ||w||^2 as printed
    printed = float(captured.out.split("transmit_power: ")[1].split()[0])
    assert_allclose(float(np.vdot(w, w).real), printed, rtol=1e-12)
    assert (out / "trace.csv").exists()


def test_solve_power_infeasible_exit_code(tmp_path, capsys):
    ini = SCENARIO_INI.replace("range = 120 m", "range = 100 m").replace(
        "angle = 100 deg", "angle = 60 deg")
    path = tmp_path / "bad.ini"
    path.write_text(ini)
    code = main(["solve-power", "-c", str(path), "-o", str(tmp_path / "o")])
    assert code == 2
    assert "infeasible" in capsys.readouterr().err


def test_solve_power_requires_target(scenario_ini, tmp_path, capsys):
    ini = SCENARIO_INI.replace("target_rate = 5\n", "")
    path = tmp_path / "no_target.ini"
    path.write_text(ini)
    code = main(["solve-power", "-c", str(path), "-o", str(tmp_path / "o")])
    assert code == 1
    assert "target_rate" in capsys.readouterr().err


def test_solve_rate(scenario_ini, tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["solve-rate", "-c", str(scenario_ini), "-o", str(out)])
    assert code == 0
    captured = capsys.readouterr()
    rate = float(captured.out.split("secrecy_rate: ")[1].split()[0])
    assert rate > 0.0
    assert (out / "solution.csv").exists()


def test_solve_rate_zero_budget(scenario_ini, tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["solve-rate", "-c", str(scenario_ini), "-o", str(out),
                 "--set", "solver.power_budget=0 W"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert "power_budget: 0 W (-inf dBm)" in captured.out
    assert "secrecy_rate: 0 bits" in captured.out
    assert (out / "solution.csv").exists()


def test_optimize_offsets_command(scenario_ini, tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["optimize-offsets", "-c", str(scenario_ini), "-o", str(out)])
    assert code == 0
    assert "coupling:" in capsys.readouterr().out
    rows = (out / "offsets.csv").read_text().splitlines()
    assert rows[1].endswith(",,")  # no beamformer columns for this command
    trace = (out / "trace.csv").read_text().splitlines()
    assert trace[0] == "iteration,g"
    gs = [float(r.split(",")[1]) for r in trace[1:]]
    assert all(b <= a * (1 + 1e-12) for a, b in zip(gs, gs[1:]))


def test_sweep_power_deterministic_across_workers(experiment_ini, tmp_path):
    out1 = tmp_path / "w1"
    out2 = tmp_path / "w2"
    assert main(["sweep-power", "-c", str(experiment_ini), "-o", str(out1),
                 "--workers", "1"]) == 0
    assert main(["sweep-power", "-c", str(experiment_ini), "-o", str(out2),
                 "--workers", "2"]) == 0
    b1 = (out1 / "power_sweep.csv").read_bytes()
    b2 = (out2 / "power_sweep.csv").read_bytes()
    assert b1 == b2
    header = b1.decode().splitlines()[0]
    assert header == "axis,scheme,mean_metric,p05,p95,infeasible_fraction"


def test_sweep_rate_and_seed_override(experiment_ini, tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    out3 = tmp_path / "c"
    base = ["sweep-rate", "-c", str(experiment_ini), "--workers", "1"]
    assert main(base + ["-o", str(out1)]) == 0
    assert main(base + ["-o", str(out2), "--seed", "99"]) == 0
    assert main(base + ["-o", str(out3), "--seed", "3"]) == 0
    a = (out1 / "rate_sweep.csv").read_bytes()
    b = (out2 / "rate_sweep.csv").read_bytes()
    c = (out3 / "rate_sweep.csv").read_bytes()
    assert a != b  # a different seed draws different scenarios
    assert a == c  # --seed equal to the config seed changes nothing


def test_convergence_command(experiment_ini, tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["convergence", "-c", str(experiment_ini), "-o", str(out),
                 "--workers", "1"])
    assert code == 0
    assert "median_outer_iterations" in capsys.readouterr().out
    rows = (out / "convergence.csv").read_text().splitlines()
    assert rows[0] == "iteration,element_count,mean_g"


def test_plot_script_emission(experiment_ini, tmp_path):
    out = tmp_path / "run"
    code = main(["sweep-power", "-c", str(experiment_ini), "-o", str(out),
                 "--workers", "1", "--plot-script"])
    assert code == 0
    script = (out / "plot_power_sweep.py").read_text()
    assert "matplotlib" in script
    assert "power_sweep.csv" in script
    compile(script, "plot_power_sweep.py", "exec")  # must at least be valid


def test_output_env_var_and_flag_precedence(scenario_ini, tmp_path, monkeypatch):
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(env_dir))
    assert main(["optimize-offsets", "-c", str(scenario_ini)]) == 0
    assert (env_dir / "offsets.csv").exists()

    flag_dir = tmp_path / "from_flag"
    assert main(["optimize-offsets", "-c", str(scenario_ini),
                 "-o", str(flag_dir)]) == 0
    assert (flag_dir / "offsets.csv").exists()
    assert not (env_dir / "trace.csv").read_text() == ""  # env run kept intact


def test_cli_error_paths(tmp_path, capsys):
    assert main(["solve-power", "-c", str(tmp_path / "missing.ini"),
                 "-o", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["sweep-power"]) == 1  # --config is required
    assert "error:" in capsys.readouterr().err
    ini = tmp_path / "exp.ini"
    ini.write_text(EXPERIMENT_INI)
    assert main(["sweep-power", "-c", str(ini), "-o", str(tmp_path),
                 "--workers", "0"]) == 1
    assert "--workers" in capsys.readouterr().err


@pytest.mark.parametrize("command, flags", [
    ("solve-power", ["--seed", "5"]),
    ("solve-power", ["--workers", "0"]),
    ("solve-power", ["--plot-script"]),
    ("solve-rate", ["-j", "2"]),
    ("optimize-offsets", ["--seed", "1"]),
    ("convergence", ["--plot-script"]),
])
def test_sweep_only_flags_rejected_elsewhere(scenario_ini, experiment_ini, tmp_path,
                                             capsys, command, flags):
    """--seed and --workers belong to the Monte Carlo commands and
    --plot-script to the two sweeps; anywhere else they are usage errors."""
    ini = experiment_ini if command == "convergence" else scenario_ini
    code = main([command, "-c", str(ini), "-o", str(tmp_path / "o"), *flags])
    err = capsys.readouterr().err
    assert code == 1
    assert err == f"error: unrecognized arguments: {' '.join(flags)}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("args", [["--seed", "-1"], ["--set", "experiment.seed=-3"]])
def test_negative_seed_is_named(experiment_ini, tmp_path, capsys, args):
    """Rejected at config time by name, not by numpy inside a realization."""
    code = main(["sweep-power", "-c", str(experiment_ini), "-o", str(tmp_path / "o"),
                 "-j", "1", *args])
    assert code == 1
    assert capsys.readouterr().err == "error: rng_seed must be a non-negative integer\n"
    assert not list(tmp_path.rglob("*.csv"))


@pytest.mark.parametrize("command, override", [
    ("solve-power", "solver.target_rate=2000"),     # 2^R overflows
    ("solve-power", "solver.target_rate=500"),      # lambda1 = inf
    ("solve-power", "solver.target_rate=1023"),     # lambda1 = nan
    ("solve-power", "solver.target_rate=-1"),
    ("solve-power", "rf.max_offset=nan Hz"),
    ("solve-power", "bob.range=inf m"),
    ("solve-rate", "solver.power_budget=inf W"),
    ("solve-rate", "solver.power_budget=nan W"),
    ("solve-rate", "solver.power_budget=1e150 W"),  # lambda_delta = inf
    ("solve-power", "solver.time=inf s"),
    ("solve-rate", "solver.time=nan s"),
    ("solve-power", "solver.tolerance=nan"),
    ("solve-power", "solver.tolerance=-1"),
    ("optimize-offsets", "solver.max_outer=-3"),
    ("solve-power", "array.spacing=inf m"),
    ("solve-power", "array.first_element_x=nan m"),
])
def test_bad_values_exit_1_without_traceback(scenario_ini, tmp_path, capsys, command,
                                              override):
    code = main([command, "-c", str(scenario_ini), "-o", str(tmp_path / "o"),
                 "--set", override])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("command", ["solve-power", "sweep-rate"])
@pytest.mark.parametrize("text", [
    "[rf]\ncarrier_frequency = 2.4 GHz\ncarrier_frequency = 2 GHz\n",
    "[experiment]\nseed = 1\n[experiment]\nseed = 2\n",
    "realizations = 4\n",
    "[experiment]\nbaselines = 5%\n",
], ids=["repeated-key", "repeated-section", "no-section-header", "bare-percent"])
def test_malformed_ini_exits_1(tmp_path, capsys, command, text):
    path = tmp_path / "bad.ini"
    path.write_text(text)
    code = main([command, "-c", str(path), "-o", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: cannot parse {path}") and "Traceback" not in err


@pytest.mark.parametrize("override", [
    "experiment.power_grid=1 W, nan W",
    "experiment.range_max=inf m",
    "experiment.angle_max=nan rad",
    "experiment.range_gap=nan m",
    "experiment.time_horizon=nan s",
    "experiment.time_horizon=inf s",
    "experiment.power_grid=1e150 W, 1e160 W",  # lambda_delta = inf
    "experiment.power_grid=1e305 W",           # P B overflows
])
def test_non_finite_experiment_values_exit_1(experiment_ini, tmp_path, capsys, override):
    code = main(["sweep-rate", "-c", str(experiment_ini), "-o", str(tmp_path / "o"),
                 "-j", "1", "--set", override])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "Traceback" not in err
    assert not list(tmp_path.rglob("*.csv"))


@pytest.mark.parametrize("workers", ["1", "2"])
def test_sweep_power_lambda1_overflow_exits_1(experiment_ini, tmp_path, capsys, workers):
    """Where 2^R E overflows lambda1, the sweep stops with the named error
    instead of reporting power 0 as feasible."""
    code = main(["sweep-power", "-c", str(experiment_ini), "-o", str(tmp_path / "o"),
                 "-j", workers, "--set", "experiment.target_rate=500"])
    err = capsys.readouterr().err
    assert code == 1
    assert err == "error: OverflowError: lambda1 is inf at a 500-bit target\n"
    assert not list(tmp_path.rglob("*.csv"))


def test_rate_overflow_is_one_error_for_solve_and_sweep(scenario_ini, experiment_ini,
                                                       tmp_path, capsys):
    """``solve-rate`` and ``sweep-rate`` at the same overflowing budget print
    the same line: both take it from ``lambda_delta_closed_form``."""
    solve = main(["solve-rate", "-c", str(scenario_ini), "-o", str(tmp_path / "s"),
                  "--set", "solver.power_budget=1e150 W"])
    solve_err = capsys.readouterr().err
    sweep = main(["sweep-rate", "-c", str(experiment_ini), "-o", str(tmp_path / "w"),
                  "-j", "1", "--set", "experiment.power_grid=1e150 W"])
    line = "error: OverflowError: lambda_delta is not finite at a 1e+150 W budget\n"
    assert (solve, sweep) == (1, 1)
    assert solve_err == capsys.readouterr().err == line
    assert not list(tmp_path.rglob("*.csv"))


def test_workers_capped_by_tasks_and_cpus(experiment_ini, tmp_path, monkeypatch):
    """A pool never gets more workers than tasks or CPUs, whatever ``-j``
    asks for.  The stand-in pool maps serially, so no process starts."""
    pools = []

    class SerialPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize):
            pools[-1] = (pools[-1], chunksize)
            return map(fn, tasks)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 3)
    assert experiments._map_tasks(abs, [-1, -2], 10**6) == [1, 2]
    assert experiments._map_tasks(abs, list(range(-40, 0)), 10**6) == list(range(40, 0, -1))
    assert pools == [(2, 1), (3, 3)]  # chunk = tasks // (4 * capped workers)
    # The config's sweep-rate has 4 tasks, one per realization.
    assert main(["sweep-rate", "-c", str(experiment_ini), "-o", str(tmp_path / "o"),
                 "-j", "1000000"]) == 0
    assert pools[2:] == [(3, 1)]
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: None)  # unknown: one
    assert experiments._map_tasks(abs, [-1, -2], 10**6) == [1, 2]
    assert len(pools) == 3


@pytest.mark.parametrize("overrides", [
    ("experiment.angle_max=200 deg",),
    ("experiment.angle_min=120 deg", "experiment.angle_max=60 deg"),
])
def test_bad_angle_interval_exits_1(experiment_ini, tmp_path, capsys, overrides):
    """Rejected by name before any draw, whatever the realization count."""
    sets = [arg for o in overrides for arg in ("--set", o)]
    code = main(["sweep-rate", "-c", str(experiment_ini), "-o", str(tmp_path / "o"),
                 "-j", "1", *sets])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: angle_interval") and "Traceback" not in err
    assert not list(tmp_path.rglob("*.csv"))


@pytest.mark.parametrize("command", ["sweep-power", "sweep-rate"])
def test_sweeps_print_time_spread(experiment_ini, tmp_path, capsys, command):
    out = tmp_path / "run"
    assert main([command, "-c", str(experiment_ini), "-o", str(out), "-j", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    config = load_experiment_config(experiment_ini)
    run = run_power_sweep if command == "sweep-power" else run_rate_sweep
    spread = run(config).time_spread
    assert spread  # both sweeps re-check at least the proposed design
    printed = [line for line in lines if line.startswith("time_spread ")]
    assert printed == [f"time_spread {s}: {v:.17g}" for s, v in spread.items()]
    assert lines[-1].startswith("wrote: ")


def test_config_file_not_mutated(scenario_ini, tmp_path):
    before = scenario_ini.read_bytes()
    main(["solve-power", "-c", str(scenario_ini), "-o", str(tmp_path / "x"),
          "--set", "solver.target_rate=2"])
    assert scenario_ini.read_bytes() == before


def test_module_entry_point(scenario_ini, tmp_path):
    """The installed package is runnable as a module in a fresh process."""
    proc = subprocess.run(
        [sys.executable, "-m", "fdabeam.cli", "optimize-offsets",
         "-c", str(scenario_ini), "-o", str(tmp_path / "sub")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "sub" / "offsets.csv").exists()
