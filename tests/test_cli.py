"""Config parsing and the command-line front end."""

import concurrent.futures
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fdabeam import cli, experiments
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
from fdabeam.coupling import g_value, optimize_offsets
from fdabeam.experiments import linear_fda_plan, run_power_sweep, run_rate_sweep

from fingerprint import BENCH_RATE_EXPERIMENT, GAIN_PRODUCT_EXPERIMENT, GAIN_PRODUCT_SETS
from helpers import pool_on_every_task_list

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


def _no_pool(max_workers, **pool_options):
    raise AssertionError(f"a pool of {max_workers} started")


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
    # Past the float range: a ValueError the config loader names, not
    # Python's unnamed float-power OverflowError.
    for text in ("4000 dBW", "4000 dBm", "3083 dBW"):
        with pytest.raises(ValueError, match=f"'{text}' is past the float range"):
            parse_power(text)
    assert parse_power("inf dBW") == math.inf
    assert parse_power("-inf dBm") == 0.0


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
    for text in ("1 W : inf W : 3", "0 W : 1 W : 3", "nan W : 1 W : 3", "-1 W : 1 W : 3"):
        with pytest.raises(ValueError, match="power grid ends must be finite and positive"):
            parse_power_grid(text)


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


def test_override_keys_match_file_keys_in_any_case(tmp_path):
    """configparser lowercases a file's keys, and ``--set`` keys the same
    way: a mixed-case override equals the lowercase one and replaces a
    mixed-case key of the file, for both loaders."""
    scenario = tmp_path / "scenario.ini"
    scenario.write_text(SCENARIO_INI.replace("max_offset =", "Max_Offset ="))
    lower = load_scenario_config(scenario, ("rf.max_offset=1 MHz",))
    mixed = load_scenario_config(scenario, ("rf.MAX_Offset=1 MHz",))
    assert mixed == lower
    assert mixed[0].rf.max_offset == 1e6
    experiment = tmp_path / "experiment.ini"
    experiment.write_text(EXPERIMENT_INI.replace("realizations =", "Realizations ="))
    lower = load_experiment_config(experiment, ("experiment.realizations=3",))
    mixed = load_experiment_config(experiment, ("experiment.Realizations=3",))
    assert mixed == lower
    assert mixed.realizations == 3
    assert load_experiment_config(experiment).realizations == 4


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


@pytest.mark.parametrize("key", ["carrier_frequency", "max_offset", "noise_power_bob",
                                 "noise_power_eve"])
def test_rf_requires_exactly_its_four_keys(tmp_path, key):
    """RfParams' derived fields (wavelength, coupling_prefactor) are neither
    required nor accepted as [rf] keys."""
    path = tmp_path / "scenario.ini"
    path.write_text("".join(line for line in SCENARIO_INI.splitlines(keepends=True)
                            if not line.startswith(key)))
    with pytest.raises(ConfigError) as info:
        load_scenario_config(path)
    assert str(info.value) == f"missing key {key!r} in section [rf]"


@pytest.mark.parametrize("section", ["bob", "eve"])
@pytest.mark.parametrize("key", ["range", "angle"])
def test_missing_renamed_key_is_named_by_its_ini_key(tmp_path, section, key):
    """``range`` and ``angle`` set ``range_m`` and ``angle_rad``; the error
    names the INI key."""
    lines = SCENARIO_INI.splitlines(keepends=True)
    start = lines.index(f"[{section}]\n")
    text = "".join(line for i, line in enumerate(lines)
                   if not (start < i <= start + 2 and line.startswith(key)))
    path = tmp_path / "scenario.ini"
    path.write_text(text)
    with pytest.raises(ConfigError) as info:
        load_scenario_config(path)
    assert str(info.value) == f"missing key {key!r} in section [{section}]"


@pytest.mark.parametrize("key", ["wavelength", "coupling_prefactor"])
def test_derived_rf_fields_are_unknown_keys(scenario_ini, key):
    with pytest.raises(ConfigError) as info:
        load_scenario_config(scenario_ini, (f"rf.{key}=1",))
    assert str(info.value) == f"unknown key {key!r} in section [rf]"


def test_bad_initialization(scenario_ini):
    with pytest.raises(ConfigError, match="initialization"):
        load_scenario_config(scenario_ini, ("solver.initialization=random",))


def test_malformed_override(scenario_ini):
    with pytest.raises(ConfigError, match="section.key=value"):
        load_scenario_config(scenario_ini, ("max_offset=1 MHz",))


@pytest.mark.parametrize("experiment, override, message", [
    (False, "rf.max_offset=3 MHz extra",
     "invalid value for rf.max_offset: cannot parse quantity '3 MHz extra'"),
    (False, "array.element_count=four",
     "invalid value for array.element_count: invalid literal for int() with base 10: 'four'"),
    (True, "experiment.time_samples=0", "experiment.time_samples must be at least 1"),
])
def test_config_errors_name_the_entry(scenario_ini, experiment_ini, experiment, override,
                                      message):
    load, path = ((load_experiment_config, experiment_ini) if experiment
                  else (load_scenario_config, scenario_ini))
    with pytest.raises(ConfigError) as info:
        load(path, (override,))
    assert str(info.value) == message


def test_missing_section_is_named(tmp_path):
    path = tmp_path / "no_rf.ini"
    path.write_text("[array]\nelement_count = 4\n")
    with pytest.raises(ConfigError) as info:
        load_scenario_config(path)
    assert str(info.value) == "missing section [rf]"


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


def test_infeasible_solve_power_rewrites_solution_csv(scenario_ini, tmp_path, capsys):
    """An infeasible solve writes its own offsets with empty beamformer
    columns over a feasible run's ``solution.csv``, never leaving it stale."""
    out = tmp_path / "out"
    assert main(["solve-power", "-c", str(scenario_ini), "-o", str(out)]) == 0
    capsys.readouterr()
    code = main(["solve-power", "-c", str(scenario_ini), "-o", str(out),
                 "--set", "bob.range=120 m", "--set", "bob.angle=100 deg"])
    assert code == 2
    assert "secrecy target infeasible (lambda1 = 0)\n" in capsys.readouterr().err
    scenario, _ = load_scenario_config(scenario_ini, ["bob.range=120 m", "bob.angle=100 deg"])
    plan, _ = optimize_offsets(scenario)
    rows = [r.split(",") for r in (out / "solution.csv").read_text().splitlines()]
    assert rows[0] == ["element", "offset_hz", "w_real", "w_imag"]
    assert [float(r[1]) for r in rows[1:]] == plan.offsets.tolist()
    assert [r[2:] for r in rows[1:]] == [["", ""]] * 4


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


@pytest.mark.parametrize("budget", ["-0 Hz", "0 Hz"])
def test_empty_offset_budget_prints_and_writes_plus_zero(scenario_ini, tmp_path, capsys,
                                                         budget):
    """An offset budget of -0 Hz is stored as +0.0: the offsets print as
    "0 MHz" and their cells read "0", as for a budget of 0 Hz."""
    out = tmp_path / "run"
    assert main(["optimize-offsets", "-c", str(scenario_ini), "-o", str(out),
                 "--set", f"rf.max_offset={budget}"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "offsets: " + " ".join(["0 MHz"] * 4)
    rows = (out / "offsets.csv").read_text().splitlines()[1:]
    assert [row.split(",")[1] for row in rows] == ["0"] * 4


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


def test_linear_initialization_starts_the_descent_from_the_linear_plan(
        scenario_ini, tmp_path, capsys):
    """``solver.initialization = linear`` prints and writes the offsets and
    coupling of a descent from ``linear_fda_plan``, bit for bit."""
    override = "solver.initialization=linear"
    scenario, _ = load_scenario_config(scenario_ini)
    plan, trace = optimize_offsets(scenario, initial=linear_fda_plan(
        scenario.array.element_count, scenario.rf.max_offset))
    assert not np.array_equal(plan.offsets, optimize_offsets(scenario)[0].offsets)
    out = tmp_path / "run"
    assert main(["optimize-offsets", "-c", str(scenario_ini), "-o", str(out),
                 "--set", override]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == [f"offsets: {' '.join(format_mhz(o) for o in plan.offsets)}",
                         f"coupling: {g_value(scenario, plan):.17g}",
                         f"outer_iterations: {trace.outer_iterations}"]
    rows = (out / "offsets.csv").read_text().splitlines()[1:]
    assert [float(r.split(",")[1]) for r in rows] == plan.offsets.tolist()


def test_seed_flag_is_the_last_override(experiment_ini, tmp_path):
    """``--seed`` beats ``--set experiment.seed`` and leaves nothing behind
    for the next call of the (cached) parser."""
    def sweep(name, *flags):
        assert main(["sweep-rate", "-c", str(experiment_ini), "-o", str(tmp_path / name),
                     "-j", "1", *flags]) == 0
        return (tmp_path / name / "rate_sweep.csv").read_bytes()

    seeded = sweep("seeded", "--set", "experiment.seed=5")
    assert sweep("flag_wins", "--set", "experiment.seed=99", "--seed", "5") == seeded
    assert sweep("flag_alone", "--seed", "99") != seeded
    # No --seed 99 left behind: without the flag the INI's seed, 3, applies.
    assert sweep("config") == sweep("config_seed", "--seed", "3")


@pytest.mark.parametrize("value", ["0", "-2", "abc", "1.5"])
def test_bad_worker_counts_are_usage_errors(experiment_ini, tmp_path, capsys, value):
    code = main(["sweep-power", "-c", str(experiment_ini), "-o", str(tmp_path / "o"),
                 "-j", value])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: argument --workers/-j: invalid positive_int value: '{value}'\n")
    assert not (tmp_path / "o").exists()


def test_workers_default_to_all_cores(experiment_ini):
    args = cli._build_parser().parse_args(["convergence", "-c", str(experiment_ini)])
    assert args.workers == experiments._usable_cpus() >= 1


def test_workers_follow_cpu_affinity(experiment_ini, tmp_path, monkeypatch):
    """Under a one-CPU affinity mask (``taskset -c 0``) the default is one
    worker and no pool starts, whatever ``os.cpu_count`` says, even where
    one task per worker would start one (as it does on two CPUs)."""
    pool_processes = pool_on_every_task_list(monkeypatch, tmp_path)
    real_pool = concurrent.futures.ProcessPoolExecutor
    monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_pool)
    cli._build_parser.cache_clear()
    try:
        args = cli._build_parser().parse_args(["sweep-rate", "-c", str(experiment_ini)])
        assert args.workers == 1
        for jobs in ([], ["-j", "2"]):
            assert main(["sweep-rate", "-c", str(experiment_ini),
                         "-o", str(tmp_path / "o"), *jobs]) == 0
    finally:
        cli._build_parser.cache_clear()  # the next test builds it unpatched
    assert not pool_processes()
    monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", real_pool)
    assert main(["sweep-rate", "-c", str(experiment_ini), "-o", str(tmp_path / "o"),
                 "-j", "2"]) == 0
    assert pool_processes()


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


@pytest.mark.parametrize("command", ["sweep-power", "sweep-rate", "convergence"])
def test_realizations_past_2_to_the_32_are_named(experiment_ini, tmp_path, capsys, command):
    """Rejected at config time by name, before a sweep builds its task list
    of that many entries."""
    code = main([command, "-c", str(experiment_ini), "-o", str(tmp_path / "o"), "-j", "1",
                 "--set", "experiment.realizations=4294967297"])
    assert code == 1
    assert capsys.readouterr().err == "error: realizations must be an integer from 1 to 2**32\n"
    assert not list(tmp_path.rglob("*.csv"))


@pytest.mark.parametrize("command, override", [
    ("solve-power", "solver.target_rate=2000"),     # 2^R overflows: lambda1 = nan
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
    ("solve-power", "solver.time=1e10 s"),          # past the phase precision bound
    ("solve-power", "solver.tolerance=nan"),
    ("solve-power", "solver.tolerance=-1"),
    ("optimize-offsets", "solver.max_outer=-3"),
    ("solve-power", "array.spacing=inf m"),
    ("solve-power", "array.first_element_x=nan m"),
    ("solve-rate", "solver.power_budget=4000 dBW"),  # 10^400 W: past the float range
    ("solve-rate", "rf.noise_power_bob=4000 dBm"),
    ("sweep-rate", "experiment.power_grid=-10 dBW : 4000 dBW : 3"),
    # Degenerate scales: a gain, K, a coefficient or a phase leaves the float range.
    ("sweep-power", "experiment.range_max=1e300 m"),
    ("solve-power", "bob.range=1e-300 m"),
    ("solve-power", "rf.noise_power_bob=1e-320 W"),
    ("solve-power", "rf.wave_speed=1e-300"),
    ("solve-power", "array.spacing=1e300 m"),
    ("solve-power", "array.first_element_x=1e300 m"),
    ("solve-power", "rf.carrier_frequency=1e-300 Hz"),
])
def test_bad_values_exit_1_without_traceback(scenario_ini, experiment_ini, tmp_path, capsys,
                                              command, override):
    """One ``error:`` line; a numpy warning would be an exception under this
    suite's warning filter."""
    sweep = command.startswith("sweep-")
    code = main([command, "-c", str(experiment_ini if sweep else scenario_ini),
                 "-o", str(tmp_path / "o"), "--set", override, *(["-j", "1"] if sweep else [])])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "Traceback" not in err
    assert err.count("\n") == 1 and "Warning" not in err


@pytest.mark.parametrize("command", ["solve-power", "solve-rate", "optimize-offsets",
                                     "sweep-power", "sweep-rate", "convergence"])
def test_channel_gain_product_past_the_float_range_is_one_error(scenario_ini, tmp_path,
                                                                capsys, command):
    """N = 1 with Bob 3e-150 m out and Eve at 20 m: each receiver's N times
    largest gain is finite and their product, which bounds B E and every
    coupling, is not.  Every command names that bound before any descent,
    where it would otherwise overflow or print an infinite coupling."""
    if command in ("sweep-power", "sweep-rate", "convergence"):
        ini = tmp_path / "experiment.ini"
        ini.write_text(GAIN_PRODUCT_EXPERIMENT)
        extra = ["-j", "1"]
    else:
        ini = scenario_ini
        extra = [arg for override in GAIN_PRODUCT_SETS for arg in ("--set", override)]
    code = main([command, "-c", str(ini), "-o", str(tmp_path / "o"), *extra])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: channel-gain product (N times bob's largest gain) (N times eve's "
        "largest gain) must be finite\n")
    assert not list(tmp_path.rglob("*.csv"))


@pytest.mark.parametrize("command", ["solve-power", "solve-rate", "optimize-offsets"])
@pytest.mark.parametrize("override, message", [
    ("solver.power_budget=nan W", "power budget must be finite and non-negative"),
    ("solver.power_budget=-1 W", "power budget must be finite and non-negative"),
    ("solver.target_rate=-3", "target rate must be finite and positive"),
    ("solver.target_rate=nan", "target rate must be finite and positive"),
    ("solver.time=1e9 s", "times must be finite and within ±{limit:.4g} s"),
])
def test_bad_solver_value_is_an_error_for_every_command(scenario_ini, tmp_path, capsys,
                                                        command, override, message):
    """A bad [solver] value fails every single-scenario command, also one
    that does not read it, with the message of the command that does
    (the time limit is about 3838 s where np.longdouble is x87 extended)."""
    rf = load_scenario_config(scenario_ini)[0].rf
    limit = 1e-6 / ((rf.carrier_frequency + rf.max_offset)
                    * float(np.finfo(np.longdouble).eps))
    code = main([command, "-c", str(scenario_ini), "-o", str(tmp_path / "o"),
                 "--set", override])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message.format(limit=limit)}\n"
    assert not list(tmp_path.rglob("*.csv"))


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
    "experiment.time_horizon=1e4 s",           # past the phase precision bound
    "experiment.power_grid=1e150 W, 1e160 W",  # lambda_delta = inf
    "experiment.power_grid=1e305 W",           # P B overflows
    "experiment.power_grid=1 W : inf W : 3",
    "experiment.time_samples=0",
    "experiment.baselines=",
    "experiment.baselines=proposed, proposed",
    # counts past the address space: numpy's allocation fails at once
    "experiment.power_grid=-10 dBW : 10 dBW : 1000000000000000",
    "experiment.time_samples=1000000000000000",
])
def test_non_finite_experiment_values_exit_1(experiment_ini, tmp_path, capsys, override):
    code = main(["sweep-rate", "-c", str(experiment_ini), "-o", str(tmp_path / "o"),
                 "-j", "1", "--set", override])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "Traceback" not in err
    assert err.count("\n") == 1
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


@pytest.mark.parametrize("command, section", [("solve-power", "solver"),
                                              ("sweep-power", "experiment")])
def test_targets_of_1024_bits_or_more_are_the_named_lambda1_error(
        scenario_ini, experiment_ini, tmp_path, capsys, command, section):
    """``2^R`` past a Python float is inf, so lambda1 is nan: one named line
    and no CSV, where Python's unnamed float-power error used to escape."""
    ini = scenario_ini if section == "solver" else experiment_ini
    code = main([command, "-c", str(ini), "-o", str(tmp_path / "o"),
                 "--set", f"{section}.target_rate=1100"])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: OverflowError: lambda1 is nan at a 1100-bit target\n")
    assert not list(tmp_path.rglob("*.csv"))


def test_solve_power_at_the_time_bound(scenario_ini, tmp_path, capsys):
    """At the largest accepted |t| the solve power stays within 1e-11 of its
    t = 0 value; one float step later the time is a named error."""
    rf = load_scenario_config(scenario_ini)[0].rf
    limit = 1e-6 / ((rf.carrier_frequency + rf.max_offset)
                    * float(np.finfo(np.longdouble).eps))

    def solve(t):
        code = main(["solve-power", "-c", str(scenario_ini), "-o", str(tmp_path / "o"),
                     "--set", f"solver.time={t!r} s"])
        out, err = capsys.readouterr()
        return code, out, err

    def power(out):
        return float(out.split("transmit_power: ")[1].split()[0])

    code, out, _ = solve(0.0)
    assert code == 0
    p0 = power(out)
    for t in (limit, -limit):
        code, out, _ = solve(t)
        assert code == 0
        assert abs(power(out) - p0) <= 1e-11 * p0
    code, _, err = solve(float(np.nextafter(limit, math.inf)))
    assert code == 1
    assert err == f"error: times must be finite and within ±{limit:.4g} s\n"


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


ON_ELEMENT_EXPERIMENT = """\
[experiment]
realizations = 3
antenna_counts = 1, 2
range_min = 0.06245676208333333 m
range_max = 0.06245676208333333 m
angle_min = 0 deg
angle_max = 0 deg
"""


@pytest.mark.parametrize("pool", [False, True])
def test_layout_on_an_element_is_one_error_before_any_descent(tmp_path, capsys,
                                                              monkeypatch, pool):
    """Bob drawn exactly half a wavelength out on the array axis sits on
    element 1, which N = 2 has and N = 1 does not.  ``sweep-power`` and
    ``convergence`` print the scenario's error, write no CSV and start no
    descent; ``sweep-rate`` (N = 1 only) runs.  With a pool allowed on every
    task list the rate sweep's descents run in the pool."""
    ini = tmp_path / "on_element.ini"
    ini.write_text(ON_ELEMENT_EXPERIMENT)
    jobs = "1"
    if pool:
        pool_processes = pool_on_every_task_list(monkeypatch, tmp_path)
        jobs = "2"
    for command in ("sweep-power", "convergence"):
        assert main([command, "-c", str(ini), "-o", str(tmp_path / command),
                     "-j", jobs]) == 1
        assert capsys.readouterr().err == "error: bob coincides with an array element\n"
    assert not list(tmp_path.rglob("*.csv"))
    if pool:
        assert not pool_processes()
    assert main(["sweep-rate", "-c", str(ini), "-o", str(tmp_path / "rate"),
                 "-j", jobs]) == 0
    assert (tmp_path / "rate" / "rate_sweep.csv").exists()
    if pool:
        assert pool_processes()


def test_workers_capped_by_tasks_and_cpus(experiment_ini, tmp_path, monkeypatch):
    """A pool starts only when each of two or more workers gets
    ``_TASKS_PER_WORKER`` tasks and a CPU, whatever ``-j`` asks for.  The
    stand-in pool maps serially, so no process starts."""
    pools = []

    class SerialPool:
        def __init__(self, max_workers, initializer, initargs):
            pools.append(max_workers)
            initializer(*initargs)  # as each worker does when it starts

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize):
            pools[-1] = (pools[-1], chunksize)
            return map(fn, tasks)

    def mapped(count, workers=10**6):
        tasks = list(range(-count, 0))
        assert experiments._map_tasks(abs, tasks, workers) == [-t for t in tasks]

    per = experiments._TASKS_PER_WORKER
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(experiments, "_worker_fn", None)  # the stand-in sets it here
    monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: {0, 1, 2},
                        raising=False)
    mapped(2 * per - 1)  # one worker's worth: in this process
    assert pools == []
    mapped(2 * per)
    assert pools == [(2, per // 4)]  # chunk = tasks // (4 * workers)
    # -j caps: two workers' worth of tasks per CPU, but -j 2 or -j 1.
    mapped(6 * per, workers=2)
    mapped(6 * per, workers=1)
    assert pools[1:] == [(2, 6 * per // 8)]
    # The affinity mask caps.
    mapped(10 * per)
    assert pools[2:] == [(3, 10 * per // 12)]
    # The config's sweep-rate has 4 tasks, one per realization: no pool.
    assert main(["sweep-rate", "-c", str(experiment_ini), "-o", str(tmp_path / "o"),
                 "-j", "1000000"]) == 0
    assert len(pools) == 3
    # Without an affinity mask the CPU count caps; an unknown count is one.
    monkeypatch.delattr(experiments.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 3)
    mapped(10 * per)
    assert pools[3:] == [(3, 10 * per // 12)]
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: None)
    mapped(10 * per)
    assert len(pools) == 4
    # -j 2 on two CPUs: two workers from two workers' worth of tasks on.
    monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    mapped(2 * per - 1, workers=2)
    mapped(2 * per, workers=2)
    assert pools[4:] == [(2, per // 4)]


def test_benchmark_sized_rate_sweep_runs_in_process(tmp_path, monkeypatch):
    """``sweep-rate`` at 100 realizations (perfbench's ``sweep_rate_cli``
    config) starts no pool at ``-j 2`` on two CPUs, and writes the bytes
    that ``-j 1`` writes."""
    ini = tmp_path / "rate.ini"
    ini.write_text(BENCH_RATE_EXPERIMENT)
    monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_pool)
    blobs = []
    for jobs in ("1", "2"):
        assert main(["sweep-rate", "-c", str(ini), "-o", str(tmp_path / jobs),
                     "-j", jobs]) == 0
        blobs.append((tmp_path / jobs / "rate_sweep.csv").read_bytes())
    assert blobs[0] == blobs[1]


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


def test_commands_never_import_numpy_random(scenario_ini, experiment_ini, tmp_path):
    """Every command, the sweeps at ``-j 1`` and a sweep too small for a
    pool at ``-j 2`` included, runs without loading ``numpy.random``, which
    would cost the process about 14 ms and 6 MB to import, or the process
    pool's modules, which only a sweep that starts a pool needs.  A fresh
    process, since any test may have imported them here."""
    runs = [[name, "-c", str(scenario_ini)]
            for name in ("solve-power", "solve-rate", "optimize-offsets")]
    runs += [[name, "-c", str(experiment_ini), "-j", "1"]
             for name in ("sweep-power", "sweep-rate", "convergence")]
    runs.append(["sweep-power", "-c", str(experiment_ini), "-j", "2"])
    modules = {"numpy.random", "concurrent.futures.process", "multiprocessing"}
    script = (
        "import sys\n"
        "from fdabeam.cli import main\n"
        f"codes = [main(argv + ['-o', {str(tmp_path / 'out')!r}]) for argv in {runs!r}]\n"
        f"print(codes, sorted({modules!r} & set(sys.modules)))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.dirname(os.path.dirname(cli.__file__)), env.get("PYTHONPATH"))
        if p)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0, 0, 0] []"


def test_parser_built_once_keeps_no_state(tmp_path, monkeypatch):
    """The parser is built once per process, and a call without ``--set``
    or ``--seed`` sees none from the call before it."""
    seen = []

    def record(args):
        seen.append((args.overrides, args.seed))
        raise ConfigError("recorded")

    monkeypatch.setattr(cli, "_experiment_config", record)
    config = tmp_path / "experiment.ini"
    config.write_text(EXPERIMENT_INI)
    command = ["sweep-power", "--config", str(config), "--output", str(tmp_path)]
    assert main(command + ["--set", "experiment.realizations=2", "--seed", "5"]) == 1
    assert main(command) == 1
    assert seen == [(["experiment.realizations=2"], 5), ([], None)]
    assert cli._build_parser() is cli._build_parser()


# ---------------------------------------------------------------------------
# output files: written over the old bytes and cut to length, never
# truncated to zero on open

_SWEEP = experiments.SweepResult(
    axis=np.array([1.0, 2.0]), schemes=("proposed", "mrt"),
    values={"proposed": np.array([[1.0, 2.0], [3.0, math.nan]]),
            "mrt": np.array([[0.5, 0.25], [math.nan, math.nan]])})
_CONVERGENCE = experiments.ConvergenceResult(
    antenna_counts=(2, 4), mean_history={2: np.array([3.0, 1.0]), 4: np.array([5.0, 2.0, 1.5])},
    outer_counts={})
WRITERS = {
    "sweep": lambda path: experiments.write_sweep_csv(_SWEEP, path),
    "convergence": lambda path: experiments.write_convergence_csv(_CONVERGENCE, path),
    "trace": lambda path: experiments.write_trace_csv([3.0, 2.0, 1.0], path),
    "solution": lambda path: cli._write_solution_csv(path, np.array([0.0, 1.5e6]),
                                                     np.array([1 + 2j, 3 - 4j])),
    "offsets": lambda path: cli._write_solution_csv(path, np.array([0.0, 1.5e6]), None),
}


@pytest.mark.parametrize("writer", WRITERS)
def test_rewritten_output_keeps_no_stale_tail(tmp_path, writer):
    """Written over a longer file, an output holds exactly the bytes that a
    fresh write gives."""
    WRITERS[writer](tmp_path / "fresh.csv")
    path = tmp_path / "old.csv"
    path.write_bytes(b"x" * 100_000)
    WRITERS[writer](path)
    assert path.read_bytes() == (tmp_path / "fresh.csv").read_bytes()


def test_rewritten_sweep_and_plot_script_keep_no_stale_tail(experiment_ini, tmp_path):
    """The same through the CLI for a sweep CSV and its plot script."""
    fresh, old = tmp_path / "fresh", tmp_path / "old"
    names = ("rate_sweep.csv", "plot_rate_sweep.py")
    old.mkdir()
    for name in names:
        (old / name).write_bytes(b"x" * 100_000)
    for out in (fresh, old):
        assert main(["sweep-rate", "-c", str(experiment_ini), "-o", str(out), "-j", "1",
                     "--plot-script"]) == 0
    for name in names:
        assert (old / name).read_bytes() == (fresh / name).read_bytes()


def test_outputs_are_opened_without_o_trunc(experiment_ini, tmp_path, monkeypatch):
    """Every writer, the plot script's included, opens its file through
    ``os.open`` without ``O_TRUNC``, new or existing: ext4 starts writeback
    of a file truncated to zero when it is closed, and the next truncation
    waits for it."""
    opened = []
    real_open = os.open

    def spy(path, flags, *args, **kwargs):
        opened.append((os.path.basename(path), flags))
        return real_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(experiments.os, "open", spy)
    for name, write in WRITERS.items():
        write(tmp_path / name)
        write(tmp_path / name)
    for _ in range(2):
        assert main(["sweep-rate", "-c", str(experiment_ini), "-o", str(tmp_path / "run"),
                     "-j", "1", "--plot-script"]) == 0
    names = [name for name, _ in opened]
    for name in [*WRITERS, "rate_sweep.csv", "plot_rate_sweep.py"]:
        assert names.count(name) == 2
    assert not [name for name, flags in opened if flags & os.O_TRUNC]


def test_new_output_gets_the_mode_of_open(tmp_path):
    """A new output is created with the mode ``open(path, "w")`` gives."""
    with open(tmp_path / "by_open", "w"):
        pass
    experiments.write_trace_csv([1.0], tmp_path / "trace.csv")
    assert (tmp_path / "trace.csv").stat().st_mode == (tmp_path / "by_open").stat().st_mode


def test_failed_formatting_leaves_the_previous_output(tmp_path):
    """Rows are formatted before the file is opened, so rows that raise
    part-way leave the previous output byte for byte."""
    path = tmp_path / "trace.csv"
    experiments.write_trace_csv([3.0, 2.0, 1.0], path)
    before = path.read_bytes()

    def history():
        yield 0.5
        raise RuntimeError("mid-way")

    with pytest.raises(RuntimeError, match="mid-way"):
        experiments.write_trace_csv(history(), path)
    assert path.read_bytes() == before


def test_linked_output_keeps_its_links(tmp_path):
    """A symlinked output writes the link's target and stays a link; a hard
    linked one keeps its inode, so every name reads the new bytes."""
    target = tmp_path / "target.csv"
    target.write_bytes(b"x" * 100_000)
    link = tmp_path / "trace.csv"
    link.symlink_to(target)
    hard = tmp_path / "hard.csv"
    os.link(target, hard)
    inode = target.stat().st_ino
    experiments.write_trace_csv([3.0, 2.0, 1.0], link)
    assert link.is_symlink()
    assert target.stat().st_ino == inode
    assert target.read_bytes() == hard.read_bytes() == b"iteration,g\r\n0,3\r\n1,2\r\n2,1\r\n"


def test_output_path_that_is_a_directory_exits_1(scenario_ini, tmp_path, capsys):
    out = tmp_path / "run"
    (out / "trace.csv").mkdir(parents=True)
    code = main(["solve-power", "-c", str(scenario_ini), "-o", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command, override, written", [
    ("solve-power", "solver.target_rate=-3", ["solution.csv", "trace.csv"]),
    ("solve-rate", "solver.target_rate=-3", ["solution.csv", "trace.csv"]),
    ("optimize-offsets", "solver.target_rate=-3", ["offsets.csv", "trace.csv"]),
    ("sweep-power", "experiment.seed=-3", ["power_sweep.csv"]),
    ("sweep-rate", "experiment.seed=-3", ["rate_sweep.csv"]),
    ("convergence", "experiment.seed=-3", ["convergence.csv"]),
])
def test_output_directory_is_made_once_the_config_loads(scenario_ini, experiment_ini,
                                                        tmp_path, capsys, command, override,
                                                        written):
    """A command that a config check refuses (exit 1) makes no output
    directory, not even its missing parents; one that runs makes them."""
    sweep = command in ("sweep-power", "sweep-rate", "convergence")
    args = ["-c", str(experiment_ini if sweep else scenario_ini),
            *(["-j", "1"] if sweep else [])]
    refused = tmp_path / "refused"
    assert main([command, *args, "-o", str(refused / "out"), "--set", override]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not refused.exists()
    made = tmp_path / "made" / "out"
    assert main([command, *args, "-o", str(made)]) == 0
    assert sorted(p.name for p in made.iterdir()) == written


def test_infeasible_solve_power_makes_its_directory_and_solution(scenario_ini, tmp_path,
                                                                 capsys):
    """An infeasible solve (exit 2) passed every config check: it makes the
    output directory and writes ``solution.csv`` and ``trace.csv`` there."""
    out = tmp_path / "new" / "out"
    code = main(["solve-power", "-c", str(scenario_ini), "-o", str(out),
                 "--set", "bob.range=120 m", "--set", "bob.angle=100 deg"])
    assert code == 2
    assert "infeasible" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["solution.csv", "trace.csv"]
