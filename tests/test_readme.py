"""The README's Quick start and command-line sample run against the package
as it is."""

import math
import re
from pathlib import Path

from fdabeam.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_start_runs(capsys):
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    coupling, power, rate = (float(v) for v in capsys.readouterr().out.split())
    assert abs(rate - 10.0) <= 1e-9
    assert math.isfinite(power) and power > 0
    assert math.isfinite(coupling) and coupling >= 0


def test_readme_solve_power_sample(tmp_path, monkeypatch, capsys):
    """The README's ``solve-power`` sample, run on its INI block, prints
    exactly the lines the README shows."""
    text = README.read_text()
    ini = re.search(r"```ini\n(.*?)```", text, re.S).group(1)
    command, shown = re.search(r"```text\n\$ fdabeam (.*?)\n(.*?)```", text, re.S).groups()
    assert command.split() == ["solve-power", "--config", "scenario.ini", "--output", "out"]
    (tmp_path / "scenario.ini").write_text(ini)
    monkeypatch.chdir(tmp_path)
    assert main(command.split()) == 0
    assert capsys.readouterr().out.splitlines() == shown.splitlines()
