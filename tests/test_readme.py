"""The README's Quick start runs against the package as it is."""

import math
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_start_runs(capsys):
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    coupling, power, rate = (float(v) for v in capsys.readouterr().out.split())
    assert abs(rate - 10.0) <= 1e-9
    assert math.isfinite(power) and power > 0
    assert math.isfinite(coupling) and coupling >= 0
