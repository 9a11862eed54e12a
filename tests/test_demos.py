"""Smoke test: every demo runs to completion.

The first two call basis_matrix and basis_derivative_matrix directly and
print their own cross-checks; 03 to 06 run the three experiments and a grid
search end to end and read trained edges through model.edges; the scaling
demo runs simulate on dense maps of 8 to 64 nodes. Their output goes to
demos/out/, which git ignores.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = [
    "01_spline_basics.py",
    "02_edge_functions.py",
    "03_yerkes_experiment.py",
    "04_sine_symbolic.py",
    "05_mackey_forecasting.py",
    "06_grid_search.py",
    "07_scaling_benchmark.py",
]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_zero(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
