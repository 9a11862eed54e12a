"""Smoke test: every demo runs to completion.

The first two call basis_matrix and basis_derivative_matrix directly and
print their own cross-checks; 03 to 06 run the three experiments and a grid
search end to end and read trained edges through model.edges; the scaling
demo runs simulate on dense maps of 8 to 64 nodes. Their output goes to
demos/out/, which git ignores; every CSV a demo writes there is read back
through atomic_io.read_csv with its own header.
"""

import os
import pathlib
import subprocess
import sys
import time

import pytest

from kafcm.atomic_io import read_csv

ROOT = pathlib.Path(__file__).resolve().parent.parent
# each demo and the CSVs it writes under demos/out/
DEMOS = {
    "01_spline_basics.py": ["spline_basis.csv"],
    "02_edge_functions.py": ["edge_shapes.csv"],
    "03_yerkes_experiment.py": ["yerkes_comparison.csv", "yerkes_learned_edge.csv"],
    "04_sine_symbolic.py": [],
    "05_mackey_forecasting.py": ["mackey_forecast.csv"],
    "06_grid_search.py": ["sine_grid.csv"],
    "07_scaling_benchmark.py": ["scaling.csv"],
}


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_zero(demo):
    start = time.time()
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
    for name in DEMOS[demo]:
        path = ROOT / "demos" / "out" / name
        assert path.stat().st_mtime >= start - 1, f"{name} was not written"
        with open(path) as fh:
            header = fh.readline().rstrip("\n").split(",")
        assert read_csv(path, header), f"{name} holds no rows"
