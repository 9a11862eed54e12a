"""Smoke test: the spline, edge-function and scaling demos run to completion.

The first two call basis_matrix and basis_derivative_matrix directly and
print their own cross-checks; the scaling demo runs simulate on dense maps of
8 to 64 nodes. Their CSV output goes to demos/out/, which git ignores.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", ["01_spline_basics.py", "02_edge_functions.py", "07_scaling_benchmark.py"])
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
