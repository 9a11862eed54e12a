#!/usr/bin/env python3
"""B-spline basis walkthrough: knot grids, partition of unity, derivatives.

Every edge function in this library rides on a uniform B-spline basis. This
script builds a few grids, shows the local support and partition-of-unity
structure, and cross-checks the analytic derivative against finite
differences. Curves land in demos/out/ as CSV for external plotting.
"""

import os

import numpy as np

from kafcm.atomic_io import write_csv
from kafcm.spline_core import basis_matrix, basis_derivative_matrix, make_uniform_grid

OUT = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT, exist_ok=True)

# A degree-3 grid with G=5 intervals on [-1, 1] carries G + p = 8 basis
# functions, each supported on at most p + 1 = 4 adjacent intervals.
grid = make_uniform_grid(-1.0, 1.0, 5, 3)
print(f"grid: [-1, 1], G={grid.grid_size}, degree={grid.degree}")
print(f"basis functions: {grid.basis_count}")
print(f"knots: {np.array2string(grid.knots, precision=2)}")

xs = np.linspace(-1.0, 1.0, 401)
B = basis_matrix(grid, xs)
print(f"\nbasis matrix shape: {B.shape} (points x functions)")

# Partition of unity: at every point of the domain the basis values sum to 1.
sums = B.sum(axis=1)
print(f"partition of unity: max |sum - 1| = {np.abs(sums - 1).max():.2e}")

# Local support: count how many functions are nonzero at each point. For an
# interior point of a degree-p grid that is exactly p + 1 (fewer exactly on
# the domain endpoints).
active = (B > 0).sum(axis=1)
print(f"active functions per point: min {active.min()}, max {active.max()}")

# Analytic derivatives vs central differences at interior points.
h = 1e-6
interior = xs[(xs > -1 + h) & (xs < 1 - h)]
D = basis_derivative_matrix(grid, interior)
fd = (basis_matrix(grid, interior + h) - basis_matrix(grid, interior - h)) / (2 * h)
print(f"derivative vs finite differences: max abs gap = {np.abs(D - fd).max():.2e}")

# Degree 0 is the step-function edge case: exactly one active function.
coarse = make_uniform_grid(0.0, 1.0, 4, 0)
B0 = basis_matrix(coarse, np.linspace(0.01, 0.99, 99))
print(f"\ndegree-0 grid: every point has {int((B0 > 0).sum(axis=1).max())} active function")

path = os.path.join(OUT, "spline_basis.csv")
write_csv(path, ["x"] + [f"B_{k}" for k in range(grid.basis_count)], np.column_stack([xs, B]).tolist())
print(f"\nwrote {path}")
