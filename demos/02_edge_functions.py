#!/usr/bin/env python3
"""Edge functions: how a SiLU base plus a spline correction shapes a curve.

An edge maps one node's activation through w_base * b(x) + w_spline * S(x),
where b is SiLU (or identity) and S is the spline combination. The SiLU base
is deliberately non-monotonic: its dip below zero is what lets a single edge
represent inverted-U laws without any spline help at all.
"""

import os

import numpy as np

from kafcm.atomic_io import write_csv
from kafcm.edge_functions import EdgeFunction, edge_eval, init_edge, silu
from kafcm.spline_core import make_uniform_grid

OUT = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT, exist_ok=True)

# The SiLU minimum sits near x = -1.2785; below zero on (-inf, 0), above past 0.
xs = np.linspace(-4.0, 2.0, 601)
vals = silu(xs)
x_min = xs[np.argmin(vals)]
print(f"silu minimum near x = {x_min:.3f}, value {vals.min():.4f}")

grid = make_uniform_grid(-1.0, 1.0, 6, 3)

# Pure base edge: alpha = 0 leaves exactly w_base * silu(x).
base_only = EdgeFunction(w_base=1.5, w_spline=1.0, alpha=np.zeros(grid.basis_count), grid=grid)
check = np.abs(edge_eval(base_only, xs) - 1.5 * silu(xs)).max()
print(f"zero-alpha edge equals w_base * silu: max gap {check:.1e}")

# Linearity in the scale weights: doubling (w_base, w_spline) at fixed alpha
# doubles phi. Alpha itself multiplies w_spline, so it stays put here.
rng = np.random.default_rng(7)
edge = init_edge(grid, rng_seed=7)
doubled = EdgeFunction(2 * edge.w_base, 2 * edge.w_spline, edge.alpha, grid)
probe = rng.uniform(-1, 1, 100)
gap = np.abs(edge_eval(doubled, probe) - 2 * edge_eval(edge, probe)).max()
print(f"scale-weight linearity: max |phi_2w - 2 phi_w| = {gap:.1e}")

# Outside the grid domain the spline input is clamped, so the tails are flat
# in the spline part while the base keeps extrapolating.
inside = edge_eval(edge, 1.0)
outside = edge_eval(edge, 3.0)
spline_tail = outside - inside - edge.w_base * (silu(3.0) - silu(1.0))
print(f"clamped tail: spline contribution beyond the domain changes by {spline_tail:.1e}")

# Hand-shape an inverted U on the grid domain: least squares on the spline
# coefficients at fixed unit scale weights. This is the same geometry the
# full trainer discovers on the arousal-performance task.
from kafcm.spline_core import basis_matrix

dom = np.linspace(-1.0, 1.0, 201)
target = 1.0 - dom**2
B = basis_matrix(grid, dom)
design = np.column_stack([silu(dom), B])
coef, *_ = np.linalg.lstsq(design, target, rcond=None)
shaped = EdgeFunction(w_base=coef[0], w_spline=1.0, alpha=coef[1:], grid=grid)
resid = np.abs(edge_eval(shaped, dom) - target).max()
print(f"least-squares inverted-U fit: max residual {resid:.2e} on [-1, 1]")

path = os.path.join(OUT, "edge_shapes.csv")
rows = ([x, silu(x), edge_eval(edge, x), edge_eval(shaped, x)] for x in xs.tolist())
write_csv(path, ("x", "silu", "random_edge", "inverted_u"), rows)
print(f"wrote {path}")
