#!/usr/bin/env python3
"""Step-cost scaling: how inference time grows with the number of nodes.

A dense N-node map evaluates N^2 edge functions per step, so the operation
count is quadratic in N. The measured exponent at small N comes out well
below 2 because the step is vectorized across edges and fixed call overhead
dominates; the table is the artifact, the exponent is context.
"""

import os

from kafcm.atomic_io import write_csv
from kafcm.cognitive_graph import scaling_benchmark

OUT = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT, exist_ok=True)

res = scaling_benchmark()

print(f"{'N':>6s}{'edges':>8s}{'mean step':>14s}")
for n, t in zip(res["sizes"], res["mean_step_seconds"]):
    print(f"{n:>6d}{n * n:>8d}{t * 1e6:>12.1f}us")

print(f"\nfitted log-log exponent: {res['fitted_exponent']:.2f}")
print("operation count per step is quadratic in N (N^2 edge evaluations)")

path = os.path.join(OUT, "scaling.csv")
write_csv(path, ("n_nodes", "mean_step_seconds"), zip(res["sizes"], res["mean_step_seconds"]))
print(f"wrote {path}")
