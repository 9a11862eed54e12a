#!/usr/bin/env python3
"""Experiment: learning the inverted-U arousal-performance law.

A two-node map (arousal -> performance) is trained three ways on the same
noisy samples: edge functions by gradient descent, a scalar-weight map by
particle swarm, and a two-hidden-layer MLP by gradient descent. A single
scalar weight cannot bend, so the standard map plateaus around the variance
of the target while both function learners drive the error to the noise
floor. Scores are against the noise-free law.
"""

import os

import numpy as np

from kafcm.cli_harness import build_dataset, canonical_config, run_pipeline, split_for
from kafcm.metrics_eval import upsert_comparison_row
from kafcm.symbolic import curve_to_csv, sample_edge

OUT = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT, exist_ok=True)

base = canonical_config("yerkes")
print(
    f"dataset: n={base.dataset['n']} arousal samples, noise sd {base.dataset['noise_sd']}; "
    f"best config G={base.grid_size}, eta={base.train.learning_rate}, "
    f"epochs={base.train.epochs}"
)
splits = split_for(base, build_dataset(base))

table = os.path.join(OUT, "yerkes_comparison.csv")

results = {}
for kind in ("kafcm", "fcm", "mlp"):
    cfg = canonical_config("yerkes", model=kind)
    results[kind] = run_pipeline(cfg, splits=splits)
    m = results[kind].metrics
    upsert_comparison_row(table, kind, m)
    print(f"  {kind:6s} test mse {m.mse:.3e}  max|err| {m.max_abs_error:.3f}")

gap = results["fcm"].metrics.mse / results["kafcm"].metrics.mse
print(f"\nedge functions beat scalar weights by {gap:.0f}x on this split")

# The learned arousal -> performance curve is itself the finding: sample it
# and write it next to the ground-truth law for plotting.
edge = results["kafcm"].model.edges[1][0]
curve = sample_edge(edge, 200, edge_id=(1, 0))
curve_to_csv(curve, os.path.join(OUT, "yerkes_learned_edge.csv"))
peak = curve.xs[np.argmax(curve.ys)]
print(f"learned curve peaks at arousal {peak:.3f} (true law peaks at 0)")
print(f"wrote {table} and {os.path.join(OUT, 'yerkes_learned_edge.csv')}")
