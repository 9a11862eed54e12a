#!/usr/bin/env python3
"""Hyperparameter sensitivity: sweeping grid size, learning rate, and epochs.

A reduced 3 x 2 x 2 sweep on the sin(3x) task is enough to see the published
pattern: validation error correlates negatively with both learning rate and
epoch count (more optimization helps), while grid size barely matters once
the basis is rich enough. Each cell trains from its own derived seed, so the
sweep is order-independent and safe to parallelize.
"""

import os
import time

from kafcm.cli_harness import build_dataset, canonical_config, make_grid_task, split_for
from kafcm.training import GridSearchSpace, grid_search, save_grid_csv, save_grid_summary

OUT = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT, exist_ok=True)

space = GridSearchSpace(
    grid_sizes=[4, 11, 19],
    learning_rates=[0.001, 0.1],
    epoch_values=[500, 1500],
)
cells = list(space.cells())
print(f"search space: {len(cells)} cells (3 grid sizes x 2 learning rates x 2 epoch counts)")

cfg = canonical_config("sine")
splits = split_for(cfg, build_dataset(cfg))

t0 = time.perf_counter()
report = grid_search(space, splits, make_grid_task(cfg), base_seed=cfg.seed)
print(f"swept in {time.perf_counter() - t0:.1f}s\n")

print(f"{'G':>4s}{'eta':>8s}{'epochs':>8s}{'val error':>12s}")
for row in sorted(report.rows, key=lambda r: r.val_error):
    print(f"{row.G:>4d}{row.eta:>8.3f}{row.epochs:>8d}{row.val_error:>12.3e}")

best = report.best
print(
    f"\nbest cell: G={best['G']}, eta={best['learning_rate']}, epochs={best['epochs']} "
    f"(val {best['val_error']:.3e})"
)
print("correlation of val error with:")
for key, value in report.correlations.items():
    print(f"  {key:14s}{value:+.3f}")

save_grid_csv(report.rows, os.path.join(OUT, "sine_grid.csv"))
save_grid_summary(report, os.path.join(OUT, "sine_grid_summary.json"))
print(f"\nwrote {os.path.join(OUT, 'sine_grid.csv')} and sine_grid_summary.json")
