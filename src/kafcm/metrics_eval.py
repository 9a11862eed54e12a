"""Error metrics and report serialization.

MAPE follows the percentage convention 100/T * sum |(y - yhat)/y| and is
reported as None (undefined) whenever any target is exactly zero; the other
metrics are always defined. std_dev_error is the population (1/n) standard
deviation of the signed residuals.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
import os

import numpy as np

from .atomic_io import read_csv, write_csv, write_json

__all__ = [
    "MetricsReport",
    "compute_metrics",
    "save_metrics_json",
    "upsert_comparison_row",
]


@dataclass
class MetricsReport:
    mse: float
    mape_percent: float | None
    max_abs_error: float
    std_dev_error: float
    n: int


def compute_metrics(pred, target) -> MetricsReport:
    """Metrics over paired scalar sequences."""
    pred = np.asarray(pred, dtype=float).ravel()
    target = np.asarray(target, dtype=float).ravel()
    if pred.shape != target.shape:
        raise ValueError(f"length mismatch: pred {pred.shape} vs target {target.shape}")
    if pred.size == 0:
        raise ValueError("empty input")
    resid = pred - target
    mse = float(np.mean(resid**2))
    if (target == 0.0).any():
        mape = None
    else:
        mape = float(100.0 * np.mean(np.abs(resid / target)))
    return MetricsReport(
        mse=mse,
        mape_percent=mape,
        max_abs_error=float(np.max(np.abs(resid))),
        std_dev_error=float(np.std(resid)),
        n=int(pred.size),
    )


def save_metrics_json(report: MetricsReport, path, model_id: str = "", dataset_id: str = "") -> None:
    write_json({**asdict(report), "model_id": model_id, "dataset_id": dataset_id}, path)


COMPARISON_HEADER = ("model", "mse", "mape_percent", "max_abs_error", "std_dev_error", "n")


def upsert_comparison_row(path, model_name: str, report: MetricsReport) -> None:
    """Write one model's row into a comparison table, creating the header first.

    A model already in the table has its row replaced in place and a new
    model is appended, so evaluating the FCM, MLP, and KA-FCM in turn yields
    the usual three-row layout, and rerunning an evaluation leaves the table
    byte-identical. An undefined MAPE is an empty field.
    """
    mape = "" if report.mape_percent is None else report.mape_percent
    row = [model_name, report.mse, mape, report.max_abs_error, report.std_dev_error, report.n]
    rows = {r[0]: r for r in read_csv(path, COMPARISON_HEADER)} if os.path.exists(path) else {}
    rows[model_name] = row  # a dict keeps a replaced key in its place
    write_csv(path, COMPARISON_HEADER, rows.values())
