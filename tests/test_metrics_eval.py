"""Error metrics: values, conventions, and serialization."""

import json

import numpy as np
import pytest

from kafcm.metrics_eval import (
    MetricsReport,
    upsert_comparison_row,
    compute_metrics,
    save_metrics_json,
)


class TestComputeMetrics:
    def test_perfect_prediction(self):
        r = compute_metrics([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert r.mse == 0.0
        assert r.mape_percent == 0.0
        assert r.max_abs_error == 0.0
        assert r.std_dev_error == 0.0
        assert r.n == 3

    def test_hand_example(self):
        r = compute_metrics([1.0, 1.0], [1.0, 2.0])
        assert r.mse == pytest.approx(0.5)
        assert r.mape_percent == pytest.approx(25.0)
        assert r.max_abs_error == pytest.approx(1.0)
        assert r.std_dev_error == pytest.approx(0.5)

    def test_mape_undefined_on_zero_target(self):
        r = compute_metrics([1.0, 2.0], [0.0, 2.0])
        assert r.mape_percent is None
        assert r.mse == pytest.approx(0.5)
        assert r.max_abs_error == pytest.approx(1.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            compute_metrics([1.0], [1.0, 2.0])

    def test_empty(self):
        with pytest.raises(ValueError, match="empty"):
            compute_metrics([], [])

    def test_scale_behavior(self):
        rng = np.random.default_rng(0)
        target = rng.uniform(0.5, 2.0, 100)
        pred = target + rng.normal(0, 0.1, 100)
        base = compute_metrics(pred, target)
        c = 3.7
        scaled = compute_metrics(c * pred, c * target)
        assert scaled.mse == pytest.approx(c**2 * base.mse, rel=1e-12)
        assert scaled.max_abs_error == pytest.approx(c * base.max_abs_error, rel=1e-12)
        assert scaled.std_dev_error == pytest.approx(c * base.std_dev_error, rel=1e-12)
        assert scaled.mape_percent == pytest.approx(base.mape_percent, rel=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        target = rng.uniform(0.5, 2.0, 50)
        pred = target + rng.normal(0, 0.2, 50)
        perm = rng.permutation(50)
        a = compute_metrics(pred, target)
        b = compute_metrics(pred[perm], target[perm])
        assert a.mse == pytest.approx(b.mse, rel=1e-12)
        assert a.mape_percent == pytest.approx(b.mape_percent, rel=1e-12)
        assert a.max_abs_error == b.max_abs_error
        assert a.std_dev_error == pytest.approx(b.std_dev_error, rel=1e-12)

    def test_max_abs_squared_dominates_mse(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            pred = rng.normal(size=20)
            target = rng.normal(size=20)
            r = compute_metrics(pred, target)
            assert r.max_abs_error**2 >= r.mse


class TestSerialization:
    def test_json_fields(self, tmp_path):
        r = compute_metrics([1.0, 1.0], [1.0, 2.0])
        path = tmp_path / "m.json"
        save_metrics_json(r, path, model_id="kafcm-test", dataset_id="toy")
        data = json.loads(path.read_text())
        assert data["mse"] == 0.5
        assert data["mape_percent"] == 25.0
        assert data["n"] == 2
        assert data["model_id"] == "kafcm-test"
        assert data["dataset_id"] == "toy"

    def test_json_none_mape(self, tmp_path):
        r = compute_metrics([1.0], [0.0])
        path = tmp_path / "m.json"
        save_metrics_json(r, path)
        assert json.loads(path.read_text())["mape_percent"] is None

    def test_comparison_table(self, tmp_path):
        path = tmp_path / "table.csv"
        rows = {
            "fcm": MetricsReport(0.396, None, 0.9, 0.3, 200),
            "mlp": MetricsReport(1.18e-4, None, 0.025, 0.01, 200),
            "kafcm": MetricsReport(4.1e-5, None, 0.02, 0.006, 200),
        }
        for name, rep in rows.items():
            upsert_comparison_row(path, name, rep)
        lines = path.read_text().splitlines()
        assert lines[0] == "model,mse,mape_percent,max_abs_error,std_dev_error,n"
        assert len(lines) == 4
        assert lines[1].startswith("fcm,0.396,,")

    def test_comparison_row_replaced_in_place(self, tmp_path):
        path = tmp_path / "table.csv"
        for name in ("fcm", "mlp", "kafcm"):
            upsert_comparison_row(path, name, MetricsReport(0.5, None, 0.9, 0.3, 200))
        upsert_comparison_row(path, "mlp", MetricsReport(0.25, 12.5, 0.5, 0.1, 100))
        lines = path.read_text().splitlines()
        assert len(lines) == 4
        assert lines[2] == "mlp,0.25,12.5,0.5,0.1,100"
        assert [line.split(",")[0] for line in lines[1:]] == ["fcm", "mlp", "kafcm"]

    def test_numpy_scalars_write_the_bytes_of_python_numbers(self, tmp_path):
        python, numpy = tmp_path / "python.csv", tmp_path / "numpy.csv"
        for name, values in (("fcm", (0.25, 3.0, 0.5, 0.125, 200)), ("kafcm", (1e-10, None, 2e-5, 1e-5, 80))):
            upsert_comparison_row(python, name, MetricsReport(*values))
            as_numpy = [None if v is None else np.int64(v) if isinstance(v, int) else np.float64(v) for v in values]
            upsert_comparison_row(numpy, name, MetricsReport(*as_numpy))
        assert numpy.read_bytes() == python.read_bytes()
        assert python.read_text().splitlines()[1] == "fcm,0.25,3.0,0.5,0.125,200"

