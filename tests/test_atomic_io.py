"""Tests for atomic artifact writes and the one CSV writer and reader."""

import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kafcm.atomic_io import atomic_write, csv_line, read_csv, write_csv, write_json
from kafcm.cli_harness import save_history_csv
from kafcm.cognitive_graph import Trajectory, trajectory_from_csv, trajectory_to_csv
from kafcm.datagen import Dataset, load_dataset, save_dataset
from kafcm.metrics_eval import COMPARISON_HEADER, MetricsReport, upsert_comparison_row
from kafcm.symbolic import EdgeCurve, curve_from_csv, curve_to_csv
from kafcm.training import GridRow, load_grid_rows, save_grid_csv


class Unprintable:
    def __float__(self):
        raise RuntimeError("writer failed mid-write")


# writers given a value that fails after part of the file is written
FAILING_WRITES = {
    "history-csv": lambda path: save_history_csv([0.5, 0.25, Unprintable()], path),
    "json": lambda path: write_json({"a": 1, "b": object()}, path),
}


@pytest.mark.parametrize("case", sorted(FAILING_WRITES))
def test_failed_write_keeps_previous_file(tmp_path, case):
    path = tmp_path / "artifact"
    path.write_text("previous contents\n")
    with pytest.raises((RuntimeError, TypeError)):
        FAILING_WRITES[case](path)
    assert path.read_text() == "previous contents\n"
    assert os.listdir(tmp_path) == ["artifact"]


def test_interrupted_write_leaves_no_file(tmp_path):
    path = tmp_path / "new.csv"
    with pytest.raises(KeyboardInterrupt):
        with atomic_write(path) as fh:
            fh.write("x,phi\n")
            raise KeyboardInterrupt
    assert os.listdir(tmp_path) == []


def test_bytes_and_mode_match_plain_write(tmp_path):
    payload = {"b": [1.0, 0.1], "a": {"z": None, "y": "text"}}
    plain = tmp_path / "plain.json"
    with open(plain, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    atomic = tmp_path / "atomic.json"
    write_json(payload, atomic)
    assert atomic.read_bytes() == plain.read_bytes()
    assert os.stat(atomic).st_mode == os.stat(plain).st_mode


class TestCsvFormat:
    def test_fields_by_type(self):
        row = ["kafcm", 3, np.int64(7), True, 0.1, np.float64(0.25), np.float32(0.5), -0.0, math.inf, math.nan]
        assert csv_line(row) == "kafcm,3,7,1,0.1,0.25,0.5,-0.0,inf,nan\n"

    def test_write_then_read(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ("a", "b"), [(1, 0.5), ("x", np.float64(2.0))])
        assert path.read_text() == "a,b\n1,0.5\nx,2.0\n"
        assert read_csv(path, ("a", "b")) == [["1", "0.5"], ["x", "2.0"]]

    def test_torn_last_row_dropped(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,2\n3,4")
        assert read_csv(path, ("a", "b")) == [["1", "2"]]

    @pytest.mark.parametrize("text", ["b,a\n1,2\n", "", "a,b"])
    def test_foreign_or_missing_header_rejected(self, tmp_path, text):
        path = tmp_path / "t.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="unexpected header"):
            read_csv(path, ("a", "b"))

    @pytest.mark.parametrize("row", ["1\n", "1,2,3\n", "\n"])
    def test_row_of_another_width_rejected(self, tmp_path, row):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,2\n" + row)
        with pytest.raises(ValueError, match="header names 2 columns, the rows hold .* [(]line 3[)]"):
            read_csv(path, ("a", "b"))

    def test_curve_reader_rejects_a_foreign_header(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text("x,y\n0.0,1.0\n")
        with pytest.raises(ValueError, match="unexpected header 'x,y'"):
            curve_from_csv(path)

    def test_grid_reader_rejects_a_foreign_header(self, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_text("G,eta,epochs,val_error\n4,0.1,10,0.5\n")
        with pytest.raises(ValueError, match="unexpected header 'G,eta,epochs,val_error'"):
            load_grid_rows(path)


# the writers' floats, their extremes and signed zero among them; NaN has
# one spelling, so it is drawn only where a reader must give back float("nan")
EXTREMES = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
FLOATS = st.sampled_from(EXTREMES) | st.floats(allow_nan=False)
FINITE = st.sampled_from(EXTREMES) | st.floats(allow_nan=False, allow_infinity=False)
ROUND_TRIP = settings(max_examples=60, deadline=None, derandomize=True)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def round_trip(write, read):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "artifact.csv")
        write(path)
        return read(path)


class TestRoundTrips:
    """Each writer followed by its reader gives back the same float bits."""

    @ROUND_TRIP
    @given(
        xs=st.lists(st.floats(-1e307, 1e307), min_size=1, max_size=8, unique=True).map(sorted),
        data=st.data(),
    )
    def test_curve(self, xs, data):
        xs = np.array(xs)
        xs[xs == 0] = data.draw(st.sampled_from([0.0, -0.0]))
        ys = np.array(data.draw(st.lists(FLOATS, min_size=len(xs), max_size=len(xs))))
        back = round_trip(lambda p: curve_to_csv(EdgeCurve(xs, ys), p), curve_from_csv)
        assert same_bits(back.xs, xs) and same_bits(back.ys, ys)

    @ROUND_TRIP
    @given(
        st.lists(
            st.builds(
                GridRow,
                st.integers(1, 40),
                FLOATS,
                st.integers(1, 10**6),
                FLOATS | st.just(math.nan),
                st.sampled_from(["ok", "failed"]),
            ),
            max_size=6,
        )
    )
    def test_grid(self, rows):
        back = round_trip(lambda p: save_grid_csv(rows, p), load_grid_rows)
        assert [(r.G, r.epochs, r.status) for r in back] == [(r.G, r.epochs, r.status) for r in rows]
        assert same_bits([r.eta for r in back], [r.eta for r in rows])
        for got, want in zip(back, rows):
            assert same_bits(got.val_error, want.val_error) or math.isnan(got.val_error) and math.isnan(want.val_error)

    @ROUND_TRIP
    @given(st.integers(1, 4).flatmap(lambda n: st.lists(st.lists(FLOATS, min_size=n, max_size=n), min_size=1, max_size=5)))
    def test_trajectory(self, states):
        states = np.array(states)
        back = round_trip(lambda p: trajectory_to_csv(Trajectory(states), p), trajectory_from_csv)
        assert same_bits(back.states, states)

    @ROUND_TRIP
    @given(st.integers(1, 3), st.integers(1, 2), st.data())
    def test_dataset(self, d_in, d_out, data):
        rows = np.array(data.draw(st.lists(st.lists(FINITE, min_size=d_in + d_out, max_size=d_in + d_out), max_size=5)))
        rows = rows.reshape(-1, d_in + d_out)
        back = round_trip(lambda p: save_dataset(Dataset(rows[:, :d_in], rows[:, d_in:], {"seed": 1}), p), load_dataset)
        assert same_bits(back.inputs, rows[:, :d_in]) and same_bits(back.targets, rows[:, d_in:])
        assert back.metadata == {"seed": 1}

    @ROUND_TRIP
    @given(st.builds(MetricsReport, FLOATS, FLOATS | st.none(), FLOATS, FLOATS, st.integers(1, 10**9)))
    def test_comparison(self, report):
        fields = round_trip(
            lambda p: upsert_comparison_row(p, "kafcm", report), lambda p: read_csv(p, COMPARISON_HEADER)
        )
        assert len(fields) == 1 and fields[0][0] == "kafcm" and int(fields[0][5]) == report.n
        assert (fields[0][2] == "") == (report.mape_percent is None)
        values = [report.mse, report.max_abs_error, report.std_dev_error]
        assert same_bits([float(fields[0][k]) for k in (1, 3, 4)], values)
        if report.mape_percent is not None:
            assert same_bits(float(fields[0][2]), report.mape_percent)
