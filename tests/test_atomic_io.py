"""Tests for atomic artifact writes."""

import json
import os

import pytest

from kafcm.atomic_io import atomic_write, write_json
from kafcm.cli_harness import save_history_csv


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
