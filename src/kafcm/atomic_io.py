"""Atomic artifact writes: a reader sees the old file or the new one, never
a partial one.

Each writer fills a temporary file in the target's directory and renames it
over the target with os.replace, which is atomic on one filesystem. If the
writer raises (or is interrupted), the temporary file is removed and the
previous file stays as it was. Every CSV artifact is written by write_csv
and read back by read_csv.
"""

from __future__ import annotations

from contextlib import contextmanager
import json
from numbers import Integral
import os

__all__ = ["atomic_write", "csv_line", "read_csv", "write_csv", "write_json"]


@contextmanager
def atomic_write(path):
    """Text file handle whose contents replace `path` when the block exits
    without an exception. An OSError from creating the temporary file (say,
    a missing directory) is raised again naming `path`."""
    path = os.fspath(path)
    head, name = os.path.split(path)
    tmp = os.path.join(head, f".{name}.{os.urandom(4).hex()}.tmp")
    # O_EXCL never reuses a stranger's file; mode 0o666 under the umask gives
    # the permissions a plain open(path, "w") would
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as err:
        # the temporary name means nothing to the caller: name the target
        raise type(err)(err.errno, err.strerror, path) from err
    try:
        with os.fdopen(fd, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_json(payload, path) -> None:
    """Indented, key-sorted JSON plus a trailing newline, written atomically."""
    with atomic_write(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _field(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, float) or not isinstance(v, (int, Integral)):  # a float or int skips the slower ABC check
        return repr(float(v))
    return str(int(v))


def csv_line(row) -> str:
    """`row`'s fields joined by commas, newline included: a string as it is,
    an integer in decimal and any other value (a NumPy scalar too) as
    repr(float(v)), the shortest text that reads back to the same bits."""
    return ",".join(map(_field, row)) + "\n"


def write_csv(path, header, rows) -> None:
    """The csv_line of the column names in `header`, then one per row,
    written atomically."""
    with atomic_write(path) as fh:
        fh.write(csv_line(header))
        fh.writelines(map(csv_line, rows))


def read_csv(path, header) -> list[list[str]]:
    """The fields, as strings, of each row of a CSV whose first line names
    the columns in `header`. A last line without its newline is a row torn
    by an interrupted write and is dropped. Raises ValueError naming the
    file if the first line is not the header or a row has another width."""
    with open(path) as fh:
        *lines, _torn = fh.read().split("\n")
    head = csv_line(header)[:-1]
    if not lines or lines[0] != head:
        raise ValueError(f"{path}: unexpected header {lines[0] if lines else ''!r}, expected {head!r}")
    rows = [line.split(",") for line in lines[1:]]
    for n, row in enumerate(rows, 2):
        if len(row) != len(header):
            raise ValueError(f"{path}: the header names {len(header)} columns, the rows hold {len(row)} (line {n})")
    return rows
