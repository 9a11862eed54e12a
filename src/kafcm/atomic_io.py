"""Atomic artifact writes: a reader sees the old file or the new one, never
a partial one.

Each writer fills a temporary file in the target's directory and renames it
over the target with os.replace, which is atomic on one filesystem. If the
writer raises (or is interrupted), the temporary file is removed and the
previous file stays as it was.
"""

from __future__ import annotations

from contextlib import contextmanager
import json
import os

__all__ = ["atomic_write", "write_json"]


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
