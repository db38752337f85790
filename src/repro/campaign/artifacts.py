"""Atomic artifact writes.

Campaign status files are rewritten while workers run, benchmark JSON is
rewritten by every CI job, and any of those writers can be interrupted
(or raced by a parallel run on the same checkout).  A reader must never
see a torn file, so every artifact in this repo goes through these
helpers: the bytes land in a temp file in the destination directory,
then one ``os.replace`` makes them visible -- which POSIX guarantees is
atomic within a filesystem.
"""

from __future__ import annotations

import json
import os
import tempfile


def write_bytes_atomic(path: str | os.PathLike, data: bytes) -> None:
    """Atomically replace ``path``'s contents with ``data``."""
    path = os.fspath(path)
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        prefix="." + os.path.basename(path) + ".", suffix=".tmp", dir=parent)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_text_atomic(path: str | os.PathLike, text: str) -> None:
    write_bytes_atomic(path, text.encode())


def write_json_atomic(
    path: str | os.PathLike,
    obj: object,
    indent: int | None = 2,
    sort_keys: bool = False,
) -> None:
    """Atomically write ``obj`` as JSON with a trailing newline."""
    write_text_atomic(
        path, json.dumps(obj, indent=indent, sort_keys=sort_keys) + "\n")
