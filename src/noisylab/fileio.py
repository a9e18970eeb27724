"""Atomic file writes: temp file in the target directory, then rename."""

import json
import os
import tempfile


def atomic_write(path, write, binary=False):
    """Fill ``path`` through ``write(fh)``; a failure leaves neither the
    temp file nor a partial ``path``."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with (os.fdopen(fd, "wb") if binary
              else os.fdopen(fd, "w", encoding="utf-8")) as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text):
    atomic_write(path, lambda fh: fh.write(text))


def atomic_write_json(path, payload):
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def jsonl_line(record):
    return json.dumps(record, sort_keys=True)
