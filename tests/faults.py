"""A full disk for the output writers, injected as the ``open`` that
``citecorpus.atomic_write`` calls."""

from __future__ import annotations

import builtins
import errno
from pathlib import Path


class _HalfWrite:
    """A text file whose first write stores half of its text and then fails
    as a full disk does."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, text):
        self._fh.write(text[:len(text) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._fh.close()


def disk_full_on(name):
    """An ``open`` under which the temporary file of the output ``name`` fills
    up midway through its first write; every other file opens as usual.
    Install it with ``monkeypatch.setattr(citecorpus, "open", ..., raising=False)``."""
    def opener(path, *args, **kwargs):
        fh = builtins.open(path, *args, **kwargs)
        return _HalfWrite(fh) if Path(path).name.startswith(f".{name}.") else fh
    return opener
