"""Corpus construction and classical baselines for cite-worthiness detection.

The package turns structured plain-text scientific papers into a cleaned,
paragraph-contextualized dataset of sentences labelled for whether they cite
an external source, and provides TF-IDF / logistic-regression baselines plus
evaluation tooling on top of it.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator, TextIO

__version__ = "0.1.0"

# Inverse L2 regularization strength of the logistic-regression baseline; it
# lives here so the CLI can show it without importing the model's numpy.
DEFAULT_C = 0.1151


@contextmanager
def atomic_write(path: str | Path) -> Iterator[TextIO]:
    """Open ``path`` for text writing so that it never holds a partial file.

    Writes go to a temporary file beside ``path``, which replaces ``path``
    when the block completes; on any failure the temporary file is removed
    and ``path`` is left as it was. An OSError with an error number but no
    file name, such as a full disk, is given ``path`` as its file name.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.errno is not None and exc.filename is None:
            exc.filename = str(path)
        raise


def to_json(value: object, indent: int | None = None) -> str:
    """The one JSON encoding of every output: keys sorted, text not escaped
    to ASCII, and a number that is not finite a ValueError."""
    return json.dumps(value, ensure_ascii=False, sort_keys=True, indent=indent, allow_nan=False)


def write_json(path: str | Path, values: Iterable[object], indent: int | None = None) -> None:
    """Write each value as ``to_json`` and a newline through ``atomic_write``;
    a number that is not finite is a ValueError naming the file."""
    with atomic_write(path) as fh:
        for value in values:
            try:
                text = to_json(value, indent)
            except ValueError as exc:
                raise ValueError(f"{path}: a number is not finite ({exc})") from exc
            fh.write(text + "\n")
