"""Corpus construction and classical baselines for cite-worthiness detection.

The package turns structured plain-text scientific papers into a cleaned,
paragraph-contextualized dataset of sentences labelled for whether they cite
an external source, and provides TF-IDF / logistic-regression baselines plus
evaluation tooling on top of it.

The root holds what every command shares: the sentence labels, the split
names, the input layer, the output encoding and the atomic writer. The
input layer is ``read_lines``, which reads every text file but the corpus;
``invalid_utf8``, the check by which it and the corpus parser refuse a byte
that is not UTF-8; and ``from_json``, the one JSON decoder. A decoded value
is never of a subclass, so every check of a number's or a bool's type
compares ``type(value)``, and a bool is never an int. A model command
imports the root, ``cli``, ``model`` and, to score, ``metrics``; only the
build-side commands, and ``model.read_table`` when a dataset has no valid
table cache, load ``pipeline``, ``ingest`` and ``textproc``.
"""

from __future__ import annotations

import json
import math
import os
import re
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

__version__ = "0.1.0"

# Inverse L2 regularization strength of the logistic-regression baseline; it
# lives here so the CLI can show it without importing the model's numpy.
DEFAULT_C = 0.1151

LABEL_CITE_WORTHY = "cite-worthy"
LABEL_NON_CITE_WORTHY = "non-cite-worthy"
LABELS = (LABEL_CITE_WORTHY, LABEL_NON_CITE_WORTHY)

SPLIT_TRAIN = "train"
SPLIT_DEV = "dev"
SPLIT_TEST = "test"
SPLIT_UNASSIGNED = "unassigned"
SPLITS = (SPLIT_TRAIN, SPLIT_DEV, SPLIT_TEST)


def ratios_are_valid(ratios: Sequence[float]) -> bool:
    """Three finite, non-negative split shares that sum to 1 (within 1e-9)."""
    return (len(ratios) == 3 and all(math.isfinite(r) and r >= 0 for r in ratios)
            and abs(sum(ratios) - 1.0) <= 1e-9)


# A temporary file is named for its output when the output's name is at most
# this many bytes long, else for a 16-digit hash of that name. Either way its
# name fits wherever the output's name fits.
_KEPT_NAME_BYTES = 32


@contextmanager
def atomic_write(path: str | Path, binary: bool = False) -> Iterator[IO]:
    """Open ``path`` for text (or ``binary``) writing so that it never holds
    a partial file.

    Writes go to a hidden temporary file beside ``path``, named for it and
    this process, which replaces ``path`` when the block completes; on any
    failure the temporary file is removed and ``path`` is left as it was.
    An OSError with an error number but no file name, such as a full disk,
    is given ``path`` as its file name.
    """
    path = Path(path)
    name = path.name
    if len(os.fsencode(name)) > _KEPT_NAME_BYTES:
        import hashlib

        name = hashlib.blake2b(os.fsencode(name), digest_size=8).hexdigest()
    tmp = path.with_name(f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") if binary else open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.errno is not None and exc.filename is None:
            exc.filename = str(path)
        raise


# What ``surrogateescape`` decodes an undecodable byte to.
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


def invalid_utf8(line: str) -> str | None:
    """Why ``line``, decoded with ``surrogateescape``, is not UTF-8 (its
    first undecodable byte), or None when it is."""
    if line.isascii() or not (bad := _ESCAPED_BYTE.search(line)):
        return None
    return f"byte 0x{ord(bad.group()) - 0xDC00:02x} is not valid UTF-8"


def read_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """The lines of the text file ``path`` with their 1-based numbers,
    decoded as UTF-8 with universal newlines. At the first byte that is not
    UTF-8 it raises a ValueError naming the file and the line."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if problem := invalid_utf8(line):
                raise ValueError(f"{path}, line {lineno}: {problem}")
            yield lineno, line


def to_json(value: object, indent: int | None = None) -> str:
    """The one JSON encoding of every output: keys sorted, text not escaped
    to ASCII, and a number that is not finite a ValueError."""
    return json.dumps(value, ensure_ascii=False, sort_keys=True, indent=indent, allow_nan=False)


# A \u escape of a UTF-16 surrogate code unit, and, to find a lone one, an
# escaped backslash, an escaped surrogate pair, or a lone surrogate escape.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")
_ESCAPES = re.compile(r"\\\\|\\u[dD][89abAB][0-9a-fA-F]{2}\\u[dD][c-fC-F][0-9a-fA-F]{2}"
                      r"|(\\u[dD][89a-fA-F][0-9a-fA-F]{2})")


def from_json(text: str) -> object:
    """The one JSON decoding of every input: ``json.loads``, except that
    text nested too deeply for the decoder, or a string holding a lone
    surrogate escape (no UTF-8 can encode what it decodes to), is a
    ``json.JSONDecodeError``, as any other invalid JSON is. Text that holds
    no surrogate escape costs one search more."""
    try:
        value = json.loads(text)
    except RecursionError:
        raise json.JSONDecodeError("too deeply nested", text, 0) from None
    if _SURROGATE_ESCAPE.search(text):
        # Valid JSON has escapes only in strings; scanning from the left
        # pairs each backslash with the character it escapes.
        for match in _ESCAPES.finditer(text):
            if match.group(1):
                raise json.JSONDecodeError(f"lone surrogate {match.group(1)}", text,
                                           match.start())
    return value


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
