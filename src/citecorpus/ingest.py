"""Streaming reader for structured-paper corpus files and paper eligibility.

Input files are newline-delimited records, one JSON object per line:

    {
      "paper_id": str,
      "abstract": str | null,
      "body_text": [{"section": str, "text": str,
                     "cite_spans": [{"start": int, "end": int, "ref_id": str}]}],
      "bib_entries": object | null,
      "has_tables_figures": bool,
      "venue": str | null,
      "inbound_citations": int,
      "mag_field_of_study": [str, ...] | null
    }

See the README for the mapping of these fields onto the S2ORC 20200705v1
release. ``parse_line`` turns one input line into a record or exactly one
diagnostic. ``build`` reads through ``line_batches``, which hands out raw
lines in batches, so that the workers decoding and parsing them hold only
their own batch. ``read_corpus`` streams records through ``parse_line`` one
line at a time from a binary stream that the caller opens; no command uses
it, but the benchmark's corpus generator checks its output through it. Both
decode UTF-8 with ``surrogateescape``, so that an undecodable byte reaches
``parse_line``, which raises naming its file and line. Records are immutable
and safe to share with parallel workers.

Every other text file the tool reads back (the dataset, the audit sheet and
key, the distance matrix, the config and the model file) goes through
``read_lines``, which decodes the same way and raises at the first
undecodable byte, naming the file and line. The corpus path keeps its own
check in ``parse_line`` instead: the workers run it, so the parent only
hands out raw lines, and ``read_corpus`` takes a stream, not a path.
"""

from __future__ import annotations

import io
import json
import re
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, NamedTuple

# What ``surrogateescape`` decodes an undecodable byte to.
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


def _invalid_utf8(line: str) -> str | None:
    """Why ``line``, decoded with ``surrogateescape``, is not UTF-8 (its
    first undecodable byte), or None when it is."""
    if line.isascii() or not (bad := _ESCAPED_BYTE.search(line)):
        return None
    return f"byte 0x{ord(bad.group()) - 0xDC00:02x} is not valid UTF-8"


class CiteSpan(NamedTuple):
    """A span of citation text inside a paragraph (offsets in scalar values)."""

    start: int
    end: int
    ref_id: str = ""


@dataclass(frozen=True)
class Paragraph:
    section_title: str
    text: str
    cite_spans: tuple[CiteSpan, ...] = ()


@dataclass(frozen=True)
class PaperRecord:
    paper_id: str
    has_abstract: bool
    has_bibliography: bool
    has_tables_figures: bool
    has_venue: bool
    has_inbound_citations: bool
    mag_fields: frozenset[str]
    paragraphs: tuple[Paragraph, ...]


@dataclass(frozen=True)
class Diagnostic:
    """One malformed input line, reported on the diagnostics channel.

    ``source`` names the input file when the reader knows it."""

    line: int
    message: str
    source: str = ""


class MalformedRecordError(ValueError):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise MalformedRecordError(message)


def _parse_cite_span(raw: object) -> CiteSpan:
    _require(isinstance(raw, dict), "cite span is not an object")
    _require(isinstance(raw.get("start"), int) and not isinstance(raw["start"], bool),
             "cite span 'start' is not an integer")
    _require(isinstance(raw.get("end"), int) and not isinstance(raw["end"], bool),
             "cite span 'end' is not an integer")
    ref_id = raw.get("ref_id", "")
    _require(ref_id is None or isinstance(ref_id, str), "cite span 'ref_id' is not a string")
    return CiteSpan(raw["start"], raw["end"], ref_id or "")


def _parse_paragraph(raw: object) -> Paragraph:
    _require(isinstance(raw, dict), "body_text entry is not an object")
    _require(isinstance(raw.get("section"), str), "paragraph 'section' is not a string")
    _require(isinstance(raw.get("text"), str), "paragraph 'text' is not a string")
    spans_raw = raw.get("cite_spans", [])
    _require(isinstance(spans_raw, list), "paragraph 'cite_spans' is not a list")
    spans = tuple(sorted((_parse_cite_span(s) for s in spans_raw), key=lambda s: (s.start, s.end)))
    return Paragraph(section_title=raw["section"], text=raw["text"], cite_spans=spans)


def parse_record(raw: object) -> PaperRecord:
    """Build a PaperRecord from one decoded input object.

    Raises MalformedRecordError when the object does not follow the input
    schema. Offset consistency of cite spans is checked downstream, where it
    is a hard error rather than a skipped line.
    """
    _require(isinstance(raw, dict), "record is not an object")
    paper_id = raw.get("paper_id")
    _require(isinstance(paper_id, str) and paper_id != "", "missing or empty 'paper_id'")

    abstract = raw.get("abstract")
    _require(abstract is None or isinstance(abstract, str), "'abstract' is not a string")
    body = raw.get("body_text", [])
    _require(isinstance(body, list), "'body_text' is not a list")
    bib = raw.get("bib_entries")
    _require(bib is None or isinstance(bib, dict), "'bib_entries' is not an object")
    _require(isinstance(raw.get("has_tables_figures"), bool), "'has_tables_figures' is not a bool")
    venue = raw.get("venue")
    _require(venue is None or isinstance(venue, str), "'venue' is not a string")
    inbound = raw.get("inbound_citations", 0)
    _require(isinstance(inbound, int) and not isinstance(inbound, bool),
             "'inbound_citations' is not an integer")
    fields = raw.get("mag_field_of_study")
    _require(fields is None
             or isinstance(fields, list) and all(isinstance(f, str) for f in fields),
             "'mag_field_of_study' is not a list of strings")

    return PaperRecord(
        paper_id=paper_id,
        has_abstract=bool(abstract),
        has_bibliography=bool(bib),
        has_tables_figures=raw["has_tables_figures"],
        has_venue=bool(venue),
        has_inbound_citations=inbound >= 1,
        mag_fields=frozenset(fields or ()),
        paragraphs=tuple(_parse_paragraph(p) for p in body),
    )


def parse_line(line: str, lineno: int, source: str = "") -> PaperRecord | Diagnostic:
    """Decode and parse one corpus line: a record, or the one diagnostic
    that explains why the line is skipped (blank, bad JSON, schema).

    Raises ValueError naming the file and line when the line holds a byte
    that is not UTF-8, as decoded with ``surrogateescape``.
    """
    if problem := _invalid_utf8(line):
        where = f"{source}, line {lineno}" if source else f"line {lineno}"
        raise ValueError(f"{where}: {problem}")
    stripped = line.strip()
    if not stripped:
        return Diagnostic(lineno, "blank line", source)
    try:
        raw = json.loads(stripped)
    except json.JSONDecodeError as exc:
        return Diagnostic(lineno, f"invalid JSON: {exc.msg}", source)
    try:
        return parse_record(raw)
    except MalformedRecordError as exc:
        return Diagnostic(lineno, str(exc), source)


def read_corpus(
    stream: BinaryIO, on_malformed: Callable[[Diagnostic], None]
) -> Iterator[PaperRecord]:
    """Stream PaperRecords from a binary newline-delimited corpus, and close
    the stream when done.

    Malformed lines (bad JSON, schema violations, blank lines) are reported
    through ``on_malformed`` with their 1-based line number and skipped; an
    undecodable byte raises ValueError naming the line (and the file, when
    the stream has a name). Every input line is accounted for: it yields a
    record or produces exactly one diagnostic.
    """
    source = str(getattr(stream, "name", ""))
    with io.TextIOWrapper(stream, encoding="utf-8", errors="surrogateescape") as lines:
        for lineno, line in enumerate(lines, start=1):
            item = parse_line(line, lineno, source)
            if isinstance(item, Diagnostic):
                on_malformed(item)
            else:
                yield item


def read_lines(
    path: str | Path, error: type[Exception] = ValueError
) -> Iterator[tuple[int, str]]:
    """The lines of the text file ``path`` with their 1-based numbers,
    decoded as UTF-8 with universal newlines. At the first byte that is not
    UTF-8 it raises ``error`` naming the file and the line."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if problem := _invalid_utf8(line):
                raise error(f"{path}, line {lineno}: {problem}")
            yield lineno, line


def line_batches(
    paths: Iterable[str | Path], size: int
) -> Iterator[tuple[str, int, list[str]]]:
    """Decoded corpus lines in batches of up to ``size``, each tagged with its
    file name and the 1-based number of its first line. Decoding matches
    ``read_corpus``: UTF-8 with universal newlines and ``surrogateescape``."""
    for path in paths:
        with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
            first = 1
            while lines := list(islice(fh, size)):
                yield str(path), first, lines
                first += len(lines)


def paper_eligible(paper: PaperRecord) -> bool:
    """True when all seven availability signals are present.

    Required: abstract, body text (at least one paragraph), bibliography,
    tables/figures, venue information, inbound citations (count >= 1), and at
    least one subject-category name.
    """
    return (
        paper.has_abstract
        and len(paper.paragraphs) >= 1
        and paper.has_bibliography
        and paper.has_tables_figures
        and paper.has_venue
        and paper.has_inbound_citations
        and len(paper.mag_fields) >= 1
    )
