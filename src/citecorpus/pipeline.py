"""Paragraph-level extraction, labelling, balancing, splitting, and dataset IO.

A paragraph is accepted all-or-nothing: every sentence must pass every check,
otherwise the whole paragraph is rejected with a reason code. Accepted
paragraphs keep their full ordered sentence context, each sentence carrying a
binary cite-worthiness label.

``process_paper`` decides each paragraph's fate in one place: section, field
and cite-span checks, then one labeler, ``process_paragraph`` or the naive
``build_baseline_variant``, each a pure function of the paragraph. The collector
reads the corpus as batches of raw lines; one batch function decodes,
parses, checks eligibility and processes each line of a batch, in-process at
one worker or on a worker pool that holds at most two batches per worker in
flight. Results are merged in batch order, so diagnostics and samples stay
in input order at any worker count; rejections are sorted into canonical
(paper_id, paragraph index) order, the order of the rejections file. The
parent keeps the cyclic garbage collector off while a pool runs: unpickling
its results makes many objects and no reference cycles.
"""

from __future__ import annotations

import gc
import json
import logging
import math
import random
from collections import deque
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, Sequence

from . import write_json
from .ingest import (Diagnostic, PaperRecord, Paragraph, line_batches,
                     paper_eligible, parse_line, read_lines)
from .textproc import (
    citation_at_sentence_end,
    has_hanging_citation_marker,
    is_well_formed,
    matches_citation_format,
    remove_citation_spans,
    split_sentences,
    strip_hanging_punctuation,
)

if TYPE_CHECKING:
    from concurrent.futures import Executor

logger = logging.getLogger(__name__)

LABEL_CITE_WORTHY = "cite-worthy"
LABEL_NON_CITE_WORTHY = "non-cite-worthy"
LABELS = (LABEL_CITE_WORTHY, LABEL_NON_CITE_WORTHY)

SPLIT_TRAIN = "train"
SPLIT_DEV = "dev"
SPLIT_TEST = "test"
SPLIT_UNASSIGNED = "unassigned"
SPLITS = (SPLIT_TRAIN, SPLIT_DEV, SPLIT_TEST)

# Paragraph rejection codes, one per rejection path.
BAD_SECTION = "bad-section"
MISSED_CITATION = "missed-citation"
BAD_FORMAT = "bad-format"
NOT_AT_END = "not-at-end"
HANGING_MARKER = "hanging-marker"
MALFORMED_SENTENCE = "malformed-sentence"
AMBIGUOUS_FIELD = "ambiguous-field"
REJECTION_CODES = (
    BAD_SECTION,
    MISSED_CITATION,
    BAD_FORMAT,
    NOT_AT_END,
    HANGING_MARKER,
    MALFORMED_SENTENCE,
    AMBIGUOUS_FIELD,
)

# The ten subject categories the dataset is balanced over.
MAG_FIELDS = (
    "Biology",
    "Medicine",
    "Engineering",
    "Chemistry",
    "Psychology",
    "Computer Science",
    "Materials Science",
    "Economics",
    "Mathematics",
    "Physics",
)

# Permissible section titles (lowercased), in their published order.
PERMISSIBLE_SECTION_TITLES = (
    "introduction",
    "abstract",
    "method",
    "methods",
    "results",
    "discussion",
    "discussions",
    "conclusion",
    "conclusions",
    "results and discussion",
    "related work",
    "experimental results",
    "literature review",
    "experiments",
    "background",
    "methodology",
    "conclusions and future work",
    "related works",
    "limitations",
    "procedure",
    "material and methods",
    "discussion and conclusion",
    "implementation",
    "evaluation",
    "performance evaluation",
    "experiments and results",
    "overview",
    "experimental design",
    "discussion and conclusions",
    "results and discussions",
    "motivation",
    "proposed method",
    "analysis",
    "future work",
    "results and analysis",
    "implementation details",
)
_PERMISSIBLE_SET = frozenset(PERMISSIBLE_SECTION_TITLES)


class LabeledSentence(NamedTuple):
    """One cleaned sentence and its label."""

    text: str
    label: str
    removed_span_count: int = 0


@dataclass
class ParagraphSample:
    """One accepted paragraph: ordered labelled sentences plus provenance."""

    paper_id: str
    section_title: str
    mag_field: str
    sentences: tuple[LabeledSentence, ...]
    paragraph_index: int = 0
    split: str = SPLIT_UNASSIGNED

    def sentence_count(self) -> int:
        return len(self.sentences)


@dataclass(frozen=True)
class RejectionReason:
    code: str


@dataclass(frozen=True)
class RejectionRecord:
    """Sidecar-log entry locating a rejected paragraph."""

    paper_id: str
    paragraph_index: int
    reason: RejectionReason


class SpanConsistencyError(ValueError):
    """Cite-span offsets disagree with the paragraph text; a data error,
    not a paragraph rejection."""


class DatasetFormatError(ValueError):
    pass


def allowed_section(title: str) -> bool:
    """True when the lowercased, trimmed title is a permissible section."""
    return title.strip().lower() in _PERMISSIBLE_SET


def assign_field(mag_fields: Iterable[str]) -> str | RejectionReason:
    """Resolve a paper's category set to exactly one of the ten fields."""
    hits = sorted(set(mag_fields) & set(MAG_FIELDS))
    if len(hits) == 1:
        return hits[0]
    return RejectionReason(AMBIGUOUS_FIELD)


def _validate_spans(paragraph: Paragraph, paper_id: str) -> None:
    prev_end = 0
    for span in paragraph.cite_spans:
        if not 0 <= span.start < span.end <= len(paragraph.text):
            raise SpanConsistencyError(
                f"paper {paper_id!r}: cite span ({span.start}, {span.end}) out of bounds "
                f"for paragraph of length {len(paragraph.text)}")
        if span.start < prev_end:
            raise SpanConsistencyError(f"paper {paper_id!r}: cite span ({span.start}, "
                                       f"{span.end}) overlaps the previous span")
        prev_end = span.end


def _uncovered_regions(text: str, spans: list[tuple[int, int]]) -> list[str]:
    regions = []
    cursor = 0
    for start, end in spans:
        regions.append(text[cursor:start])
        cursor = end
    regions.append(text[cursor:])
    return regions


def process_paragraph(paragraph: Paragraph) -> tuple[LabeledSentence, ...] | RejectionReason:
    """Run the full per-paragraph extraction procedure on cite spans that
    ``process_paper`` has already checked with ``_validate_spans``.

    For every sentence, in order: locate the provided cite spans; scan the
    span-free regions with both citation-format patterns (a hit means a
    citation the upstream extractor missed); require each provided span to
    match a citation format and to sit at the sentence end; remove the spans
    and strip hanging punctuation; reject on a hanging citation marker or an
    ill-formed result. Only if all sentences pass are they returned, each
    labelled by whether a citation span was removed from it.

    The pattern checks are ``textproc``'s: a format pattern is searched for
    only in text that holds its ``[`` or ``)``, and the hanging pattern only
    near the end of the cleaned sentence, each with the verbatim pattern's
    answer. Most sentences hold no citation, so most checks search nothing.
    """
    sentences = split_sentences(paragraph.text)
    if not sentences:
        return RejectionReason(MALFORMED_SENTENCE)

    spans_by_sentence: list[list[tuple[int, int]]] = [[] for _ in sentences]
    for span in paragraph.cite_spans:
        owner = None
        for idx, sent in enumerate(sentences):
            if sent.start <= span.start and span.end <= sent.end:
                owner = idx
                break
        if owner is None:
            return RejectionReason(BAD_FORMAT)
        spans_by_sentence[owner].append((span.start - sentences[owner].start,
                                         span.end - sentences[owner].start))

    labeled: list[LabeledSentence] = []
    for sent, rel_spans in zip(sentences, spans_by_sentence):
        for region in _uncovered_regions(sent.text, rel_spans):
            if matches_citation_format(region):
                return RejectionReason(MISSED_CITATION)
        for rel_start, rel_end in rel_spans:
            span_text = sent.text[rel_start:rel_end]
            if not matches_citation_format(span_text):
                return RejectionReason(BAD_FORMAT)
            if not citation_at_sentence_end(sent.text, rel_start, rel_end):
                return RejectionReason(NOT_AT_END)
        cleaned = remove_citation_spans(sent.text, rel_spans)
        cleaned = strip_hanging_punctuation(cleaned)
        if has_hanging_citation_marker(cleaned):
            return RejectionReason(HANGING_MARKER)
        if not is_well_formed(cleaned):
            return RejectionReason(MALFORMED_SENTENCE)
        label = LABEL_CITE_WORTHY if rel_spans else LABEL_NON_CITE_WORTHY
        labeled.append(LabeledSentence(cleaned, label, len(rel_spans)))
    return tuple(labeled)


def build_baseline_variant(paragraph: Paragraph) -> tuple[LabeledSentence, ...] | RejectionReason:
    """Naive variant: delete the provided cite spans verbatim, nothing else;
    ``process_paper`` has already checked them with ``_validate_spans``.

    No regex scans, no hanging-punctuation stripping, no well-formedness
    gate; sentences are labelled by span presence and kept as long as they
    are nonempty. Used only for audit comparison against the main pipeline.
    """
    labeled: list[LabeledSentence] = []
    for sent in split_sentences(paragraph.text):
        pieces = []
        cursor = 0
        count = 0
        for span in paragraph.cite_spans:
            if not sent.start <= span.start < sent.end:
                continue
            rel_start = span.start - sent.start
            rel_end = min(span.end, sent.end) - sent.start
            pieces.append(sent.text[cursor:rel_start])
            cursor = rel_end
            count += 1
        pieces.append(sent.text[cursor:])
        text = "".join(pieces)
        if not text.strip():
            continue
        label = LABEL_CITE_WORTHY if count else LABEL_NON_CITE_WORTHY
        labeled.append(LabeledSentence(text, label, count))
    return tuple(labeled) if labeled else RejectionReason(MALFORMED_SENTENCE)


def process_paper(
    paper: PaperRecord, baseline: bool = False
) -> tuple[list[ParagraphSample], list[RejectionRecord]]:
    """Turn each paragraph of an eligible paper into a sample or a rejection;
    a cite span that disagrees with its text raises ``SpanConsistencyError``."""
    field_result = assign_field(paper.mag_fields)
    label = build_baseline_variant if baseline else process_paragraph
    samples: list[ParagraphSample] = []
    rejections: list[RejectionRecord] = []
    for idx, paragraph in enumerate(paper.paragraphs):
        if not allowed_section(paragraph.section_title):
            result: tuple[LabeledSentence, ...] | RejectionReason = RejectionReason(BAD_SECTION)
        elif isinstance(field_result, RejectionReason):
            result = field_result
        else:
            _validate_spans(paragraph, paper.paper_id)
            result = label(paragraph)
        if isinstance(result, RejectionReason):
            rejections.append(RejectionRecord(paper.paper_id, idx, result))
        else:
            title = paragraph.section_title.strip().lower()
            samples.append(ParagraphSample(paper.paper_id, title, field_result, result, idx))
    return samples, rejections


def _canonical_key(sample: ParagraphSample) -> tuple[str, int]:
    return (sample.paper_id, sample.paragraph_index)


@dataclass
class Collected:
    """What the collector gathers from a corpus, or from one batch of it."""

    samples: list[ParagraphSample] = field(default_factory=list)
    rejections: list[RejectionRecord] = field(default_factory=list)
    diagnostics: list[Diagnostic] = field(default_factory=list)
    # Where each parsed record was read, by paper id: its input file and line.
    read_at: dict[str, tuple[str, int]] = field(default_factory=dict)
    papers_eligible: int = 0
    # The fault that ended a batch, raised when the batch is merged.
    fault: ValueError | None = None

    def note_read(self, paper_id: str, where: tuple[str, int]) -> None:
        """Index ``paper_id`` as read at ``where``; a repeat is a ValueError naming both."""
        if paper_id in self.read_at:
            raise ValueError("%s, line %d: paper %r was already read at %s, line %d"
                             % (*where, paper_id, *self.read_at[paper_id]))
        self.read_at[paper_id] = where

    def add(self, other: Collected) -> None:
        """Merge the next batch, or raise its first fault in input order."""
        for paper_id, where in other.read_at.items():
            self.note_read(paper_id, where)
        if other.fault is not None:
            raise other.fault
        self.samples.extend(other.samples)
        self.rejections.extend(other.rejections)
        self.diagnostics.extend(other.diagnostics)
        self.papers_eligible += other.papers_eligible


# Corpus lines per batch, and batches in flight per pool worker.
BATCH_LINES = 64
_BATCHES_PER_WORKER = 2


def process_lines(batch: tuple[str, int, list[str]], baseline: bool = False) -> Collected:
    """Decode, parse, check eligibility of and process one batch of corpus
    lines, as tagged by ``ingest.line_batches``; the work of one pool task.

    Every line yields a record or exactly one diagnostic. A repeated paper
    id or a span error ends the batch: its error, naming the file and line,
    is kept in ``fault``, for the merge to raise after checking the batch.
    """
    source, first_line, lines = batch
    part = Collected()
    for lineno, line in enumerate(lines, start=first_line):
        paper = parse_line(line, lineno, source)
        if isinstance(paper, Diagnostic):
            part.diagnostics.append(paper)
            continue
        try:
            part.note_read(paper.paper_id, (source, lineno))
        except ValueError as exc:
            part.fault = exc
            break
        if not paper_eligible(paper):
            continue
        part.papers_eligible += 1
        try:
            samples, rejections = process_paper(paper, baseline)
        except SpanConsistencyError as exc:
            part.fault = SpanConsistencyError(f"{source}, line {lineno}: {exc}")
            break
        part.samples.extend(samples)
        part.rejections.extend(rejections)
    return part


def _bounded_map(pool: Executor, fn: Callable, items: Iterable, limit: int) -> Iterator:
    """``pool.map`` that draws from ``items`` only while fewer than ``limit``
    tasks are in flight. (``Executor.map`` submits every item up front.)"""
    pending: deque = deque()
    for item in items:
        pending.append(pool.submit(fn, item))
        if len(pending) >= limit:
            yield pending.popleft().result()
    while pending:
        yield pending.popleft().result()


def worker_pool(workers: int) -> Executor:
    """A pool of ``workers`` processes. Imported here: the process pool
    loads multiprocessing, which only a build at two or more workers needs."""
    from concurrent.futures import ProcessPoolExecutor

    # A forked worker inherits the collector state of the parent, which keeps
    # the collector off while it merges; the workers run with it on, as a
    # spawned worker would.
    return ProcessPoolExecutor(max_workers=workers, initializer=gc.enable)


@contextmanager
def _gc_paused() -> Iterator[None]:
    """Keep the cyclic garbage collector off in this block, then restore the
    state it had."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def collect_samples(
    paths: Iterable[str | Path], baseline: bool = False, workers: int = 1
) -> Collected:
    """Read, parse and process every line of the corpus files: in this
    process at one worker, otherwise on a pool of ``workers`` processes.

    Diagnostics and samples come out in input order and rejections in
    canonical (paper_id, paragraph index) order, so the result is identical
    for any worker count. A paper id read twice, which would put the same
    paragraphs in two splits, is a ValueError naming both places; it and a
    ``SpanConsistencyError`` are raised for the first such fault in input
    order.
    """
    work = partial(process_lines, baseline=baseline)
    batches = line_batches(paths, BATCH_LINES)
    collected = Collected()
    with ExitStack() as stack:
        if workers == 1:
            parts: Iterator[Collected] = map(work, batches)
        else:
            # Unpickled results would make the collector rescan the growing
            # result lists, again and again.
            stack.enter_context(_gc_paused())
            pool = stack.enter_context(worker_pool(workers))
            parts = _bounded_map(pool, work, batches, _BATCHES_PER_WORKER * workers)
        for part in parts:
            collected.add(part)
    collected.rejections.sort(key=lambda r: (r.paper_id, r.paragraph_index))
    return collected


def balanced_sample(
    samples: list[ParagraphSample], per_field_quota: int, seed: int
) -> list[ParagraphSample]:
    """Draw up to ``per_field_quota`` paragraphs per field, uniformly, seeded.

    Under-quota fields are kept in full with a warning. Output is sorted by
    (field, paper_id, paragraph index) and is deterministic for a fixed seed
    regardless of input order.
    """
    if per_field_quota < 0:
        raise ValueError("per_field_quota must be >= 0")
    by_field: dict[str, list[ParagraphSample]] = {name: [] for name in MAG_FIELDS}
    for sample in sorted(samples, key=lambda s: (s.mag_field, *_canonical_key(s))):
        if sample.mag_field in by_field:
            by_field[sample.mag_field].append(sample)

    rng = random.Random(f"{seed}|balance")
    chosen: list[ParagraphSample] = []
    for name in sorted(MAG_FIELDS):
        pool = by_field[name]
        take = min(per_field_quota, len(pool))
        if take < per_field_quota:
            logger.warning("field %s: %d paragraphs available, quota %d",
                           name, len(pool), per_field_quota)
        if take:
            chosen.extend(rng.sample(pool, take))
    chosen.sort(key=lambda s: (s.mag_field, *_canonical_key(s)))
    return chosen


def ratios_are_valid(ratios: Sequence[float]) -> bool:
    """Three finite, non-negative split shares that sum to 1 (within 1e-9)."""
    return (len(ratios) == 3 and all(math.isfinite(r) and r >= 0 for r in ratios)
            and abs(sum(ratios) - 1.0) <= 1e-9)


def split_dataset(
    samples: list[ParagraphSample],
    ratios: tuple[float, float, float],
    seed: int,
) -> list[ParagraphSample]:
    """Assign train/dev/test splits to whole paragraphs, stratified by field.

    Paragraphs never straddle splits. Within each field stratum the
    assignment targets the requested sentence-count shares; a stratum with
    fewer than three paragraphs goes entirely to train, with a warning.
    """
    if not ratios_are_valid(ratios):
        raise ValueError(f"ratios must be three finite, non-negative numbers that sum to 1, "
                         f"got {ratios!r}")

    by_field: dict[str, list[ParagraphSample]] = {}
    for sample in samples:
        by_field.setdefault(sample.mag_field, []).append(sample)

    rng = random.Random(f"{seed}|split")
    for name in sorted(by_field):
        stratum = sorted(by_field[name], key=_canonical_key)
        if len(stratum) < 3:
            logger.warning("field %s has only %d paragraphs; assigning all to train",
                           name, len(stratum))
            for sample in stratum:
                sample.split = SPLIT_TRAIN
            continue
        shuffled = stratum[:]
        rng.shuffle(shuffled)
        total = sum(s.sentence_count() for s in stratum)
        targets = [r * total for r in ratios]
        counts = [0, 0, 0]
        for sample in shuffled:
            deficits = [t - c for t, c in zip(targets, counts)]
            pick = deficits.index(max(deficits))
            sample.split = SPLITS[pick]
            counts[pick] += sample.sentence_count()
    return samples


def _sample_to_record(sample: ParagraphSample) -> dict:
    return {
        "paper_id": sample.paper_id,
        "mag_field_of_study": sample.mag_field,
        "section_title": sample.section_title,
        "split": sample.split,
        "paragraph_index": sample.paragraph_index,
        "samples": [
            {"text": s.text, "label": s.label, "removed_span_count": s.removed_span_count}
            for s in sample.sentences
        ],
    }


def _field(record: dict, key: str, kind: type, where: str):
    """``record[key]`` when it is a ``kind`` (a bool is no int), else a
    DatasetFormatError naming the line and the field."""
    value = record.get(key)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise DatasetFormatError(f"{where}: field {key!r} missing or not {kind.__name__}")
    return value


def _record_to_sample(record: object, where: str) -> ParagraphSample:
    if not isinstance(record, dict):
        raise DatasetFormatError(f"{where}: record is not an object")
    split = _field(record, "split", str, where)
    if split not in (*SPLITS, SPLIT_UNASSIGNED):
        raise DatasetFormatError(f"{where}: unknown split {split!r}")
    raw_sentences = _field(record, "samples", list, where)
    if not raw_sentences:
        raise DatasetFormatError(f"{where}: record has no sentences")
    sentences = []
    for i, raw in enumerate(raw_sentences):
        if not isinstance(raw, dict):
            raise DatasetFormatError(f"{where}: sentence {i} is not an object")
        text = raw.get("text")
        label = raw.get("label")
        count = raw.get("removed_span_count")
        # JSON decodes to exact types: ``type(count) is int`` leaves out bools.
        if type(text) is not str or label not in LABELS or type(count) is not int or count < 0:
            raise DatasetFormatError(f"{where}: sentence {i} is malformed")
        if (label == LABEL_CITE_WORTHY) != (count >= 1):
            raise DatasetFormatError(
                f"{where}: sentence {i} label {label!r} disagrees with "
                f"removed_span_count {count}")
        sentences.append(LabeledSentence(text, label, count))
    return ParagraphSample(
        paper_id=_field(record, "paper_id", str, where),
        section_title=_field(record, "section_title", str, where),
        mag_field=_field(record, "mag_field_of_study", str, where),
        sentences=tuple(sentences),
        paragraph_index=_field(record, "paragraph_index", int, where),
        split=split,
    )


def write_dataset(samples: Iterable[ParagraphSample], path: str | Path) -> None:
    """Write samples as newline-delimited records, deterministically and
    atomically (see ``write_json``)."""
    write_json(path, map(_sample_to_record, samples))


def read_dataset(path: str | Path) -> list[ParagraphSample]:
    """Read a dataset file back; raises DatasetFormatError naming the bad line,
    an undecodable byte included."""
    samples = []
    for lineno, line in read_lines(path, DatasetFormatError):
        if not line.strip():
            continue
        where = f"{path}, line {lineno}"
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DatasetFormatError(f"{where}: invalid JSON: {exc.msg}") from exc
        samples.append(_record_to_sample(record, where))
    return samples


def write_rejections(rejections: Iterable[RejectionRecord], path: str | Path) -> None:
    """Write the sidecar rejection log: one {paper_id, paragraph_index, code}
    record per rejected paragraph, atomically (see ``write_json``)."""
    write_json(path, ({"paper_id": rec.paper_id, "paragraph_index": rec.paragraph_index,
                       "code": rec.reason.code} for rec in rejections))
