"""Paragraph-level extraction, labelling, balancing, splitting, and dataset IO.

A paragraph is accepted all-or-nothing: every sentence must pass every check,
otherwise the whole paragraph is rejected with a reason code. Accepted
paragraphs keep their full ordered sentence context, each sentence carrying a
binary cite-worthiness label.

``process_paragraph`` and ``build_baseline_variant`` are pure. The collector
reads the corpus as batches of raw lines; one batch function decodes,
parses, checks eligibility and processes each line of a batch, in-process at
one worker or on a worker pool that holds at most two batches per worker in
flight. Results are merged in batch order, so diagnostics stay in line
order, and sorted into canonical (paper_id, paragraph index) order, so builds
are deterministic for any worker count.
"""

from __future__ import annotations

import json
import logging
import random
from collections import deque
from concurrent.futures import Executor, ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, Iterator

from . import atomic_write
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


@dataclass(frozen=True)
class LabeledSentence:
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
    not a paragraph rejection. ``where`` names the input file and line when
    known. Its arguments are its ``args``, so it pickles across the pool."""

    def __init__(self, paper_id: str, message: str, where: str = ""):
        super().__init__(paper_id, message, where)
        self.paper_id = paper_id
        self.message = message
        self.where = where

    def __str__(self) -> str:
        prefix = f"{self.where}: " if self.where else ""
        return f"{prefix}paper {self.paper_id!r}: {self.message}"


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
                paper_id,
                f"cite span ({span.start}, {span.end}) out of bounds for paragraph "
                f"of length {len(paragraph.text)}",
            )
        if span.start < prev_end:
            raise SpanConsistencyError(
                paper_id, f"cite span ({span.start}, {span.end}) overlaps the previous span"
            )
        prev_end = span.end


def _uncovered_regions(text: str, spans: list[tuple[int, int]]) -> list[str]:
    regions = []
    cursor = 0
    for start, end in spans:
        regions.append(text[cursor:start])
        cursor = end
    regions.append(text[cursor:])
    return regions


def process_paragraph(
    paragraph: Paragraph,
    paper_id: str = "",
    mag_field: str = "",
    paragraph_index: int = 0,
) -> ParagraphSample | RejectionReason:
    """Run the full per-paragraph extraction procedure.

    For every sentence, in order: locate the provided cite spans; scan the
    span-free regions with both citation-format patterns (a hit means a
    citation the upstream extractor missed); require each provided span to
    match a citation format and to sit at the sentence end; remove the spans
    and strip hanging punctuation; reject on a hanging citation marker or an
    ill-formed result. Only if all sentences pass is a sample returned, each
    sentence labelled by whether a citation span was removed from it.
    """
    _validate_spans(paragraph, paper_id)
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
        labeled.append(LabeledSentence(text=cleaned, label=label,
                                       removed_span_count=len(rel_spans)))

    return ParagraphSample(
        paper_id=paper_id,
        section_title=paragraph.section_title.strip().lower(),
        mag_field=mag_field,
        sentences=tuple(labeled),
        paragraph_index=paragraph_index,
    )


def build_baseline_variant(
    paragraph: Paragraph,
    paper_id: str = "",
    mag_field: str = "",
    paragraph_index: int = 0,
) -> ParagraphSample | RejectionReason:
    """Naive variant: delete the provided cite spans verbatim, nothing else.

    No regex scans, no hanging-punctuation stripping, no well-formedness
    gate; sentences are labelled by span presence and kept as long as they
    are nonempty. Used only for audit comparison against the main pipeline.
    """
    _validate_spans(paragraph, paper_id)
    sentences = split_sentences(paragraph.text)

    labeled: list[LabeledSentence] = []
    for sent in sentences:
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
        labeled.append(LabeledSentence(text=text, label=label, removed_span_count=count))

    if not labeled:
        return RejectionReason(MALFORMED_SENTENCE)
    return ParagraphSample(
        paper_id=paper_id,
        section_title=paragraph.section_title.strip().lower(),
        mag_field=mag_field,
        sentences=tuple(labeled),
        paragraph_index=paragraph_index,
    )


def process_paper(
    paper: PaperRecord, baseline: bool = False
) -> tuple[list[ParagraphSample], list[RejectionRecord]]:
    """Apply section, field, and paragraph checks to one eligible paper."""
    field_result = assign_field(paper.mag_fields)
    samples: list[ParagraphSample] = []
    rejections: list[RejectionRecord] = []
    for idx, paragraph in enumerate(paper.paragraphs):
        if not allowed_section(paragraph.section_title):
            rejections.append(RejectionRecord(paper.paper_id, idx, RejectionReason(BAD_SECTION)))
            continue
        if isinstance(field_result, RejectionReason):
            rejections.append(RejectionRecord(paper.paper_id, idx, field_result))
            continue
        convert = build_baseline_variant if baseline else process_paragraph
        result = convert(paragraph, paper_id=paper.paper_id,
                         mag_field=field_result, paragraph_index=idx)
        if isinstance(result, RejectionReason):
            rejections.append(RejectionRecord(paper.paper_id, idx, result))
        else:
            samples.append(result)
    return samples, rejections


def _canonical_key(sample: ParagraphSample) -> tuple[str, int]:
    return (sample.paper_id, sample.paragraph_index)


@dataclass
class Collected:
    """What the collector gathers from a corpus, or from one batch of it."""

    samples: list[ParagraphSample] = field(default_factory=list)
    rejections: list[RejectionRecord] = field(default_factory=list)
    diagnostics: list[Diagnostic] = field(default_factory=list)
    papers_total: int = 0
    papers_eligible: int = 0

    def add(self, other: Collected) -> None:
        self.samples.extend(other.samples)
        self.rejections.extend(other.rejections)
        self.diagnostics.extend(other.diagnostics)
        self.papers_total += other.papers_total
        self.papers_eligible += other.papers_eligible


# Corpus lines per batch, and batches in flight per pool worker.
BATCH_LINES = 64
_BATCHES_PER_WORKER = 2


def process_lines(batch: tuple[str, int, list[str]], baseline: bool = False) -> Collected:
    """Decode, parse, check eligibility of and process one batch of corpus
    lines, as tagged by ``ingest.line_batches``; the work of one pool task.

    Every line yields a record or exactly one diagnostic. A span error is
    raised naming the input file and line.
    """
    source, first_line, lines = batch
    part = Collected()
    for lineno, line in enumerate(lines, start=first_line):
        paper = parse_line(line, lineno, source)
        if isinstance(paper, Diagnostic):
            part.diagnostics.append(paper)
            continue
        part.papers_total += 1
        if not paper_eligible(paper):
            continue
        part.papers_eligible += 1
        try:
            samples, rejections = process_paper(paper, baseline)
        except SpanConsistencyError as exc:
            raise SpanConsistencyError(exc.paper_id, exc.message,
                                       f"{source}, line {lineno}") from None
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


def collect_samples(
    paths: Iterable[str | Path], baseline: bool = False, workers: int = 1
) -> Collected:
    """Read, parse and process every line of the corpus files: in this
    process at one worker, otherwise on a pool of ``workers`` processes.

    Diagnostics come out in input order and samples and rejections in
    canonical (paper_id, paragraph index) order, so the result is identical
    for any worker count.
    """
    work = partial(process_lines, baseline=baseline)
    batches = line_batches(paths, BATCH_LINES)
    collected = Collected()
    with ExitStack() as stack:
        if workers == 1:
            parts: Iterator[Collected] = map(work, batches)
        else:
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            parts = _bounded_map(pool, work, batches, _BATCHES_PER_WORKER * workers)
        for part in parts:
            collected.add(part)
    collected.samples.sort(key=_canonical_key)
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
    if len(ratios) != 3 or any(r < 0 for r in ratios):
        raise ValueError(f"ratios must be three non-negative numbers, got {ratios!r}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"ratios must sum to 1, got {sum(ratios)!r}")

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


def _record_to_sample(record: object, where: str) -> ParagraphSample:
    if not isinstance(record, dict):
        raise DatasetFormatError(f"{where}: record is not an object")

    def pull(key: str, kind: type) -> object:
        value = record.get(key)
        if not isinstance(value, kind) or isinstance(value, bool):
            raise DatasetFormatError(f"{where}: field {key!r} missing or not {kind.__name__}")
        return value

    split = pull("split", str)
    if split not in (*SPLITS, SPLIT_UNASSIGNED):
        raise DatasetFormatError(f"{where}: unknown split {split!r}")
    sentences = []
    raw_sentences = pull("samples", list)
    if not raw_sentences:
        raise DatasetFormatError(f"{where}: record has no sentences")
    for i, raw in enumerate(raw_sentences):
        if not isinstance(raw, dict):
            raise DatasetFormatError(f"{where}: sentence {i} is not an object")
        text = raw.get("text")
        label = raw.get("label")
        count = raw.get("removed_span_count")
        if not isinstance(text, str) or label not in LABELS \
                or not isinstance(count, int) or isinstance(count, bool) or count < 0:
            raise DatasetFormatError(f"{where}: sentence {i} is malformed")
        if (label == LABEL_CITE_WORTHY) != (count >= 1):
            raise DatasetFormatError(
                f"{where}: sentence {i} label {label!r} disagrees with "
                f"removed_span_count {count}")
        sentences.append(LabeledSentence(text=text, label=label, removed_span_count=count))
    return ParagraphSample(
        paper_id=pull("paper_id", str),
        section_title=pull("section_title", str),
        mag_field=pull("mag_field_of_study", str),
        sentences=tuple(sentences),
        paragraph_index=pull("paragraph_index", int),
        split=split,
    )


def write_dataset(samples: Iterable[ParagraphSample], path: str | Path) -> None:
    """Write samples as newline-delimited records, deterministically and
    atomically (see ``atomic_write``)."""
    with atomic_write(path) as fh:
        for sample in samples:
            fh.write(json.dumps(_sample_to_record(sample), ensure_ascii=False, sort_keys=True))
            fh.write("\n")


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
    record per rejected paragraph, atomically (see ``atomic_write``)."""
    with atomic_write(path) as fh:
        for rec in rejections:
            fh.write(json.dumps(
                {"paper_id": rec.paper_id, "paragraph_index": rec.paragraph_index,
                 "code": rec.reason.code},
                ensure_ascii=False, sort_keys=True))
            fh.write("\n")
