"""Blinded manual-evaluation protocol: export an annotation sheet, score it.

The sheet pairs sentences drawn from the main pipeline's output with
sentences from the naive span-removal baseline, shuffled together so the
annotator cannot tell which method produced a row. Which row came from which
method (and its gold label) lives only in a separate key file.

Sheet: tab-separated with header
``item_id\tsentence\tprev\tnext\textraction_ok\tmarkers_removed``; the
annotator fills the last two columns with 1 (yes) or 0 (no). Key:
newline-delimited ``{"item_id": ..., "method": ..., "gold_label": ...}``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from . import atomic_write, write_json
from .ingest import read_lines
from .pipeline import LABEL_CITE_WORTHY, LABEL_NON_CITE_WORTHY, ParagraphSample

METHOD_MAIN = "ours"
METHOD_BASELINE = "baseline"

SHEET_COLUMNS = ("item_id", "sentence", "prev", "next", "extraction_ok", "markers_removed")


class AuditError(ValueError):
    pass


@dataclass(frozen=True)
class AuditItem:
    item_id: str
    method: str
    gold_label: str
    sentence: str
    prev: str
    next: str


@dataclass(frozen=True)
class MethodScore:
    extracted_correct_pct: float
    markers_removed_pct: float


@dataclass(frozen=True)
class AuditResult:
    per_method: dict[str, MethodScore]

    def render_text(self) -> str:
        lines = [f"{'Method':<10}  {'Extracted Correct':>18}  {'Markers Removed':>16}"]
        for method in sorted(self.per_method):
            score = self.per_method[method]
            lines.append(f"{method:<10}  {score.extracted_correct_pct:>18.2f}  "
                         f"{score.markers_removed_pct:>16.2f}")
        return "\n".join(lines)


def _sentences_with_context(
    samples: Iterable[ParagraphSample], label: str
) -> list[tuple[str, str, str]]:
    rows = []
    for sample in samples:
        sentences = sample.sentences
        for i, sentence in enumerate(sentences):
            if sentence.label != label:
                continue
            prev = sentences[i - 1].text if i > 0 else ""
            nxt = sentences[i + 1].text if i < len(sentences) - 1 else ""
            rows.append((sentence.text, prev, nxt))
    return rows


def _clean_cell(text: str) -> str:
    # The sheet is line/tab structured; field text must not break it.
    return text.replace("\t", " ").replace("\n", " ").replace("\r", " ")


def sample_for_audit(
    main_samples: Sequence[ParagraphSample],
    baseline_samples: Sequence[ParagraphSample],
    n_per_class: int,
    seed: int,
    sheet_path: str | Path,
    key_path: str | Path,
) -> list[AuditItem]:
    """Draw n_per_class sentences per (method, class) stratum and export.

    Sampling is uniform without replacement per stratum with the seeded
    generator; the four strata are then shuffled together. The written sheet
    contains no method or gold-label information. Raises AuditError naming
    the stratum when one has too few sentences.
    """
    rng = random.Random(f"{seed}|audit")
    strata = [
        (METHOD_MAIN, LABEL_CITE_WORTHY, main_samples),
        (METHOD_MAIN, LABEL_NON_CITE_WORTHY, main_samples),
        (METHOD_BASELINE, LABEL_CITE_WORTHY, baseline_samples),
        (METHOD_BASELINE, LABEL_NON_CITE_WORTHY, baseline_samples),
    ]
    items: list[AuditItem] = []
    used_ids: set[str] = set()
    for method, label, samples in strata:
        pool = _sentences_with_context(samples, label)
        if len(pool) < n_per_class:
            raise AuditError(
                f"stratum ({method}, {label}) has {len(pool)} sentences, "
                f"need {n_per_class}")
        for text, prev, nxt in (rng.sample(pool, n_per_class) if n_per_class else []):
            while True:
                item_id = f"{rng.getrandbits(64):016x}"
                if item_id not in used_ids:
                    used_ids.add(item_id)
                    break
            items.append(AuditItem(item_id=item_id, method=method, gold_label=label,
                                   sentence=text, prev=prev, next=nxt))
    rng.shuffle(items)

    # Neither file replaces its old version unless both were written whole.
    with atomic_write(sheet_path) as sheet:
        sheet.write("\t".join(SHEET_COLUMNS) + "\n")
        for item in items:
            sheet.write("\t".join((item.item_id, _clean_cell(item.sentence),
                                   _clean_cell(item.prev), _clean_cell(item.next), "", "")) + "\n")
        write_json(key_path, ({"item_id": item.item_id, "method": item.method,
                               "gold_label": item.gold_label} for item in items))
    return items


def _read_key(key_path: str | Path) -> dict[str, str]:
    methods: dict[str, str] = {}
    for lineno, line in read_lines(key_path, AuditError):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            record = None
        if not (isinstance(record, dict) and isinstance(record.get("item_id"), str)
                and record.get("method") in (METHOD_MAIN, METHOD_BASELINE)):
            raise AuditError(f"{key_path}, line {lineno}: bad key record")
        if record["item_id"] in methods:
            raise AuditError(f"{key_path}, line {lineno}: repeated item_id {record['item_id']!r}")
        methods[record["item_id"]] = record["method"]
    return methods


def score_audit(sheet_path: str | Path, key_path: str | Path) -> AuditResult:
    """Score an annotated sheet against its key.

    Per method, extracted_correct% is the share of items marked
    extraction_ok and markers_removed% the share marked markers_removed.
    Unknown or repeated item ids, missing annotations, and non-binary values
    raise an AuditError listing the offending rows; so does a key item the
    sheet lacks.
    """
    methods = _read_key(key_path)
    counts: dict[str, list[int]] = {}
    problems: list[str] = []
    seen: dict[str, int] = {}
    for lineno, line in read_lines(sheet_path, AuditError):
        if lineno == 1:
            header = line.rstrip("\n").split("\t")
            if header != list(SHEET_COLUMNS):
                raise AuditError(f"{sheet_path}: unexpected header {header!r}")
            continue
        if not line.strip():
            continue
        cells = line.rstrip("\n").split("\t")
        if len(cells) != len(SHEET_COLUMNS):
            problems.append(f"line {lineno}: expected {len(SHEET_COLUMNS)} columns")
            continue
        item_id, _, _, _, extraction_ok, markers_removed = cells
        if item_id not in methods:
            problems.append(f"line {lineno}: unknown item_id {item_id!r}")
            continue
        if item_id in seen:
            problems.append(f"line {lineno}: item_id {item_id!r} repeats line {seen[item_id]}")
            continue
        seen[item_id] = lineno
        if extraction_ok not in ("0", "1") or markers_removed not in ("0", "1"):
            problems.append(
                f"line {lineno}: annotations must be 0 or 1, "
                f"got ({extraction_ok!r}, {markers_removed!r})")
            continue
        tally = counts.setdefault(methods[item_id], [0, 0, 0])
        tally[0] += 1
        tally[1] += int(extraction_ok)
        tally[2] += int(markers_removed)
    if problems:
        raise AuditError(f"{sheet_path}: " + "; ".join(problems))
    if len(seen) != len(methods):
        raise AuditError(
            f"{sheet_path}: {len(seen)} annotated rows but key lists {len(methods)} items")

    per_method = {}
    for method, (n, ok, removed) in counts.items():
        per_method[method] = MethodScore(
            extracted_correct_pct=100.0 * ok / n,
            markers_removed_pct=100.0 * removed / n,
        )
    return AuditResult(per_method=per_method)
