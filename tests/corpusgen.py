"""Deterministic synthetic-corpus builder for pipeline and CLI tests.

Generates input-schema records whose clean sentences are guaranteed to pass
every pipeline check (capital start, length over 20, terminal period, no
stray citation-format or marker-word tails), and can plant known pathologies:
citations the extractor "missed", mid-sentence spans, prepositional hanging
markers, ill-formed sentences, spans over non-citation text, off-list
sections, and ambiguous-field papers.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from citecorpus.ingest import PaperRecord, parse_record
from citecorpus.pipeline import MAG_FIELDS

FIELDS = list(MAG_FIELDS)

SUBJECTS = [
    "The measured signal",
    "The control cohort",
    "Annual rainfall",
    "The reaction yield",
    "Median response time",
    "The sampled population",
    "Grain boundary motion",
    "Household consumption",
    "The iterative solver",
    "Surface conductivity",
]
VERBS = [
    "remained stable across",
    "increased sharply within",
    "declined steadily over",
    "varied noticeably between",
    "converged quickly under",
    "dominated the variance across",
]
# Verb bank biased toward citation-bearing sentences, so synthetic datasets
# carry a learnable lexical signal the way real citing sentences do.
CITED_VERBS = [
    "was previously reported across",
    "has been documented within",
    "matched earlier measurements over",
    "replicated published findings across",
]
OBJECTS = [
    "the observed region",
    "both experimental groups",
    "all twelve trials",
    "the later seasons",
    "the tested devices",
    "every simulated network",
    "the rural districts",
    "the polymer layers",
    "the benchmark suites",
    "adjacent river basins",
]
NAMES = ["Alder", "Brandt", "Calvino", "Dorsey", "Eriksen", "Farrow", "Grieve", "Holt"]

CLEAN_SECTIONS = ["Introduction", "Methods", "Results", "Discussion", "Background"]
HANGING_TAILS = [
    "This was shown by the work of",
    "Full parameter tables are provided in",
    "Matching results were reported by",
]

PARAGRAPH_KINDS = ("clean", "missed", "midspan", "hangmark", "illformed", "badspan",
                   "badsection")


def _base_sentence(rng: random.Random, cited: bool = False) -> str:
    verbs = CITED_VERBS if cited and rng.random() < 0.7 else VERBS
    return f"{rng.choice(SUBJECTS)} {rng.choice(verbs)} {rng.choice(OBJECTS)}"


def _citation(rng: random.Random) -> str:
    if rng.random() < 0.5:
        first = rng.randint(1, 40)
        style = rng.random()
        if style < 0.5:
            return f"[{first}]"
        if style < 0.75:
            return f"[{first}, {first + rng.randint(1, 5)}]"
        return f"[{first}-{first + rng.randint(1, 5)}]"
    name = rng.choice(NAMES)
    year = rng.randint(1981, 2019)
    if rng.random() < 0.5:
        return f"({name} et al., {year})"
    return f"({name}, {year})"


def _compose(sentence_parts: list[tuple[str, list[tuple[int, int]]]],
             ref_prefix: str) -> tuple[str, list[dict]]:
    """Join per-sentence (text, relative spans) into paragraph text + spans."""
    pieces = []
    spans = []
    offset = 0
    for k, (text, rel_spans) in enumerate(sentence_parts):
        if k:
            pieces.append(" ")
            offset += 1
        for n, (start, end) in enumerate(rel_spans):
            spans.append({"start": offset + start, "end": offset + end,
                          "ref_id": f"{ref_prefix}{len(spans)}"})
        pieces.append(text)
        offset += len(text)
    return "".join(pieces), spans


def _clean_sentence(rng: random.Random, cite_rate=0.45) -> tuple[str, list[tuple[int, int]]]:
    cited = rng.random() < cite_rate
    base = _base_sentence(rng, cited=cited)
    if cited:
        cite = " " + _citation(rng)
        return f"{base}{cite}.", [(len(base), len(base) + len(cite))]
    return f"{base}.", []


def _paragraph(kind: str, rng: random.Random) -> dict:
    section = rng.choice(CLEAN_SECTIONS)
    n_clean = rng.randint(1, 3)
    parts = [_clean_sentence(rng) for _ in range(n_clean)]

    if kind == "missed":
        base = _base_sentence(rng)
        parts.append((f"{base} {_citation(rng)}.", []))
    elif kind == "midspan":
        tail = f"{rng.choice(VERBS)} {rng.choice(OBJECTS)}"
        cite = _citation(rng)
        text = f"Within {cite}, the cohort {tail}."
        start = len("Within ")
        parts.append((text, [(start, start + len(cite))]))
    elif kind == "hangmark":
        base = rng.choice(HANGING_TAILS)
        cite = " " + _citation(rng)
        parts.append((f"{base}{cite}.", [(len(base), len(base) + len(cite))]))
    elif kind == "illformed":
        if rng.random() < 0.5:
            parts.append((f"{_base_sentence(rng).lower()}.", []))
        else:
            parts.append(("Tiny claim here.", []))
    elif kind == "badspan":
        base = _base_sentence(rng)
        word_start = base.index(" ") + 1
        word_end = base.index(" ", word_start)
        parts.append((f"{base}.", [(word_start, word_end)]))
    elif kind == "badsection":
        section = "Acknowledgements"
    elif kind != "clean":
        raise ValueError(f"unknown paragraph kind {kind!r}")

    rng.shuffle(parts)
    text, spans = _compose(parts, ref_prefix="b")
    return {"section": section, "text": text, "cite_spans": spans}


def make_papers(
    n_papers: int,
    seed: int,
    adversarial_rate: float = 0.0,
    fields: list[str] | None = None,
    paragraphs_per_paper: tuple[int, int] = (1, 3),
    ambiguous_rate: float | None = None,
    ineligible_rate: float = 0.0,
    id_prefix: str = "paper",
) -> list[dict]:
    """Build input-schema paper records, round-robin over ``fields``."""
    rng = random.Random(f"corpusgen|{seed}")
    fields = fields or FIELDS
    if ambiguous_rate is None:
        ambiguous_rate = adversarial_rate * 0.15
    records = []
    for i in range(n_papers):
        field = fields[i % len(fields)]
        mag = [field]
        if rng.random() < ambiguous_rate:
            other = rng.choice([f for f in FIELDS if f != field])
            mag = [field, other]
        paragraphs = []
        for _ in range(rng.randint(*paragraphs_per_paper)):
            if rng.random() < adversarial_rate:
                kind = rng.choice(PARAGRAPH_KINDS[1:])
            else:
                kind = "clean"
            paragraphs.append(_paragraph(kind, rng))
        record = {
            "paper_id": f"{id_prefix}-{i:05d}",
            "abstract": "A compact abstract describing the study design.",
            "body_text": paragraphs,
            "bib_entries": {"b0": {"title": "A cited study"}},
            "has_tables_figures": True,
            "venue": "Synthetic Proceedings",
            "inbound_citations": rng.randint(1, 50),
            "mag_field_of_study": mag,
        }
        if ineligible_rate and rng.random() < ineligible_rate:
            record[rng.choice(["abstract", "venue", "bib_entries"])] = None
        records.append(record)
    return records


def parse_papers(records: list[dict]) -> list[PaperRecord]:
    return [parse_record(r) for r in records]


def write_corpus(records: list[dict], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def make_corpus_file(
    path: str | Path,
    n_papers: int,
    seed: int,
    **kwargs,
) -> list[dict]:
    records = make_papers(n_papers, seed, **kwargs)
    write_corpus(records, path)
    return records
