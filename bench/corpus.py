"""Seeded input generator for the benchmark.

The generator belongs to the benchmark, not to the test suite, so that edits
to ``tests/corpusgen.py`` never shift a workload. It imports nothing from
``citecorpus``: the inputs depend only on the seed and the sizes asked for.
(``self_check`` is the one exception; it runs the program's own paragraph
code over a generated corpus.)

Text comes from a seeded Zipf lexicon of pseudo-words, so a corpus of a few
thousand papers has a vocabulary of tens of thousands of terms. Each field
has its own topical slice of the lexicon and cite-worthy sentences lean on a
set of cue words, so the classifier has something to learn and the
cross-domain grid is not flat.

Every paragraph is built to have exactly one outcome under the pipeline
rules: accepted, or rejected with one known code. The generator records the
expected outcome of every paragraph, the malformed lines and the ineligible
papers, so the benchmark can check the program's outputs against them.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

FIELDS = (
    "Biology", "Medicine", "Engineering", "Chemistry", "Psychology",
    "Computer Science", "Materials Science", "Economics", "Mathematics", "Physics",
)
OUT_OF_SCOPE_FIELDS = ("Geology", "Art", "History", "Philosophy")

# Section titles the pipeline accepts, written the way papers write them
# (the pipeline lowercases and trims), and titles it rejects.
ALLOWED_SECTIONS = (
    "Introduction", "Methods", "Results", "Discussion", "Conclusion",
    "Related Work", "Background", "Experiments", "Results and Discussion",
    "Methodology", "Evaluation", "Analysis", " Material and Methods ",
    "EXPERIMENTAL RESULTS", "future work",
)
REJECTED_SECTIONS = ("Acknowledgements", "Appendix A", "Funding", "Author Contributions",
                     "Supplementary Material")

REJECTION_CODES = ("bad-section", "missed-citation", "bad-format", "not-at-end",
                   "hanging-marker", "malformed-sentence", "ambiguous-field")
# Adversarial paragraph kind -> the rejection code it must draw.
ADVERSARIAL_KINDS = {
    "missed": "missed-citation",
    "badspan": "bad-format",
    "midspan": "not-at-end",
    "hangmark": "hanging-marker",
    "illformed": "malformed-sentence",
    "badsection": "bad-section",
}

# Words the hanging-marker rule looks for at a sentence end, and splitter
# abbreviations: no pseudo-word may equal one of these, and no clean
# sentence ends on one.
HANGING_WORDS = ("like", "reference", "including", "include", "with", "at", "following",
                 "of", "from", "to", "in", "by", "see", "as", "viz")
ABBREVIATION_STEMS = ("al", "approx", "ca", "cf", "dr", "eq", "eqs", "etc", "fig", "figs",
                      "no", "nos", "prof", "ref", "refs", "resp", "sec", "secs", "st", "vs",
                      "mr", "mrs", "ms")
FUNCTION_WORDS = ("the", "of", "and", "in", "to", "a", "is", "for", "that", "with", "on",
                  "was", "are", "by", "this", "we", "as", "from", "at", "which")
MID_SENTENCE_PHRASES = ("e.g. {Name}", "cf. {Name}", "vs. {Name}", "Fig. 3", "U.S. {Name}",
                        "(see {word} {word})", "{n}.{n}%", "({word}, {word})")

_ONSETS = ("b", "c", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p", "r", "s", "t", "v",
           "w", "z", "br", "ch", "cl", "dr", "fl", "gr", "kr", "pl", "pr", "sh", "st", "th",
           "tr", "")
_NUCLEI = ("a", "e", "i", "o", "u", "ai", "ea", "io", "ou", "y")
_CODAS = ("", "", "n", "r", "s", "t", "l", "m", "x", "nd", "st", "rk")
_SYLLABLES = tuple(o + n + c for o in _ONSETS for n in _NUCLEI for c in _CODAS)

ZIPF_EXPONENT = 1.05
LEXICON_SIZE = 50_000
N_CUE_WORDS = 300
FIELD_SLICE = 3_000


@dataclass
class Corpus:
    """A generated corpus file and everything the generator knows about it."""

    path: Path
    bytes: int
    sha256: str
    lines: int
    malformed_lines: int
    papers: int
    eligible: int
    # (paper_id, paragraph_index, code) for every rejected paragraph, in the
    # order ``rejections.jsonl`` lists them.
    rejections: list[tuple[str, int, str]] = field(default_factory=list)
    accepted_by_field: dict[str, int] = field(default_factory=dict)

    @property
    def accepted(self) -> int:
        return sum(self.accepted_by_field.values())

    def record(self) -> dict:
        return {"path": self.path.name, "bytes": self.bytes, "sha256": self.sha256,
                "lines": self.lines, "malformed_lines": self.malformed_lines,
                "papers": self.papers, "eligible": self.eligible,
                "paragraphs_rejected": len(self.rejections),
                "paragraphs_accepted": self.accepted}


class Lexicon:
    """Pseudo-words drawn with Zipf weights; rank 0 is the most frequent."""

    def __init__(self, rng: random.Random, size: int):
        banned = set(HANGING_WORDS) | set(ABBREVIATION_STEMS) | set(FUNCTION_WORDS)
        words: list[str] = []
        seen: set[str] = set()
        while len(words) < size:
            lengths = rng.choices((1, 2, 2, 3, 3, 4), k=size)
            syllables = iter(rng.choices(_SYLLABLES, k=sum(lengths)))
            for n in lengths:
                word = "".join(next(syllables) for _ in range(n))
                if len(word) >= 3 and word not in banned and word not in seen:
                    seen.add(word)
                    words.append(word)
        del words[size:]
        self.words = words
        self.cum_weights = _zipf_cum_weights(size)


def _zipf_cum_weights(size: int) -> list[float]:
    total = 0.0
    cum = []
    for rank in range(1, size + 1):
        total += rank ** -ZIPF_EXPONENT
        cum.append(total)
    return cum


def _mixture(parts: list[tuple[tuple[list[str], list[float]], float]]
             ) -> tuple[list[str], list[float]]:
    """One population and cumulative weights drawing each part with its share."""
    population: list[str] = []
    cum: list[float] = []
    total = 0.0
    for (words, weights), share in parts:
        scale = share / weights[-1]
        population.extend(words)
        cum.extend([total + w * scale for w in weights])
        total += share
    return population, cum


class _Writer:
    """Sentence and paragraph builders over one lexicon and one generator."""

    def __init__(self, rng: random.Random, lexicon: Lexicon):
        self.rng = rng
        self.lex = lexicon
        words = lexicon.words
        # Cue words favoured by cite-worthy sentences; each field draws
        # topical words from its own slice of the lexicon. Each (field,
        # cited) pair gets one mixture so a sentence costs one draw per word.
        cues = (words[200:200 + N_CUE_WORDS], _zipf_cum_weights(N_CUE_WORDS))
        function_words = (FUNCTION_WORDS, list(range(1, len(FUNCTION_WORDS) + 1)))
        common = (words, lexicon.cum_weights)
        self.mixtures = {}
        for k, name in enumerate(FIELDS):
            start = 1000 + k * FIELD_SLICE
            topical = (words[start:start + FIELD_SLICE], _zipf_cum_weights(FIELD_SLICE))
            self.mixtures[name, False] = _mixture(
                [(function_words, 0.15), (topical, 0.30), (common, 0.55)])
            self.mixtures[name, True] = _mixture(
                [(function_words, 0.15), (topical, 0.30), (cues, 0.15), (common, 0.40)])

    def words(self, n: int, field_name: str, cited: bool) -> list[str]:
        population, cum_weights = self.mixtures[field_name, cited]
        return self.rng.choices(population, cum_weights=cum_weights, k=n)

    def _content_word(self) -> str:
        return self.rng.choices(self.lex.words, cum_weights=self.lex.cum_weights)[0]

    def _name(self) -> str:
        return self._content_word().capitalize()

    def _phrase(self) -> str:
        rng = self.rng
        template = rng.choice(MID_SENTENCE_PHRASES)
        return (template.replace("{Name}", self._name())
                .replace("{word}", self._content_word(), 1)
                .replace("{word}", self._content_word(), 1)
                .replace("{n}", str(rng.randint(1, 99)), 1)
                .replace("{n}", str(rng.randint(0, 9)), 1))

    def body(self, field_name: str, cited: bool, lo: int = 8, hi: int = 24) -> str:
        """Sentence text without its terminal mark: capitalized, at least
        21 characters, ending on a content word."""
        rng = self.rng
        words = self.words(rng.randint(lo, hi), field_name, cited)
        if rng.random() < 0.2:
            words.insert(rng.randint(1, len(words) - 1), self._phrase())
        if rng.random() < 0.25:
            k = rng.randint(1, len(words) - 2)
            words[k] += ","
        words[-1] = self._content_word()
        words[0] = words[0].capitalize()
        text = " ".join(words)
        while len(text) <= 24:
            text += " " + self._content_word()
        return text

    def citation(self) -> str:
        rng = self.rng
        roll = rng.random()
        first = rng.randint(1, 80)
        if roll < 0.3:
            return f"[{first}]"
        if roll < 0.45:
            return f"[{first}, {first + rng.randint(1, 9)}]"
        if roll < 0.55:
            return f"[{first}-{first + rng.randint(1, 9)}]"
        year = rng.randint(1950, 2020)
        if roll < 0.75:
            return f"({self._name()} et al., {year})"
        if roll < 0.9:
            return f"({self._name()}, {year})"
        return f"({self._name()} and {self._name()}, {year}{rng.choice('ab')})"

    def clean_sentence(self, field_name: str) -> tuple[str, list[tuple[int, int]]]:
        cited = self.rng.random() < 0.4
        base = self.body(field_name, cited)
        if cited:
            cite = self.citation()
            return f"{base} {cite}.", [(len(base) + 1, len(base) + 1 + len(cite))]
        return f"{base}.", []

    def adversarial_sentence(self, kind: str, field_name: str
                             ) -> tuple[str, list[tuple[int, int]], bool]:
        """(text, spans, must_come_first) for one planted defect."""
        rng = self.rng
        if kind == "missed":
            return f"{self.body(field_name, True)} {self.citation()}.", [], False
        if kind == "badspan":
            base = self.body(field_name, False)
            start = base.index(" ") + 1
            end = base.find(" ", start)
            return f"{base}.", [(start, end if end > 0 else len(base))], False
        if kind == "midspan":
            head = self.body(field_name, True, 4, 10)
            cite = self.citation()
            tail = " ".join(self.words(rng.randint(3, 8), field_name, False)[:-1]
                            + [self._content_word()])
            return (f"{head} {cite} {tail}.",
                    [(len(head) + 1, len(head) + 1 + len(cite))], False)
        if kind == "hangmark":
            base = f"{self.body(field_name, True, 4, 14)} {rng.choice(HANGING_WORDS)}"
            cite = self.citation()
            return f"{base} {cite}.", [(len(base) + 1, len(base) + 1 + len(cite))], False
        if kind == "illformed":
            if rng.random() < 0.5:
                return f"{self.body(field_name, False).lower()}.", [], True
            # At most 18 characters: too short to be well formed.
            return f"{self._name()[:10]} {self._content_word()[:6]}.", [], False
        raise ValueError(f"unknown paragraph kind {kind!r}")

    def paragraph(self, kind: str, field_name: str) -> dict:
        rng = self.rng
        section = rng.choice(ALLOWED_SECTIONS)
        parts = [self.clean_sentence(field_name) for _ in range(rng.randint(1, 4))]
        if kind == "badsection":
            section = rng.choice(REJECTED_SECTIONS)
        elif kind != "clean":
            text, spans, first = self.adversarial_sentence(kind, field_name)
            parts.insert(0 if first else rng.randint(0, len(parts)), (text, spans))
        return _compose(section, parts)


def _compose(section: str, parts: list[tuple[str, list[tuple[int, int]]]]) -> dict:
    pieces = []
    spans = []
    offset = 0
    for text, rel_spans in parts:
        if pieces:
            pieces.append(" ")
            offset += 1
        for start, end in rel_spans:
            spans.append({"start": offset + start, "end": offset + end,
                          "ref_id": f"b{len(spans)}"})
        pieces.append(text)
        offset += len(text)
    return {"section": section, "text": "".join(pieces), "cite_spans": spans}


_MALFORMED_LINES = (
    '{"paper_id": "broken", "abstract": "truncated',
    "",
    "[1, 2, 3]",
    '{"paper_id": "", "body_text": []}',
    '{"paper_id": "bad-body", "body_text": "not a list", "has_tables_figures": true}',
    '{"paper_id": "bad-flag", "body_text": [], "has_tables_figures": "yes"}',
)
_INELIGIBLE_EDITS = (
    ("abstract", None), ("venue", ""), ("bib_entries", {}), ("has_tables_figures", False),
    ("inbound_citations", 0), ("mag_field_of_study", []), ("body_text", []),
)


def generate(path: str | Path, n_papers: int, seed: int, adversarial_rate: float = 0.3,
             ambiguous_rate: float = 0.05, ineligible_rate: float = 0.02,
             malformed_rate: float = 0.005) -> Corpus:
    """Write a corpus of ``n_papers`` papers plus malformed lines to ``path``."""
    rng = random.Random(f"citecorpus-bench|{seed}")
    writer = _Writer(rng, Lexicon(rng, LEXICON_SIZE))
    path = Path(path)
    lines: list[str] = []
    rejections: list[tuple[str, int, str]] = []
    malformed = eligible = 0
    accepted_by_field = dict.fromkeys(FIELDS, 0)
    adversarial = tuple(ADVERSARIAL_KINDS)
    for i in range(n_papers):
        if rng.random() < malformed_rate:
            lines.append(rng.choice(_MALFORMED_LINES))
            malformed += 1
        paper_id = f"W{i:06d}"
        home = FIELDS[i % len(FIELDS)]
        fields = [home]
        ambiguous = rng.random() < ambiguous_rate
        if ambiguous:
            other = rng.choice([f for f in FIELDS if f != home])
            fields = rng.choice(([home, other], [rng.choice(OUT_OF_SCOPE_FIELDS)]))
        elif rng.random() < 0.1:
            fields.append(rng.choice(OUT_OF_SCOPE_FIELDS))
        kinds = [rng.choice(adversarial) if rng.random() < adversarial_rate else "clean"
                 for _ in range(rng.randint(2, 5))]
        record = {
            "paper_id": paper_id,
            "abstract": writer.body(home, False) + ".",
            "body_text": [writer.paragraph(kind, home) for kind in kinds],
            "bib_entries": {f"b{k}": {"title": " ".join(writer.words(5, home, False))}
                            for k in range(3)},
            "has_tables_figures": True,
            "venue": f"Journal of {home}",
            "inbound_citations": rng.randint(1, 300),
            "mag_field_of_study": fields,
        }
        if rng.random() < ineligible_rate:
            key, value = rng.choice(_INELIGIBLE_EDITS)
            record[key] = value
        else:
            eligible += 1
            for idx, kind in enumerate(kinds):
                if kind == "badsection":
                    rejections.append((paper_id, idx, "bad-section"))
                elif ambiguous:
                    rejections.append((paper_id, idx, "ambiguous-field"))
                elif kind == "clean":
                    accepted_by_field[home] += 1
                else:
                    rejections.append((paper_id, idx, ADVERSARIAL_KINDS[kind]))
        lines.append(json.dumps(record, ensure_ascii=False))
    data = ("\n".join(lines) + "\n").encode("utf-8")
    path.write_bytes(data)
    return Corpus(path=path, bytes=len(data), sha256=hashlib.sha256(data).hexdigest(),
                  lines=len(lines), malformed_lines=malformed,
                  papers=len(lines) - malformed, eligible=eligible,
                  rejections=rejections, accepted_by_field=accepted_by_field)


def write_distances(path: str | Path, seed: int) -> Path:
    """A symmetric 10x10 field distance matrix with a zero diagonal."""
    rng = random.Random(f"citecorpus-bench-distances|{seed}")
    path = Path(path)
    dist = {}
    for a in range(len(FIELDS)):
        for b in range(a, len(FIELDS)):
            dist[a, b] = dist[b, a] = 0.0 if a == b else round(rng.uniform(0.5, 3.0), 4)
    rows = ["\t" + "\t".join(FIELDS)]
    for a, name in enumerate(FIELDS):
        rows.append("\t".join([name] + [repr(dist[a, b]) for b in range(len(FIELDS))]))
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


def self_check(corpus: Corpus) -> list[str] | None:
    """Run ``pipeline.process_paper`` over every eligible paper and compare
    each paragraph's outcome with the generator's intent.

    Returns a list of problems; empty when every clean paragraph was accepted
    and every planted defect drew its code. Returns None when the program no
    longer has the functions this check calls.
    """
    from citecorpus import ingest, pipeline

    if not all(hasattr(ingest, name) for name in ("read_corpus", "paper_eligible")) \
            or not hasattr(pipeline, "process_paper"):
        return None
    expected = {(pid, idx): code for pid, idx, code in corpus.rejections}
    problems = []
    with open(corpus.path, "rb") as fh:
        for paper in ingest.read_corpus(fh, on_malformed=lambda diag: None):
            if not ingest.paper_eligible(paper):
                continue
            samples, rejected = pipeline.process_paper(paper)
            for sample in samples:
                code = expected.get((paper.paper_id, sample.paragraph_index))
                if code is not None:
                    problems.append(f"{paper.paper_id} paragraph {sample.paragraph_index}: "
                                    f"accepted, expected {code}")
            for rec in rejected:
                code = expected.get((rec.paper_id, rec.paragraph_index))
                if code != rec.reason.code:
                    problems.append(f"{rec.paper_id} paragraph {rec.paragraph_index}: "
                                    f"{rec.reason.code}, expected {code or 'accepted'}")
    return problems
