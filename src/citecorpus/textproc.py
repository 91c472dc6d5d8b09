"""Sentence tokenization, citation-pattern matching, sentence cleaning, and
the word tokenizer shared by dataset statistics and the model features.

All operations here are pure functions over immutable inputs and are safe for
unrestricted parallel use. Character offsets are Unicode scalar values
(Python ``str`` indices) throughout.

The three citation regexes are embedded verbatim as ``NUMERIC_CITATION_PATTERN``,
``AUTHOR_YEAR_CITATION_PATTERN`` and ``HANGING_CITATION_PATTERN``; they are
deliberately not "fixed" (e.g. the ``[,-;]`` class is a character range that
admits digits) so that matching behaviour is bit-exact with the published
rules. Use ``citecorpus dump-rules`` to audit them.

Each pattern is compiled once, from its constant, and the checks skip only
text where it cannot match, so every answer is the verbatim search's:

- every numeric match contains ``[`` and every author-year match contains
  ``)``, so ``matches_citation_format`` searches a text for a pattern only
  when it holds that character;
- the hanging pattern is end-anchored, and what it matches after its cue word
  is whitespace and ``,-)].?!`` only, so ``has_hanging_citation_marker``
  searches only the last 14 characters before the text's trailing run of
  those characters (see its docstring).
"""

from __future__ import annotations

import re
import unicodedata
from typing import NamedTuple

# Verbatim citation-format patterns. Pattern semantics, including quirks,
# are frozen by golden tests; do not edit.
NUMERIC_CITATION_PATTERN = r"\[([0-9]+\s*[,-;]*\s*)*[0-9]+\s*\]"
AUTHOR_YEAR_CITATION_PATTERN = r"\(?[12][0-9]{3}[a-z]?\s*\)"
HANGING_CITATION_PATTERN = (
    r"\s+\(?(\(\s*\)|like|reference|including|include|with|for instance"
    r"|for example|see also|at|following|of|from|to|in|by|see|as"
    r"|e\.?g\.?(,)?|viz(\.)?(,)?)\s*(,)*(-)*[\)\]]?\s*[.?!]\s*$"
)

_NUMERIC_RE = re.compile(NUMERIC_CITATION_PATTERN)
_AUTHOR_YEAR_RE = re.compile(AUTHOR_YEAR_CITATION_PATTERN)
_HANGING_RE = re.compile(HANGING_CITATION_PATTERN)

_TERMINALS = ".!?"

# What the hanging pattern can match after its cue word, besides whitespace,
# and how far before those characters its match can start.
_HANGING_TAIL = ",-)].?!"
_HANGING_REACH = 14

# The only characters the splitter acts on: brackets and terminal marks.
_MARK_RE = re.compile(r"[()\[\].!?]")

# Tokens (text up to and including a period) that never end a sentence.
ABBREVIATIONS = (
    "al.",
    "approx.",
    "ca.",
    "cf.",
    "dr.",
    "e.g.",
    "eq.",
    "eqs.",
    "etc.",
    "fig.",
    "figs.",
    "i.e.",
    "mr.",
    "mrs.",
    "ms.",
    "no.",
    "nos.",
    "prof.",
    "ref.",
    "refs.",
    "resp.",
    "sec.",
    "secs.",
    "st.",
    "vs.",
)
_ABBREVIATION_SET = frozenset(ABBREVIATIONS)

# Single initials ("J.") and initialisms ("U.S.") also guard a period.
_INITIALS_RE = re.compile(r"(?:[A-Za-z]\.)+$")

_SUFFIX_AFTER_SPAN_RE = re.compile(r"\s*[.!?]\s*")

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

# On ASCII, ``[^\W_]`` is exactly ``str.isalnum``: this table keeps those
# bytes and turns every other byte into a space, so splitting the translated
# text on whitespace gives ``_TOKEN_RE``'s tokens.
_ASCII_WORD_TABLE = bytes(b if b < 128 and chr(b).isalnum() else 0x20 for b in range(256))


class SentenceSpan(NamedTuple):
    """One sentence of a paragraph, with its character offsets.

    ``text`` equals the paragraph slice ``[start, end)``; sentences of one
    paragraph are non-overlapping and ordered.
    """

    text: str
    start: int
    end: int


def _is_upper(ch: str) -> bool:
    return unicodedata.category(ch) == "Lu"


def _is_nonterminal_punct(ch: str) -> bool:
    return ch not in _TERMINALS and unicodedata.category(ch).startswith("P")


def _guarded_period(text: str, i: int) -> bool:
    """True when the period at index ``i`` ends an abbreviation or initial."""
    j = i
    while j > 0 and not text[j - 1].isspace():
        j -= 1
    token = text[j : i + 1]
    if token.lower() in _ABBREVIATION_SET:
        return True
    return _INITIALS_RE.fullmatch(token) is not None


def _is_sentence_boundary(text: str, i: int) -> bool:
    """True when the terminal mark at index ``i`` ends a sentence.

    A boundary requires at least one whitespace character after the mark and
    an uppercase letter as the next non-whitespace character.
    """
    j = i + 1
    if j >= len(text) or not text[j].isspace():
        return False
    while j < len(text) and text[j].isspace():
        j += 1
    if j >= len(text) or not _is_upper(text[j]):
        return False
    if text[i] == "." and _guarded_period(text, i):
        return False
    return True


def split_sentences(paragraph_text: str) -> list[SentenceSpan]:
    """Split a paragraph into sentence spans.

    Splits occur after '.', '!' or '?' followed by whitespace and an
    uppercase letter, guarded by a fixed abbreviation list and by
    parenthesis/bracket nesting. Joining the spans with their original
    inter-span whitespace reproduces the paragraph exactly.
    """
    boundaries: list[int] = []
    depth = 0
    for mark in _MARK_RE.finditer(paragraph_text):
        ch = mark.group()
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth = max(0, depth - 1)
        elif depth == 0:
            i = mark.start()
            if _is_sentence_boundary(paragraph_text, i):
                boundaries.append(i + 1)

    spans: list[SentenceSpan] = []
    seg_start = 0
    for seg_end in [*boundaries, len(paragraph_text)]:
        segment = paragraph_text[seg_start:seg_end]
        stripped = segment.strip()
        if stripped:
            start = seg_start + (len(segment) - len(segment.lstrip()))
            spans.append(SentenceSpan(stripped, start, start + len(stripped)))
        seg_start = seg_end
    return spans


def find_numeric_citations(text: str) -> list[tuple[int, int]]:
    """Offsets of every bracketed-numeric citation match in ``text``."""
    return [m.span() for m in _NUMERIC_RE.finditer(text)]


def find_author_year_citations(text: str) -> list[tuple[int, int]]:
    """Offsets of every parenthetical-year citation match in ``text``."""
    return [m.span() for m in _AUTHOR_YEAR_RE.finditer(text)]


def matches_citation_format(span_text: str) -> bool:
    """True when the span text contains either citation-format pattern.

    A text without ``[`` holds no numeric match and one without ``)`` no
    author-year match (each pattern matches that character literally), so
    the pattern is searched for only when its character is there.
    """
    return ("[" in span_text and _NUMERIC_RE.search(span_text) is not None) or (
        ")" in span_text and _AUTHOR_YEAR_RE.search(span_text) is not None)


def citation_at_sentence_end(sentence_text: str, start: int, end: int) -> bool:
    """True when only whitespace and one terminal mark follow the span.

    ``start``/``end`` are offsets relative to ``sentence_text``; the span
    must lie within the sentence.
    """
    if not 0 <= start < end <= len(sentence_text):
        raise ValueError(f"span ({start}, {end}) outside sentence of length {len(sentence_text)}")
    return _SUFFIX_AFTER_SPAN_RE.fullmatch(sentence_text[end:]) is not None


def remove_citation_spans(sentence_text: str, spans: list[tuple[int, int]]) -> str:
    """Delete the given spans from a sentence.

    Spans must be sorted, non-overlapping and in bounds. Whitespace runs left
    over at a deletion point are collapsed so no doubled space remains, and no
    space is left before terminal punctuation.
    """
    prev_end = 0
    pieces: list[str] = []
    for start, end in spans:
        if not 0 <= start < end <= len(sentence_text):
            raise ValueError(
                f"citation span ({start}, {end}) out of bounds for sentence of length "
                f"{len(sentence_text)}"
            )
        if start < prev_end:
            raise ValueError(f"citation span ({start}, {end}) overlaps or is out of order")
        pieces.append(sentence_text[prev_end:start])
        prev_end = end
    pieces.append(sentence_text[prev_end:])

    result = pieces[0]
    for piece in pieces[1:]:
        if result and piece and result[-1].isspace():
            if piece[0].isspace() or piece[0] in _TERMINALS:
                result = result.rstrip()
        result += piece
    return result


def strip_hanging_punctuation(sentence_text: str) -> str:
    """Remove hanging punctuation from the sentence tail.

    Trailing whitespace and punctuation other than '.', '!' or '?' are
    removed, both after and immediately before the terminal mark, until the
    sentence ends in a terminal mark. If no terminal mark anchors the tail
    the sentence is returned unchanged for the well-formedness check to
    reject.
    """
    s = sentence_text.rstrip()
    while s and _is_nonterminal_punct(s[-1]):
        s = s[:-1].rstrip()
    if not s or s[-1] not in _TERMINALS:
        return sentence_text
    terminal = s[-1]
    body = s[:-1].rstrip()
    while body and _is_nonterminal_punct(body[-1]):
        body = body[:-1].rstrip()
    return body + terminal


def has_hanging_citation_marker(sentence_text: str) -> bool:
    """True when the end-anchored hanging-citation pattern matches.

    The search starts 14 characters before ``k``, the start of the text's
    trailing run of whitespace and ``,-)].?!``, and finds a match whenever
    the whole text holds one. The pattern ends at the end of the text (or
    before a final newline), and all it matches after its cue is whitespace
    (the regex's whitespace class is ``str.isspace``, code point for code
    point) and those characters. So the cue's last character outside that
    set is at ``k - 1``: the ``(`` of ``( )``, the ``g`` or ``z`` of
    ``e.g.,`` and ``viz.,``, a cue word's last letter. The cue then starts
    at ``k - 12`` or later ("for instance" is the longest), and the optional
    ``(`` and one whitespace character before it start a match at
    ``k - 14`` or later.
    """
    k = len(sentence_text)
    while k and (sentence_text[k - 1] in _HANGING_TAIL or sentence_text[k - 1].isspace()):
        k -= 1
    return _HANGING_RE.search(sentence_text, max(0, k - _HANGING_REACH)) is not None


def is_well_formed(sentence_text: str) -> bool:
    """Capital first letter, terminal last character, length over 20."""
    return (
        len(sentence_text) > 20
        and _is_upper(sentence_text[0])
        and sentence_text[-1] in _TERMINALS
    )


def tokenize(text: str) -> list[str]:
    """Lowercase word tokens split on non-alphanumeric boundaries.

    Text that is ASCII once lowercased (the Kelvin sign lowers to ``k``)
    takes a byte translation and a whitespace split, other text
    ``_TOKEN_RE``; both give the same tokens."""
    text = text.lower()
    if text.isascii():
        return text.encode("ascii").translate(_ASCII_WORD_TABLE).decode("ascii").split()
    return _TOKEN_RE.findall(text)
