"""Reference sentence splitter for the oracle side of splitter tests.

A verbatim copy of the character-by-character ``split_sentences`` the
regex-driven production splitter replaced, with its helpers and rule
tables. The tests compare the two span for span, so the production splitter
must keep exactly these rules: the uppercase-follows check, the abbreviation
and initial guards, and the bracket depth clamped at zero.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass

_TERMINALS = ".!?"

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


@dataclass(frozen=True)
class SentenceSpan:
    """One sentence of a paragraph, with its character offsets.

    ``text`` equals the paragraph slice ``[start, end)``; sentences of one
    paragraph are non-overlapping and ordered.
    """

    text: str
    start: int
    end: int


def _is_upper(ch: str) -> bool:
    return unicodedata.category(ch) == "Lu"


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
    for i, ch in enumerate(paragraph_text):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth = max(0, depth - 1)
        elif ch in _TERMINALS and depth == 0 and _is_sentence_boundary(paragraph_text, i):
            boundaries.append(i + 1)

    spans: list[SentenceSpan] = []
    seg_start = 0
    for seg_end in [*boundaries, len(paragraph_text)]:
        segment = paragraph_text[seg_start:seg_end]
        stripped = segment.strip()
        if stripped:
            start = seg_start + (len(segment) - len(segment.lstrip()))
            end = start + len(stripped)
            spans.append(SentenceSpan(text=paragraph_text[start:end], start=start, end=end))
        seg_start = seg_end
    return spans
