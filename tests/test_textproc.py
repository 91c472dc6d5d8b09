"""Unit tests for sentence splitting, citation matching, and cleaning."""

import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citecorpus.textproc import (
    _TOKEN_RE,
    AUTHOR_YEAR_CITATION_PATTERN,
    HANGING_CITATION_PATTERN,
    NUMERIC_CITATION_PATTERN,
    citation_at_sentence_end,
    find_author_year_citations,
    find_numeric_citations,
    has_hanging_citation_marker,
    is_well_formed,
    matches_citation_format,
    remove_citation_spans,
    split_sentences,
    strip_hanging_punctuation,
    tokenize,
)
from corpusgen import make_papers
from refsplit import split_sentences as ref_split_sentences

# Golden transcriptions; the embedded constants must stay byte-identical.
GOLDEN_NUMERIC = r"\[([0-9]+\s*[,-;]*\s*)*[0-9]+\s*\]"
GOLDEN_AUTHOR_YEAR = r"\(?[12][0-9]{3}[a-z]?\s*\)"
GOLDEN_HANGING = (
    r"\s+\(?(\(\s*\)|like|reference|including|include|with|for instance"
    r"|for example|see also|at|following|of|from|to|in|by|see|as"
    r"|e\.?g\.?(,)?|viz(\.)?(,)?)\s*(,)*(-)*[\)\]]?\s*[.?!]\s*$"
)


class TestPatternFidelity:
    def test_numeric_pattern_is_frozen(self):
        assert NUMERIC_CITATION_PATTERN == GOLDEN_NUMERIC

    def test_author_year_pattern_is_frozen(self):
        assert AUTHOR_YEAR_CITATION_PATTERN == GOLDEN_AUTHOR_YEAR

    def test_hanging_pattern_is_frozen(self):
        assert HANGING_CITATION_PATTERN == GOLDEN_HANGING


class TestSplitSentences:
    def test_empty_input(self):
        assert split_sentences("") == []

    def test_whitespace_only(self):
        assert split_sentences("   \n ") == []

    def test_canonical_two_sentences(self):
        spans = split_sentences("Cats purr. Dogs bark.")
        assert [s.text for s in spans] == ["Cats purr.", "Dogs bark."]
        assert [(s.start, s.end) for s in spans] == [(0, 10), (11, 21)]

    # Expected splits enumerated by hand against the documented rule.
    @pytest.mark.parametrize(
        "paragraph,expected",
        [
            (
                "This was shown by Smith et al. (2001). It holds.",
                ["This was shown by Smith et al. (2001).", "It holds."],
            ),
            ("See Fig. 3 for the setup. The effect is clear.",
             ["See Fig. 3 for the setup.", "The effect is clear."]),
            ("We use tools, e.g. Hammers and saws. They work.",
             ["We use tools, e.g. Hammers and saws.", "They work."]),
            ("J. Smith proved it. Q. Was it novel?",
             ["J. Smith proved it.", "Q. Was it novel?"]),
            ("Values differ (3.5 vs. 4.1 approx. Overall). Next claim here.",
             ["Values differ (3.5 vs. 4.1 approx. Overall).", "Next claim here."]),
            ("A question? Yes! Then a claim.",
             ["A question?", "Yes!", "Then a claim."]),
            ("No uppercase follows. here we stay joined.",
             ["No uppercase follows. here we stay joined."]),
            ("Trailing fragment stays. no end",
             ["Trailing fragment stays. no end"]),
            ("One sentence without a terminal",
             ["One sentence without a terminal"]),
        ],
    )
    def test_abbreviation_and_guard_suite(self, paragraph, expected):
        assert [s.text for s in split_sentences(paragraph)] == expected

    def test_spans_slice_back_into_paragraph(self):
        paragraph = "  First claim holds. Second one follows!  "
        for span in split_sentences(paragraph):
            assert paragraph[span.start : span.end] == span.text

    def test_round_trip_property(self):
        # Joining spans with their original inter-span gaps reproduces the
        # paragraph; gaps are pure whitespace.
        rng = random.Random(1234)
        pool = [
            "The first effect was strong.",
            "A second cohort agreed!",
            "Was the third cohort different?",
            "Smith et al. (2001) argued otherwise.",
            "Totals are given in Fig. 4 below.",
        ]
        for _ in range(200):
            gap_choices = [" ", "  ", "\n", " \n "]
            parts = []
            for k in range(rng.randint(1, 5)):
                if k or rng.random() < 0.3:
                    parts.append(rng.choice(gap_choices))
                parts.append(rng.choice(pool))
            if rng.random() < 0.3:
                parts.append(rng.choice(gap_choices))
            paragraph = "".join(parts)
            spans = split_sentences(paragraph)
            cursor = 0
            for span in spans:
                assert paragraph[cursor : span.start].strip() == ""
                assert paragraph[span.start : span.end] == span.text
                assert span.start >= cursor
                cursor = span.end
            assert paragraph[cursor:].strip() == ""


def spans_of(spans):
    return [(s.text, s.start, s.end) for s in spans]


# Text rich in what the splitter acts on: terminal marks, brackets, mixed
# whitespace (NBSP included), ASCII and non-ASCII uppercase, abbreviations
# and initials.
_SPLITTER_PIECES = st.one_of(
    st.sampled_from([". ", "? ", "! ", ".\n", ".\u00a0", ". \t", "(", ")", "[", "]", " ",
                     "Word", "word", "Élan", "Σigma", "ωmega", "e.g.", "Fig.", "fig.", "J.",
                     "U.S.", "al.", "etc.", "vs.", "i.e.", "3.5", "[12]", "(2001)", "...",
                     "?!"]),
    st.text(alphabet="aZxQ.!?()[] \n\t\u00a0,;ÉΣéσ1", min_size=1, max_size=4),
)
_SPLITTER_TEXT = st.lists(_SPLITTER_PIECES, max_size=30).map("".join)


class TestSplitterOracle:
    """The production splitter against the verbatim reference in refsplit.py."""

    @settings(max_examples=400, deadline=None)
    @given(_SPLITTER_TEXT)
    def test_equal_spans_on_generated_text(self, paragraph):
        assert spans_of(split_sentences(paragraph)) == spans_of(ref_split_sentences(paragraph))

    def test_equal_spans_on_every_corpusgen_paragraph(self):
        records = make_papers(n_papers=300, seed=77, adversarial_rate=0.5,
                              paragraphs_per_paper=(1, 4))
        paragraphs = [p["text"] for r in records for p in r["body_text"]]
        assert len(paragraphs) >= 600
        for paragraph in paragraphs:
            assert spans_of(split_sentences(paragraph)) == \
                spans_of(ref_split_sentences(paragraph)), paragraph


class TestFindCitations:
    # Expected spans computed with the independent reference engine
    # (tests/refregex.py) applied to the verbatim patterns.
    def test_single_bracketed_numeral(self):
        assert find_numeric_citations("As shown in [1].") == [(12, 15)]

    def test_no_brackets(self):
        assert find_numeric_citations("No citations here.") == []

    def test_range_inside_class_is_admitted(self):
        # [,-;] is a character range, so '-' (and digits) stay inside one match.
        assert find_numeric_citations("Results [3, 5-7] agree.") == [(8, 16)]

    def test_two_numeric_matches(self):
        assert find_numeric_citations("Mix [1] and [2, 3].") == [(4, 7), (12, 18)]

    def test_space_after_bracket_blocks_match(self):
        assert find_numeric_citations("[ 2] is not one.") == []

    def test_author_year_match_ends_at_closing_paren(self):
        assert find_author_year_citations("(Author et al., 2000)") == [(16, 21)]

    def test_year_without_closing_paren(self):
        assert find_author_year_citations("in the year 2000 we") == []

    def test_author_year_empty_input(self):
        assert find_author_year_citations("") == []

    def test_year_with_letter_suffix(self):
        assert find_author_year_citations("(Meier, 2004a) shows") == [(8, 14)]

    def test_opening_paren_is_optional(self):
        assert find_author_year_citations("range 1999) only") == [(6, 11)]

    def test_matches_citation_format(self):
        assert matches_citation_format("[2]")
        assert matches_citation_format(" (Trauth et al., 2000)")
        assert not matches_citation_format("Figure 3")
        assert not matches_citation_format("")


class TestCitationAtSentenceEnd:
    def test_canonical_end_position(self):
        text = "Shown before [1]."
        assert citation_at_sentence_end(text, 13, 16) is True

    def test_mid_sentence(self):
        text = "In [1], we see more."
        assert citation_at_sentence_end(text, 3, 6) is False

    def test_whitespace_before_terminal_tolerated(self):
        text = "Shown before [1] ."
        assert citation_at_sentence_end(text, 13, 16) is True

    # Suffix enumeration against the rule: exactly one terminal mark,
    # surrounded only by whitespace.
    @pytest.mark.parametrize(
        "suffix,expected",
        [
            (".", True), ("!", True), ("?", True), (" .", True), (". ", True),
            (" . ", True), ("", False), (" ", False), (" x.", False),
            (",.", False), ("..", False), (". More", False), ("]", False),
        ],
    )
    def test_suffix_enumeration(self, suffix, expected):
        text = "Shown before [1]" + suffix
        assert citation_at_sentence_end(text, 13, 16) is expected

    def test_out_of_bounds_span_raises(self):
        with pytest.raises(ValueError):
            citation_at_sentence_end("Short.", 2, 10)


class TestRemoveCitationSpans:
    def test_author_year_span_with_leading_space(self):
        text = "Shown in prior work (Trauth et al., 2000)."
        span = (len("Shown in prior work"), len(text) - 1)
        assert text[span[0] : span[1]] == " (Trauth et al., 2000)"
        assert remove_citation_spans(text, [span]) == "Shown in prior work."

    def test_numeric_span_with_leading_space(self):
        text = "A caused B [2]."
        span = (len("A caused B"), len(text) - 1)
        assert text[span[0] : span[1]] == " [2]"
        assert remove_citation_spans(text, [span]) == "A caused B."

    def test_identity_with_no_spans(self):
        assert remove_citation_spans("No spans here.", []) == "No spans here."

    def test_space_not_in_span_is_collapsed_before_terminal(self):
        text = "A caused B [2]."
        span = (len("A caused B "), len(text) - 1)
        assert text[span[0] : span[1]] == "[2]"
        assert remove_citation_spans(text, [span]) == "A caused B."

    def test_mid_sentence_double_space_collapses(self):
        text = "A [2] caused B."
        assert remove_citation_spans(text, [(2, 5)]) == "A caused B."

    def test_out_of_bounds_span_identified(self):
        with pytest.raises(ValueError) as exc:
            remove_citation_spans("Tiny.", [(3, 99)])
        assert "(3, 99)" in str(exc.value)

    def test_overlapping_spans_rejected(self):
        with pytest.raises(ValueError):
            remove_citation_spans("ABCDEFGH.", [(1, 4), (3, 6)])

    def test_length_monotone_property(self):
        rng = random.Random(77)
        for _ in range(200):
            text = "".join(rng.choice("ab [](),.12 ") for _ in range(rng.randint(1, 40)))
            spans = []
            cursor = 0
            while cursor < len(text) - 1 and rng.random() < 0.5:
                start = rng.randint(cursor, len(text) - 1)
                end = rng.randint(start + 1, len(text))
                spans.append((start, end))
                cursor = end
            out = remove_citation_spans(text, spans)
            assert len(out) <= len(text)

    def test_no_citation_residue_when_spans_cover_all_matches(self):
        # When the removed spans covered every pattern match, the output
        # contains no match of either citation format.
        rng = random.Random(88)
        bases = ["The cohort stabilized", "Rainfall dropped sharply",
                 "Resistance fell with heat", "Both labs concurred"]
        cites = ["[3]", "[3, 5-7]", "[12;14]", "(Alder, 1999)",
                 "(Brandt et al., 2004a)", "(2011)"]
        for _ in range(100):
            base = rng.choice(bases)
            cite = " " + rng.choice(cites)
            text = f"{base}{cite}."
            span = (len(base), len(base) + len(cite))
            covered = find_numeric_citations(text) + find_author_year_citations(text)
            assert all(span[0] <= s and e <= span[1] for s, e in covered)
            out = remove_citation_spans(text, [span])
            assert find_numeric_citations(out) == []
            assert find_author_year_citations(out) == []


class TestStripHangingPunctuation:
    # Small punctuation-suffix cases enumerated against the rule.
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("This was shown ,.", "This was shown."),
            ("A normal sentence.", "A normal sentence."),
            ("Result holds ;.", "Result holds."),
            ("Result holds . ;", "Result holds."),
            ("Result holds ).", "Result holds."),
            ("Result holds .,", "Result holds."),
            ("Result holds . ", "Result holds."),
            ("Result holds ?", "Result holds?"),
            ("Result holds!", "Result holds!"),
            ("Result holds ,;", "Result holds ,;"),
            ("Result holds", "Result holds"),
            ("", ""),
            (" ;,", " ;,"),
        ],
    )
    def test_suffix_cases(self, text, expected):
        assert strip_hanging_punctuation(text) == expected

    def test_terminal_marks_are_not_removed(self):
        # Only punctuation other than '.', '!' and '?' is removable.
        assert strip_hanging_punctuation("Really?!") == "Really?!"
        assert strip_hanging_punctuation("Wait ..") == "Wait .."

    def test_idempotent_property(self):
        rng = random.Random(31)
        tails = list(" ,;:)].!?-\"'")
        for _ in range(300):
            text = "Stable claim" + "".join(
                rng.choice(tails) for _ in range(rng.randint(0, 6)))
            once = strip_hanging_punctuation(text)
            assert strip_hanging_punctuation(once) == once


class TestHangingCitationMarker:
    def test_prepositional_tail(self):
        assert has_hanging_citation_marker("This was shown by the work of .") is True

    def test_complete_claim(self):
        assert has_hanging_citation_marker("This is a complete claim.") is False

    def test_see_is_in_the_alternation(self):
        assert has_hanging_citation_marker("For details see .") is True

    def test_empty_parens_alternative(self):
        assert has_hanging_citation_marker("Results are given in ( ).") is True

    def test_marker_word_must_be_last(self):
        assert has_hanging_citation_marker(
            "Wood Frogs are a species of frog common in much of North America.") is False

    def test_no_leading_whitespace_no_match(self):
        assert has_hanging_citation_marker("of.") is False


# The verbatim patterns, searched over the whole text: the oracle for the
# checks' shortcuts.
_NUMERIC = re.compile(NUMERIC_CITATION_PATTERN)
_AUTHOR_YEAR = re.compile(AUTHOR_YEAR_CITATION_PATTERN)
_HANGING = re.compile(HANGING_CITATION_PATTERN)

# Cue words, the characters the hanging pattern's tail and the citation
# patterns are made of, digits, letters and Unicode whitespace.
_CHECK_TEXT = st.lists(
    st.one_of(
        st.sampled_from(["for instance", "for example", "e.g.,", "e.g.", "eg", "viz.,", "viz",
                         "( )", "(  )", "see also", "of", "in", "at", "as", "1999", "2004a",
                         "[12]", "[3, 5-7]", "(2001)", "Word", "\u00a0", "\u2003", "\x1c",
                         " ", "\n"]),
        st.text(alphabet=",-)].?!([]0123456789aEz \t\n\u00a0\u2003\x1c;", min_size=1,
                max_size=3),
    ),
    max_size=12).map("".join)


class TestCheckShortcuts:
    """The checks search only where a pattern can match; their answers are
    the verbatim patterns' over the whole text."""

    @settings(max_examples=500, deadline=None)
    @given(_CHECK_TEXT)
    def test_citation_format_equals_the_full_search(self, text):
        expected = _NUMERIC.search(text) is not None or _AUTHOR_YEAR.search(text) is not None
        assert matches_citation_format(text) is expected

    @settings(max_examples=500, deadline=None)
    @given(_CHECK_TEXT)
    def test_hanging_marker_equals_the_full_search(self, text):
        assert has_hanging_citation_marker(text) is (_HANGING.search(text) is not None)

    @pytest.mark.parametrize("text", [
        # The only match starts 14 characters before the trailing run.
        "Results agree (for instance).",
        "Results agree (for instance) .",
        "Results agree\u00a0(for instance)\u2003.\n",
        " (for instance).",
        "Results agree\n(for instance,-).",
        # Matches that start nearer: no parenthesis, shorter cues, ( ) in ( ).
        "Results agree for instance.",
        "Results agree (for example).",
        "Results agree (e.g.,).",
        "Results agree (viz.,) .",
        "Results agree (( )).",
    ])
    def test_match_at_the_reach(self, text):
        assert _HANGING.search(text) is not None
        assert has_hanging_citation_marker(text) is True

    @pytest.mark.parametrize("text", [
        "Results agree(for instance).",
        "(for instance).",
        "Results agree (for instance)x.",
        "Results agree (for instances).",
    ])
    def test_no_match_near_the_reach(self, text):
        assert _HANGING.search(text) is None
        assert has_hanging_citation_marker(text) is False

    def test_regex_whitespace_is_str_isspace(self):
        space = re.compile(r"\s")
        differ = [hex(c) for c in range(sys.maxunicode + 1)
                  if (space.match(chr(c)) is not None) != chr(c).isspace()]
        assert differ == []


class TestIsWellFormed:
    def test_charismatic_frogs(self):
        sentence = ("Wood Frogs (Rana sylvatica) are a charismatic species of frog "
                    "common in much of North America.")
        assert is_well_formed(sentence) is True

    def test_too_short(self):
        assert is_well_formed("short but Capital.") is False

    def test_lowercase_start(self):
        assert is_well_formed("lowercase start is long enough to pass length.") is False

    def test_missing_terminal(self):
        assert is_well_formed("Capital start but missing the terminal mark") is False

    def test_length_boundary(self):
        # length > 20, so the minimum accepted length is 21
        twenty = "Abcdefghijklmnopqrs."
        twenty_one = "Abcdefghijklmnopqrst."
        assert len(twenty) == 20 and not is_well_formed(twenty)
        assert len(twenty_one) == 21 and is_well_formed(twenty_one)

    def test_well_formed_implies_min_length_21(self):
        rng = random.Random(5)
        for _ in range(200):
            text = "T" + "".join(rng.choice("ab c") for _ in range(rng.randint(0, 30))) + "."
            if is_well_formed(text):
                assert len(text) >= 21

    def test_titlecase_letter_is_not_uppercase(self):
        # Lu only; the titlecase letter Dz (category Lt) does not qualify.
        assert is_well_formed("ǲagreement of the cohorts held.") is False


# All of ASCII (underscore, the vertical tab, the form feed and the
# separators \x1c-\x1f that str.split treats as whitespace included), alone
# or with characters whose lowercase form or word class differs from ASCII's:
# é, İ (lowers to i + U+0307), the combining dot U+0307, the Kelvin sign
# (lowers to ASCII k), superscript two and the Arabic-Indic digit three.
_ASCII = [chr(c) for c in range(128)]
_TOKEN_TEXT = st.one_of(
    st.text(alphabet=st.sampled_from(_ASCII), max_size=40),
    st.text(alphabet=st.sampled_from(
        _ASCII + ["\u00e9", "\u0130", "\u0307", "\u212a", "\u00b2", "\u0663"]), max_size=40))


class TestTokenize:
    """ASCII text is tokenized by a byte table, other text by ``_TOKEN_RE``;
    the tokens are the regex's either way."""

    def test_token_pattern_is_frozen(self):
        assert _TOKEN_RE.pattern == r"[^\W_]+"

    @settings(max_examples=1000, deadline=None)
    @given(_TOKEN_TEXT)
    def test_equals_the_regex(self, text):
        assert tokenize(text) == _TOKEN_RE.findall(text.lower())

    @pytest.mark.parametrize("text, tokens", [
        # ASCII: underscores and every non-alphanumeric byte split words.
        ("Snake_case TF-IDF\x1cx\x0bY  12b.", ["snake", "case", "tf", "idf", "x", "y", "12b"]),
        ("", []),
        ("_-_ \x1f", []),
        # Non-ASCII that lowers to ASCII: the Kelvin sign is a k.
        ("\u212aelvin scale", ["kelvin", "scale"]),
        # Non-ASCII: the regex, whose word class takes é, ² and ٣ but not
        # the combining dot above that İ lowers to.
        ("Caf\u00e9 x\u00b2 \u0663 \u0130stanbul", ["caf\u00e9", "x\u00b2", "\u0663", "i", "stanbul"]),
    ])
    def test_fixed_cases(self, text, tokens):
        assert tokenize(text) == tokens
