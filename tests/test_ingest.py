"""Unit tests for corpus streaming, paper eligibility and the root's line
reader and JSON decoder."""

import io
import json
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from citecorpus import from_json, read_lines
from citecorpus.ingest import (
    Diagnostic,
    Paragraph,
    paper_eligible,
    read_corpus,
)


def full_record(paper_id="p1", **overrides):
    record = {
        "paper_id": paper_id,
        "abstract": "An abstract.",
        "body_text": [
            {"section": "Introduction", "text": "A paragraph of body text here.",
             "cite_spans": []}
        ],
        "bib_entries": {"b0": {"title": "Cited work"}},
        "has_tables_figures": True,
        "venue": "Journal of Tests",
        "inbound_citations": 3,
        "mag_field_of_study": ["Biology"],
    }
    record.update(overrides)
    return record


def as_stream(records):
    return io.BytesIO(b"".join(json.dumps(r).encode("utf-8") + b"\n" for r in records))


def read_one(record):
    """The record read from a one-line corpus holding ``record``."""
    diagnostics = []
    papers = list(read_corpus(as_stream([record]), on_malformed=diagnostics.append))
    assert diagnostics == []
    return papers[0]


class TestReadCorpus:
    def test_empty_stream(self):
        assert list(read_corpus(io.BytesIO(b""), on_malformed=pytest.fail)) == []

    def test_single_record_round_trip(self):
        paper = read_one(full_record("abc123"))
        assert paper.paper_id == "abc123"
        assert paper.paragraphs[0].section_title == "Introduction"

    def test_truncated_middle_line(self, tmp_path):
        # Three records with line 2 truncated: two records plus one diagnostic.
        path = tmp_path / "corpus.jsonl"
        good1 = json.dumps(full_record("p1"))
        good3 = json.dumps(full_record("p3"))
        truncated = json.dumps(full_record("p2"))[:25]
        path.write_text(f"{good1}\n{truncated}\n{good3}\n", encoding="utf-8")

        diagnostics = []
        with open(path, "rb") as fh:
            papers = list(read_corpus(fh, on_malformed=diagnostics.append))
        assert [p.paper_id for p in papers] == ["p1", "p3"]
        assert len(diagnostics) == 1
        assert diagnostics[0].line == 2
        assert diagnostics[0].source == str(path)

    def test_lossless_over_lines(self):
        lines = [
            json.dumps(full_record("p1")),
            "not json at all",
            "",
            json.dumps({"paper_id": ""}),  # empty id -> malformed
            json.dumps(full_record("p2")),
            json.dumps([1, 2, 3]),  # not an object
        ]
        diagnostics: list[Diagnostic] = []
        stream = io.BytesIO("".join(l + "\n" for l in lines).encode("utf-8"))
        papers = list(read_corpus(stream, on_malformed=diagnostics.append))
        assert len(papers) + len(diagnostics) == len(lines)
        assert [d.line for d in diagnostics] == [2, 3, 4, 6]

    def test_undecodable_stream_is_fatal(self):
        stream = io.BytesIO(b'{"paper_id": "\xff\xfe"}\n')
        with pytest.raises(ValueError, match=r"^line 1: byte 0xff is not valid UTF-8$"):
            list(read_corpus(stream, on_malformed=pytest.fail))

    def test_undecodable_line_names_the_file(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        good = json.dumps(full_record("p1")).encode("utf-8")
        path.write_bytes(good + b"\n" + good.replace(b"p1", b"p\xc3\xa9\xe9") + b"\n")
        with open(path, "rb") as fh, pytest.raises(ValueError) as exc:
            list(read_corpus(fh, on_malformed=pytest.fail))
        assert str(exc.value) == f"{path}, line 2: byte 0xe9 is not valid UTF-8"

    def test_cite_spans_are_sorted_on_parse(self):
        record = full_record(body_text=[{
            "section": "Methods",
            "text": "Alpha beta gamma delta epsilon.",
            "cite_spans": [
                {"start": 10, "end": 15, "ref_id": "b1"},
                {"start": 0, "end": 5, "ref_id": "b0"},
            ],
        }])
        paper = read_one(record)
        assert [s.start for s in paper.paragraphs[0].cite_spans] == [0, 10]

    def test_bad_span_types_are_malformed(self):
        record = full_record(body_text=[{
            "section": "Methods",
            "text": "Alpha beta.",
            "cite_spans": [{"start": "0", "end": 5, "ref_id": "b0"}],
        }])
        diagnostics = []
        papers = list(read_corpus(as_stream([record]), on_malformed=diagnostics.append))
        assert papers == []
        assert len(diagnostics) == 1

    @pytest.mark.parametrize("span, valid", [
        ({}, True), ({"ref_id": None}, True), ({"ref_id": "b0"}, True),
        ({"ref_id": 3}, False), ({"ref_id": ["b0"]}, False),
    ])
    def test_a_span_ref_id_is_absent_null_or_a_string(self, span, valid):
        record = full_record(body_text=[{
            "section": "Methods", "text": "Alpha beta.",
            "cite_spans": [{"start": 0, "end": 5, **span}],
        }])
        diagnostics = []
        papers = list(read_corpus(as_stream([record]), on_malformed=diagnostics.append))
        if valid:
            assert diagnostics == []
            assert papers[0].paragraphs[0].cite_spans == ((0, 5),)
        else:
            assert papers == []
            assert [d.message for d in diagnostics] == ["cite span 'ref_id' is not a string"]

    @pytest.mark.parametrize("value, fields", [
        (None, frozenset()), ([], frozenset()), (["Biology"], frozenset({"Biology"})),
        ("", None), (0, None), (False, None), ({}, None), ("Biology", None), ([1], None),
    ])
    def test_fields_of_study_are_null_or_a_list_of_strings(self, value, fields):
        diagnostics = []
        record = full_record(mag_field_of_study=value)
        papers = list(read_corpus(as_stream([record]), on_malformed=diagnostics.append))
        if fields is None:
            assert papers == []
            assert [d.message for d in diagnostics] == [
                "'mag_field_of_study' is not a list of strings"]
        else:
            assert diagnostics == []
            assert papers[0].mag_fields == fields


class TestReadLines:
    def test_numbers_lines_from_one_with_universal_newlines(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_bytes("α\r\nb\rc\n\nd".encode("utf-8"))
        assert list(read_lines(path)) == [(1, "α\n"), (2, "b\n"), (3, "c\n"), (4, "\n"),
                                          (5, "d")]

    def test_first_undecodable_byte_raises_a_value_error(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_bytes(b"ok\nbad \xc3\n\xff\n")
        lines = read_lines(path)
        assert next(lines) == (1, "ok\n")
        with pytest.raises(ValueError) as exc:
            next(lines)
        assert type(exc.value) is ValueError
        assert str(exc.value) == f"{path}, line 2: byte 0xc3 is not valid UTF-8"


# Code points around and inside the UTF-16 surrogate range, and a
# backslash, so that escapes of every kind sit next to each other.
_NEAR_SURROGATES = [0x5C, 0x75, 0x41, 0xE9, 0xD7FF, 0xD800, 0xD83D, 0xDBFF, 0xDC00, 0xDE00,
                    0xDFFF, 0xE000, 0x1F600]


def _holds_surrogate(value):
    if isinstance(value, str):
        return any(0xD800 <= ord(ch) <= 0xDFFF for ch in value)
    if isinstance(value, dict):
        return any(map(_holds_surrogate, [*value, *value.values()]))
    return isinstance(value, list) and any(map(_holds_surrogate, value))


class TestFromJson:
    @pytest.mark.parametrize("text, escape", [
        ('"\\ud800"', "\\ud800"),
        ('["ok", "a\\uDFFF"]', "\\uDFFF"),
        ('{"\\udc00": 1}', "\\udc00"),
        ('"\\ude00\\ud83d"', "\\ude00"),
        ('"\\ud83d\\u0041"', "\\ud83d"),
        ('"\\ud800\\udbff\\udc00"', "\\ud800"),
        ('"\\\\\\ud800"', "\\ud800"),
    ], ids=["high", "upper-case-low", "key", "reversed-pair", "high-then-letter",
            "high-then-pair", "after-escaped-backslash"])
    def test_a_lone_surrogate_escape_is_invalid_json(self, text, escape):
        with pytest.raises(json.JSONDecodeError) as exc:
            from_json(text)
        assert exc.value.msg == f"lone surrogate {escape}"
        assert text[exc.value.pos:].startswith(escape)

    def test_pairs_and_escaped_backslashes_decode(self):
        assert from_json('["\\ud83d\\ude00", "\\uD83D\\uDE00", "\\\\ud800", "\\u00e9"]') == \
            ["\U0001F600", "\U0001F600", "\\ud800", "\u00e9"]

    @given(st.lists(st.lists(st.one_of(st.sampled_from(_NEAR_SURROGATES),
                                       st.integers(0, 0x10FFFF)), max_size=8)
                    .map(lambda points: "".join(map(chr, points))), max_size=3),
           st.booleans())
    def test_refused_exactly_when_a_decoded_string_holds_a_surrogate(self, strings, upper):
        text = json.dumps(strings)
        if upper:
            text = re.sub(r"\\u([0-9a-f]{4})", lambda m: "\\u" + m.group(1).upper(), text)
        try:
            value = from_json(text)
        except json.JSONDecodeError:
            assert _holds_surrogate(json.loads(text))
        else:
            assert value == json.loads(text)
            assert not _holds_surrogate(value)


class TestPaperEligible:
    def test_all_signals_present(self):
        paper = read_one(full_record())
        assert paper_eligible(paper) is True

    def test_missing_venue_only(self):
        paper = read_one(full_record(venue=None))
        assert paper_eligible(paper) is False

    def test_empty_paragraphs(self):
        paper = read_one(full_record(body_text=[]))
        assert paper_eligible(paper) is False

    def test_zero_inbound_citations(self):
        paper = read_one(full_record(inbound_citations=0))
        assert paper_eligible(paper) is False

    def test_pure_conjunction_property(self):
        # Flipping any single required signal flips a true verdict to false.
        base = read_one(full_record())
        assert paper_eligible(base)
        flips = dict(
            has_abstract=False,
            has_bibliography=False,
            has_tables_figures=False,
            has_venue=False,
            has_inbound_citations=False,
            mag_fields=frozenset(),
            paragraphs=(),
        )
        for name, value in flips.items():
            flipped = base._replace(**{name: value})
            assert paper_eligible(flipped) is False, name


class TestDomainTypes:
    def test_records_are_immutable(self):
        paper = read_one(full_record())
        with pytest.raises(AttributeError):
            paper.paper_id = "other"
        with pytest.raises(AttributeError):
            paper.paragraphs[0].text = "other"

    def test_paragraph_default_spans(self):
        assert Paragraph("Intro", "Text.").cite_spans == ()
