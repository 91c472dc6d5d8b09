"""Unit tests for the paragraph pipeline, balancing, splitting, and IO."""

import io
import json
import pickle
import random
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from citecorpus import pipeline
from citecorpus.ingest import CiteSpan, Diagnostic, Paragraph, parse_line, read_corpus
from citecorpus.pipeline import (
    AMBIGUOUS_FIELD,
    BAD_FORMAT,
    BAD_SECTION,
    HANGING_MARKER,
    LABEL_CITE_WORTHY,
    LABEL_NON_CITE_WORTHY,
    MAG_FIELDS,
    MALFORMED_SENTENCE,
    MISSED_CITATION,
    NOT_AT_END,
    PERMISSIBLE_SECTION_TITLES,
    SPLIT_TRAIN,
    SPLITS,
    DatasetFormatError,
    LabeledSentence,
    ParagraphSample,
    RejectionReason,
    SpanConsistencyError,
    _bounded_map,
    allowed_section,
    assign_field,
    balanced_sample,
    build_baseline_variant,
    collect_samples,
    process_paragraph,
    read_dataset,
    split_dataset,
    write_dataset,
)
from corpusgen import make_corpus_file, make_papers, write_corpus


def paragraph_with_citation(cite=" [2]", section="Introduction"):
    base = "Land use change reflects human activity on the surface"
    text = f"{base}{cite}. Remote sensing images detect land changes efficiently."
    span = CiteSpan(len(base), len(base) + len(cite), "b0")
    return Paragraph(section, text, (span,))


class TestAllowedSection:
    def test_introduction(self):
        assert allowed_section("Introduction") is True

    def test_acknowledgements(self):
        assert allowed_section("Acknowledgements") is False

    def test_results_and_discussion(self):
        assert allowed_section("Results and Discussion") is True

    def test_whitespace_trimmed(self):
        assert allowed_section("  methods \n") is True

    def test_list_has_36_entries(self):
        assert len(PERMISSIBLE_SECTION_TITLES) == 36
        assert len(set(PERMISSIBLE_SECTION_TITLES)) == 36


class TestAssignField:
    def test_singleton(self):
        assert assign_field({"Biology"}) == "Biology"

    def test_two_categories(self):
        result = assign_field({"Biology", "Chemistry"})
        assert isinstance(result, RejectionReason)
        assert result.code == AMBIGUOUS_FIELD

    def test_out_of_scope_category(self):
        result = assign_field({"History"})
        assert isinstance(result, RejectionReason)
        assert result.code == AMBIGUOUS_FIELD

    def test_out_of_scope_extras_are_ignored(self):
        assert assign_field({"Physics", "History"}) == "Physics"


class TestProcessParagraph:
    def test_citation_final_paragraph_accepted(self):
        sample = process_paragraph(paragraph_with_citation(),
                                   paper_id="p", mag_field="Biology", paragraph_index=4)
        assert isinstance(sample, ParagraphSample)
        assert [s.label for s in sample.sentences] == [LABEL_CITE_WORTHY,
                                                       LABEL_NON_CITE_WORTHY]
        assert sample.sentences[0].text.endswith("surface.")
        assert sample.sentences[0].removed_span_count == 1
        assert sample.section_title == "introduction"
        assert sample.paragraph_index == 4

    def test_mid_sentence_span_rejected(self):
        text = "In [1], we extend the analysis to all cohorts over time."
        paragraph = Paragraph("Methods", text, (CiteSpan(3, 6, "b0"),))
        result = process_paragraph(paragraph, paper_id="p")
        assert isinstance(result, RejectionReason)
        assert result.code == NOT_AT_END

    def test_missed_author_year_citation_rejected(self):
        text = ("Prior work found the same effect (Smith, 1999). "
                "It holds here too across cohorts.")
        result = process_paragraph(Paragraph("Results", text, ()), paper_id="p")
        assert isinstance(result, RejectionReason)
        assert result.code == MISSED_CITATION

    def test_missed_numeric_citation_rejected(self):
        text = "Several studies [4] agree on the magnitude of the effect."
        result = process_paragraph(Paragraph("Results", text, ()), paper_id="p")
        assert isinstance(result, RejectionReason)
        assert result.code == MISSED_CITATION

    def test_span_without_citation_format_rejected(self):
        base = "The full derivation appears in the online appendix"
        text = f"{base} below. Another sentence keeps the paragraph going."
        paragraph = Paragraph("Methods", text, (CiteSpan(len(base), len(base) + 6, "b0"),))
        result = process_paragraph(paragraph, paper_id="p")
        assert isinstance(result, RejectionReason)
        assert result.code == BAD_FORMAT

    def test_hanging_marker_after_removal_rejected(self):
        base = "This was shown by the work of"
        cite = " (Smith, 2000)"
        text = f"{base}{cite}."
        paragraph = Paragraph("Methods", text, (CiteSpan(len(base), len(base) + len(cite), "b0"),))
        result = process_paragraph(paragraph, paper_id="p")
        assert isinstance(result, RejectionReason)
        assert result.code == HANGING_MARKER

    def test_ill_formed_sentence_rejected(self):
        text = "lowercase opening that is plenty long to pass the length bar."
        result = process_paragraph(Paragraph("Results", text, ()), paper_id="p")
        assert isinstance(result, RejectionReason)
        assert result.code == MALFORMED_SENTENCE

    def test_empty_paragraph_rejected(self):
        result = process_paragraph(Paragraph("Results", "   ", ()), paper_id="p")
        assert isinstance(result, RejectionReason)
        assert result.code == MALFORMED_SENTENCE

    def test_span_straddling_sentences_rejected(self):
        text = "We show results [1]. Here the next sentence continues onward."
        # Span crosses the sentence boundary after "[1]."
        paragraph = Paragraph("Results", text, (CiteSpan(16, 25, "b0"),))
        result = process_paragraph(paragraph, paper_id="p")
        assert isinstance(result, RejectionReason)
        assert result.code == BAD_FORMAT

    def test_out_of_bounds_span_is_an_error_not_a_rejection(self):
        paragraph = Paragraph("Results", "Short text.", (CiteSpan(5, 99, "b0"),))
        with pytest.raises(SpanConsistencyError) as exc:
            process_paragraph(paragraph, paper_id="paper-7")
        assert "paper-7" in str(exc.value)

    def test_overlapping_spans_are_an_error(self):
        text = "Alpha beta gamma delta epsilon zeta."
        paragraph = Paragraph("Results", text,
                              (CiteSpan(0, 10, "a"), CiteSpan(5, 12, "b")))
        with pytest.raises(SpanConsistencyError):
            process_paragraph(paragraph, paper_id="p")

    def test_all_or_nothing(self):
        # One offending sentence rejects the whole paragraph; nothing partial.
        good = "The first finding holds across every cohort."
        bad = "Tiny."
        result = process_paragraph(Paragraph("Results", f"{good} {bad}", ()), paper_id="p")
        assert isinstance(result, RejectionReason)
        assert result.code == MALFORMED_SENTENCE


class TestBaselineVariant:
    def test_marker_left_behind(self):
        base = "Shown by the work of"
        cite = " (Smith, 2000)"
        text = f"{base}{cite}."
        paragraph = Paragraph("Methods", text, (CiteSpan(len(base), len(base) + len(cite), "b0"),))
        sample = build_baseline_variant(paragraph, paper_id="p", mag_field="Biology")
        assert isinstance(sample, ParagraphSample)
        assert sample.sentences[0].text == "Shown by the work of."
        assert sample.sentences[0].label == LABEL_CITE_WORTHY
        # The main pipeline rejects the same paragraph.
        main = process_paragraph(paragraph, paper_id="p", mag_field="Biology")
        assert isinstance(main, RejectionReason)

    def test_clean_citation_final_sentence_matches_main_pipeline(self):
        paragraph = paragraph_with_citation()
        main = process_paragraph(paragraph, paper_id="p", mag_field="Biology")
        base = build_baseline_variant(paragraph, paper_id="p", mag_field="Biology")
        assert [s.text for s in main.sentences] == [s.text for s in base.sentences]
        assert [s.label for s in main.sentences] == [s.label for s in base.sentences]

    def test_mid_sentence_span_removed_not_rejected(self):
        text = "In [1], we extend the analysis to all cohorts over time."
        paragraph = Paragraph("Methods", text, (CiteSpan(3, 6, "b0"),))
        sample = build_baseline_variant(paragraph, paper_id="p", mag_field="Biology")
        assert isinstance(sample, ParagraphSample)
        assert sample.sentences[0].text == "In , we extend the analysis to all cohorts over time."
        assert isinstance(process_paragraph(paragraph, paper_id="p"), RejectionReason)

    def test_no_checks_beyond_nonempty(self):
        text = "tiny."  # ill-formed for the main pipeline
        sample = build_baseline_variant(Paragraph("Methods", text, ()),
                                        paper_id="p", mag_field="Biology")
        assert isinstance(sample, ParagraphSample)
        assert sample.sentences[0].label == LABEL_NON_CITE_WORTHY


def make_sample(paper_id, field, n_sentences=2, index=0, section="introduction"):
    sentences = tuple(
        LabeledSentence(f"Sentence number {k} of this paragraph holds.",
                        LABEL_NON_CITE_WORTHY, 0)
        for k in range(n_sentences)
    )
    return ParagraphSample(paper_id=paper_id, section_title=section, mag_field=field,
                           sentences=sentences, paragraph_index=index)


class TestBalancedSample:
    def test_zero_quota(self):
        samples = [make_sample("p1", "Biology")]
        assert balanced_sample(samples, 0, seed=1) == []

    def test_counting_two_fields(self):
        samples = [make_sample(f"b{i}", "Biology") for i in range(5)]
        samples += [make_sample(f"c{i}", "Chemistry") for i in range(5)]
        chosen = balanced_sample(samples, 3, seed=9)
        assert len(chosen) == 6
        assert sum(1 for s in chosen if s.mag_field == "Biology") == 3
        assert sum(1 for s in chosen if s.mag_field == "Chemistry") == 3

    def test_under_quota_field_kept_with_warning(self, caplog):
        samples = [make_sample("p1", "Biology")]
        with caplog.at_level("WARNING"):
            chosen = balanced_sample(samples, 3, seed=1)
        assert len(chosen) == 1
        assert "Biology" in caplog.text

    def test_deterministic_and_order_insensitive(self):
        samples = [make_sample(f"p{i}", MAG_FIELDS[i % 10], index=i) for i in range(60)]
        first = balanced_sample(list(samples), 4, seed=123)
        shuffled = list(samples)
        random.Random(0).shuffle(shuffled)
        second = balanced_sample(shuffled, 4, seed=123)
        assert [(s.paper_id, s.paragraph_index) for s in first] == \
               [(s.paper_id, s.paragraph_index) for s in second]

    def test_output_sorted_by_field_then_paper_then_index(self):
        samples = [make_sample(f"p{i}", MAG_FIELDS[i % 3], index=i) for i in range(30)]
        chosen = balanced_sample(samples, 5, seed=3)
        keys = [(s.mag_field, s.paper_id, s.paragraph_index) for s in chosen]
        assert keys == sorted(keys)

    def test_negative_quota_rejected(self):
        with pytest.raises(ValueError):
            balanced_sample([], -1, seed=0)


class TestSplitDataset:
    def build_corpus(self, rng, fields=3, per_field=40):
        samples = []
        for f in range(fields):
            for i in range(per_field):
                samples.append(make_sample(f"p{f}-{i}", MAG_FIELDS[f],
                                           n_sentences=rng.randint(1, 4), index=i))
        return samples

    def test_ratio_targets_met_brute_force(self):
        rng = random.Random(17)
        samples = self.build_corpus(rng)
        split_dataset(samples, (0.8, 0.1, 0.1), seed=5)
        total = sum(s.sentence_count() for s in samples)
        for split, ratio in zip(SPLITS, (0.8, 0.1, 0.1)):
            share = sum(s.sentence_count() for s in samples if s.split == split) / total
            assert abs(share - ratio) <= 0.02, (split, share)

    def test_single_paragraph_goes_to_train(self):
        samples = [make_sample("p", "Biology")]
        split_dataset(samples, (1.0, 0.0, 0.0), seed=1)
        assert samples[0].split == SPLIT_TRAIN

    def test_deterministic(self):
        rng = random.Random(3)
        samples_a = self.build_corpus(rng)
        rng = random.Random(3)
        samples_b = self.build_corpus(rng)
        split_dataset(samples_a, (0.8, 0.1, 0.1), seed=11)
        split_dataset(samples_b, (0.8, 0.1, 0.1), seed=11)
        assert [s.split for s in samples_a] == [s.split for s in samples_b]

    def test_small_stratum_warns_and_trains(self, caplog):
        samples = [make_sample("p1", "Physics"), make_sample("p2", "Physics", index=1)]
        with caplog.at_level("WARNING"):
            split_dataset(samples, (0.8, 0.1, 0.1), seed=2)
        assert all(s.split == SPLIT_TRAIN for s in samples)
        assert "Physics" in caplog.text

    def test_paragraphs_never_straddle_splits(self):
        samples = self.build_corpus(random.Random(23))
        split_dataset(samples, (0.8, 0.1, 0.1), seed=7)
        assert all(s.split in SPLITS for s in samples)

    def test_bad_ratios_rejected(self):
        with pytest.raises(ValueError):
            split_dataset([], (0.5, 0.4, 0.2), seed=0)
        with pytest.raises(ValueError):
            split_dataset([], (0.8, 0.3, -0.1), seed=0)


class TestDatasetIO:
    def test_round_trip(self, tmp_path):
        samples = [make_sample(f"p{i}", MAG_FIELDS[i % 4], n_sentences=2, index=i)
                   for i in range(10)]
        samples[0].split = SPLIT_TRAIN
        samples[0].sentences = (
            LabeledSentence("A cited finding stands here.", LABEL_CITE_WORTHY, 2),
            samples[0].sentences[1],
        )
        path = tmp_path / "data.jsonl"
        write_dataset(samples, path)
        loaded = read_dataset(path)
        assert loaded == samples

    def test_empty_round_trip(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        write_dataset([], path)
        assert path.read_text() == ""
        assert read_dataset(path) == []

    def test_corrupted_line_names_the_line(self, tmp_path):
        samples = [make_sample("p1", "Biology"), make_sample("p2", "Biology")]
        path = tmp_path / "data.jsonl"
        write_dataset(samples, path)
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:10]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError) as exc:
            read_dataset(path)
        assert "line 2" in str(exc.value)

    def test_label_count_disagreement_is_corrupt(self, tmp_path):
        record = {
            "paper_id": "p", "mag_field_of_study": "Biology",
            "section_title": "introduction", "split": "train", "paragraph_index": 0,
            "samples": [{"text": "A fine sentence of some length.",
                         "label": "cite-worthy", "removed_span_count": 0}],
        }
        path = tmp_path / "data.jsonl"
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(DatasetFormatError):
            read_dataset(path)

    def test_writer_is_deterministic(self, tmp_path):
        samples = [make_sample(f"p{i}", "Physics", index=i) for i in range(5)]
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_dataset(samples, a)
        write_dataset(samples, b)
        assert a.read_bytes() == b.read_bytes()


class TestCollectSamples:
    def test_canonical_order_and_rejections(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        make_corpus_file(path, n_papers=30, seed=42, adversarial_rate=0.4)
        collected = collect_samples([path], workers=1)
        keys = [(s.paper_id, s.paragraph_index) for s in collected.samples]
        assert keys == sorted(keys)
        assert collected.rejections, "adversarial corpus should produce rejections"
        rkeys = [(r.paper_id, r.paragraph_index) for r in collected.rejections]
        assert rkeys == sorted(rkeys)

    def test_worker_count_does_not_change_results(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        make_corpus_file(path, n_papers=20, seed=7, adversarial_rate=0.3)
        serial = collect_samples([path], workers=1)
        pooled = collect_samples([path], workers=4)
        assert serial.samples == pooled.samples
        assert serial.rejections == pooled.rejections

    def test_bad_section_and_ambiguous_field_codes(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        make_corpus_file(path, n_papers=40, seed=11, adversarial_rate=0.5)
        codes = {r.reason.code for r in collect_samples([path]).rejections}
        assert BAD_SECTION in codes
        assert AMBIGUOUS_FIELD in codes

    def test_span_error_survives_the_pool_naming_file_and_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        records = make_papers(n_papers=6, seed=5)
        records[3]["body_text"][0]["cite_spans"] = [{"start": 5, "end": 10_000, "ref_id": "b"}]
        write_corpus(records, path)
        messages = []
        for workers in (1, 2):
            with pytest.raises(SpanConsistencyError) as exc:
                collect_samples([path], workers=workers)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith(f"{path}, line 4: paper 'paper-00003': cite span (5, 10000)")


    def test_pool_holds_at_most_the_limit_in_flight(self):
        drawn = []

        def items():
            for i in range(50):
                drawn.append(i)
                yield i

        with ThreadPoolExecutor(max_workers=2) as pool:
            for consumed, result in enumerate(_bounded_map(pool, lambda i: i * i, items(), 4),
                                              start=1):
                assert result == (consumed - 1) ** 2
                assert len(drawn) - consumed < 4
        assert consumed == 50


class TestSpanConsistencyError:
    def test_pickle_round_trip(self):
        error = SpanConsistencyError("p-1", "cite span (1, 2) overlaps", "corpus.jsonl, line 3")
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is SpanConsistencyError
        assert (copy.paper_id, copy.message, copy.where) == ("p-1", "cite span (1, 2) overlaps",
                                                            "corpus.jsonl, line 3")
        assert str(copy) == str(error) == \
            "corpus.jsonl, line 3: paper 'p-1': cite span (1, 2) overlaps"


# Lines that are not records: blank, invalid JSON, and schema violations.
_VALID_LINES = [json.dumps(r) for r in make_papers(n_papers=12, seed=21, adversarial_rate=0.5,
                                                  ineligible_rate=0.3)]
_BROKEN_LINES = st.one_of(
    st.sampled_from(["", "   ", "\t", "{", "not json", "[1, 2", '{"paper_id": "x"']),
    # Any text without a line break (or a surrogate, which UTF-8 cannot hold).
    st.text(alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"),
            max_size=20),
    st.builds(lambda line, key, value: json.dumps({**json.loads(line), key: value}),
              st.sampled_from(_VALID_LINES),
              st.sampled_from(["paper_id", "body_text", "has_tables_figures",
                               "inbound_citations", "mag_field_of_study", "abstract"]),
              st.sampled_from([None, "", 3, True, [1], {"a": 1}])).filter(
        lambda line: isinstance(parse_line(line, 1), Diagnostic)),
)
_CORPUS_LINES = st.lists(
    st.one_of(st.sampled_from(_VALID_LINES).map(lambda line: (True, line)),
              _BROKEN_LINES.map(lambda line: (False, line))),
    max_size=30)


class TestLineAccounting:
    """Every corpus line yields a record or exactly one diagnostic, and the
    pool changes nothing."""

    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
    @given(_CORPUS_LINES)
    def test_records_plus_diagnostics_equal_lines(self, tagged):
        lines = [line for _, line in tagged]
        broken = [n for n, (valid, _) in enumerate(tagged, start=1) if not valid]
        diagnostics = []
        stream = io.BytesIO("".join(line + "\n" for line in lines).encode("utf-8"))
        records = list(read_corpus(stream, on_malformed=diagnostics.append))
        assert len(records) + len(diagnostics) == len(lines)
        assert [d.line for d in diagnostics] == broken

        # Batches of three lines, so that results of many batches are merged.
        with tempfile.TemporaryDirectory() as tmp, patch.object(pipeline, "BATCH_LINES", 3):
            path = Path(tmp) / "corpus.jsonl"
            path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
            serial = collect_samples([path], workers=1)
            pooled = collect_samples([path], workers=2)
            assert serial.papers_total + len(serial.diagnostics) == len(lines)
            assert [d.line for d in serial.diagnostics] == broken
            assert {d.source for d in serial.diagnostics} <= {str(path)}
            assert serial == pooled
