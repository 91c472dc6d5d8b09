"""Unit tests for the paragraph pipeline, balancing, splitting, and IO."""

import gc
import io
import json
import pickle
import random
import re
import tempfile
from concurrent.futures import Executor, Future, ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from citecorpus import pipeline
from citecorpus.ingest import (CiteSpan, Diagnostic, PaperRecord, Paragraph, parse_line,
                               read_corpus)
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
    _validate_spans,
    allowed_section,
    assign_field,
    balanced_sample,
    build_baseline_variant,
    collect_samples,
    process_paper,
    process_paragraph,
    read_dataset,
    split_dataset,
    write_dataset,
)
from corpusgen import make_corpus_file, make_papers, write_corpus


class _PicklingPool(Executor):
    """A worker pool stand-in: runs each task when it is submitted and
    returns its result through pickle, as a process pool does."""

    def __init__(self, max_workers):
        pass

    def submit(self, fn, /, *args, **kwargs):
        future = Future()
        future.set_result(pickle.loads(pickle.dumps(fn(*args, **kwargs))))
        return future


def paragraph_with_citation(cite=" [2]", section="Introduction"):
    base = "Land use change reflects human activity on the surface"
    text = f"{base}{cite}. Remote sensing images detect land changes efficiently."
    span = CiteSpan(len(base), len(base) + len(cite))
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
        sentences = process_paragraph(paragraph_with_citation())
        assert isinstance(sentences, tuple)
        assert [s.label for s in sentences] == [LABEL_CITE_WORTHY, LABEL_NON_CITE_WORTHY]
        assert sentences[0].text.endswith("surface.")
        assert sentences[0].removed_span_count == 1

    def test_mid_sentence_span_rejected(self):
        text = "In [1], we extend the analysis to all cohorts over time."
        paragraph = Paragraph("Methods", text, (CiteSpan(3, 6),))
        result = process_paragraph(paragraph)
        assert isinstance(result, RejectionReason)
        assert result.code == NOT_AT_END

    def test_missed_author_year_citation_rejected(self):
        text = ("Prior work found the same effect (Smith, 1999). "
                "It holds here too across cohorts.")
        result = process_paragraph(Paragraph("Results", text, ()))
        assert isinstance(result, RejectionReason)
        assert result.code == MISSED_CITATION

    def test_missed_numeric_citation_rejected(self):
        text = "Several studies [4] agree on the magnitude of the effect."
        result = process_paragraph(Paragraph("Results", text, ()))
        assert isinstance(result, RejectionReason)
        assert result.code == MISSED_CITATION

    def test_span_without_citation_format_rejected(self):
        base = "The full derivation appears in the online appendix"
        text = f"{base} below. Another sentence keeps the paragraph going."
        paragraph = Paragraph("Methods", text, (CiteSpan(len(base), len(base) + 6),))
        result = process_paragraph(paragraph)
        assert isinstance(result, RejectionReason)
        assert result.code == BAD_FORMAT

    def test_hanging_marker_after_removal_rejected(self):
        base = "This was shown by the work of"
        cite = " (Smith, 2000)"
        text = f"{base}{cite}."
        paragraph = Paragraph("Methods", text, (CiteSpan(len(base), len(base) + len(cite)),))
        result = process_paragraph(paragraph)
        assert isinstance(result, RejectionReason)
        assert result.code == HANGING_MARKER

    def test_ill_formed_sentence_rejected(self):
        text = "lowercase opening that is plenty long to pass the length bar."
        result = process_paragraph(Paragraph("Results", text, ()))
        assert isinstance(result, RejectionReason)
        assert result.code == MALFORMED_SENTENCE

    def test_empty_paragraph_rejected(self):
        result = process_paragraph(Paragraph("Results", "   ", ()))
        assert isinstance(result, RejectionReason)
        assert result.code == MALFORMED_SENTENCE

    def test_span_straddling_sentences_rejected(self):
        text = "We show results [1]. Here the next sentence continues onward."
        # Span crosses the sentence boundary after "[1]."
        paragraph = Paragraph("Results", text, (CiteSpan(16, 25),))
        result = process_paragraph(paragraph)
        assert isinstance(result, RejectionReason)
        assert result.code == BAD_FORMAT

    def test_all_or_nothing(self):
        # One offending sentence rejects the whole paragraph; nothing partial.
        good = "The first finding holds across every cohort."
        bad = "Tiny."
        result = process_paragraph(Paragraph("Results", f"{good} {bad}", ()))
        assert isinstance(result, RejectionReason)
        assert result.code == MALFORMED_SENTENCE


class TestBaselineVariant:
    def test_marker_left_behind(self):
        base = "Shown by the work of"
        cite = " (Smith, 2000)"
        text = f"{base}{cite}."
        paragraph = Paragraph("Methods", text, (CiteSpan(len(base), len(base) + len(cite)),))
        sentences = build_baseline_variant(paragraph)
        assert isinstance(sentences, tuple)
        assert sentences[0].text == "Shown by the work of."
        assert sentences[0].label == LABEL_CITE_WORTHY
        # The main pipeline rejects the same paragraph.
        main = process_paragraph(paragraph)
        assert isinstance(main, RejectionReason)

    def test_clean_citation_final_sentence_matches_main_pipeline(self):
        paragraph = paragraph_with_citation()
        main = process_paragraph(paragraph)
        base = build_baseline_variant(paragraph)
        assert [s.text for s in main] == [s.text for s in base]
        assert [s.label for s in main] == [s.label for s in base]

    def test_mid_sentence_span_removed_not_rejected(self):
        text = "In [1], we extend the analysis to all cohorts over time."
        paragraph = Paragraph("Methods", text, (CiteSpan(3, 6),))
        sentences = build_baseline_variant(paragraph)
        assert isinstance(sentences, tuple)
        assert sentences[0].text == "In , we extend the analysis to all cohorts over time."
        assert isinstance(process_paragraph(paragraph), RejectionReason)

    def test_no_checks_beyond_nonempty(self):
        text = "tiny."  # ill-formed for the main pipeline
        sentences = build_baseline_variant(Paragraph("Methods", text, ()))
        assert isinstance(sentences, tuple)
        assert sentences[0].label == LABEL_NON_CITE_WORTHY


def make_paper(*paragraphs, paper_id="p", fields=("Biology",)):
    return PaperRecord(paper_id, True, True, True, True, True, frozenset(fields),
                       tuple(paragraphs))


def spans_pass_the_check(paragraph):
    try:
        _validate_spans(paragraph, "p")
    except SpanConsistencyError:
        return False
    return True


# Paragraph text rich in sentence marks, brackets and both citation formats.
_TEXT_PIECES = ["The result holds", " across cohorts", " here", ".", "!", "?", " (", ")",
                "[", "]", " [3]", " (1999)", " (Smith, 1999)", " et al.", " Fig.", " e.g.",
                " ", "  ", "\n", "A", " b", "Results", ". The", " The measured effect holds."]
_SECTIONS = ["Introduction", " Results ", "Acknowledgements"]
_FIELDS = [("Biology",), ("Biology", "Chemistry"), ("History",)]


@st.composite
def _paragraphs(draw):
    """Paragraphs whose spans sit on the citations in the text, or in order
    anywhere in it (both pass the span check, the latter often straddling a
    sentence boundary), or anywhere at all: out of bounds, overlapping, empty."""
    text = draw(st.lists(st.sampled_from(_TEXT_PIECES), max_size=24).map("".join))
    citations = [(m.start(), m.end()) for m in re.finditer(r" (\[3\]|\(1999\))", text)]
    anywhere = st.integers(-2, len(text) + 2)
    spans = draw(st.one_of(
        st.lists(st.sampled_from(citations), unique=True).map(sorted) if citations
        else st.just([]),
        st.lists(st.integers(0, len(text)), unique=True, max_size=6).map(
            lambda cuts: list(zip(*[iter(sorted(cuts))] * 2))),
        st.lists(st.tuples(anywhere, anywhere), max_size=4)))
    return Paragraph(draw(st.sampled_from(_SECTIONS)), text,
                     tuple(CiteSpan(start, end) for start, end in spans))


_PAPERS = st.builds(lambda paragraphs, fields: make_paper(*paragraphs, fields=fields),
                    st.lists(_paragraphs(), min_size=1, max_size=4),
                    st.sampled_from(_FIELDS))


class TestProcessPaper:
    def test_sample_carries_provenance(self):
        skipped = [Paragraph("Acknowledgements", "We thank the funding agency.", ())] * 4
        paragraph = paragraph_with_citation(section="  Introduction ")
        samples, rejections = process_paper(make_paper(*skipped, paragraph))
        assert [r.paragraph_index for r in rejections] == [0, 1, 2, 3]
        [sample] = samples
        assert sample.section_title == "introduction"
        assert sample.mag_field == "Biology"
        assert sample.paragraph_index == 4
        assert sample.sentences == process_paragraph(paragraph)

    def test_out_of_bounds_span_is_an_error_not_a_rejection(self):
        paragraph = Paragraph("Results", "Short text.", (CiteSpan(5, 99),))
        for baseline in (False, True):
            with pytest.raises(SpanConsistencyError) as exc:
                process_paper(make_paper(paragraph, paper_id="paper-7"), baseline)
            assert "paper-7" in str(exc.value)

    def test_overlapping_spans_are_an_error(self):
        text = "Alpha beta gamma delta epsilon zeta."
        paragraph = Paragraph("Results", text,
                              (CiteSpan(0, 10), CiteSpan(5, 12)))
        for baseline in (False, True):
            with pytest.raises(SpanConsistencyError):
                process_paper(make_paper(paragraph), baseline)

    def test_span_check_follows_the_section_and_field_checks(self):
        bad_span = (CiteSpan(5, 99),)
        paper = make_paper(Paragraph("Acknowledgements", "Short text.", bad_span))
        assert process_paper(paper)[1][0].reason.code == BAD_SECTION
        paper = make_paper(Paragraph("Results", "Short text.", bad_span), fields=("History",))
        assert process_paper(paper)[1][0].reason.code == AMBIGUOUS_FIELD

    @settings(max_examples=300, deadline=None)
    @given(_PAPERS, st.booleans())
    def test_every_paragraph_is_a_sample_a_rejection_or_a_span_error(self, paper, baseline):
        checked = [p for p in paper.paragraphs if allowed_section(p.section_title)]
        span_error = isinstance(assign_field(paper.mag_fields), str) and \
            not all(map(spans_pass_the_check, checked))
        try:
            samples, rejections = process_paper(paper, baseline)
        except SpanConsistencyError:
            assert span_error
            return
        assert not span_error
        indexes = [s.paragraph_index for s in samples] + [r.paragraph_index for r in rejections]
        assert sorted(indexes) == list(range(len(paper.paragraphs)))

    @settings(max_examples=300, deadline=None)
    @given(_paragraphs())
    def test_labelers_raise_nothing_on_checked_spans(self, paragraph):
        assume(spans_pass_the_check(paragraph))
        for label in (process_paragraph, build_baseline_variant):
            result = label(paragraph)
            if not isinstance(result, RejectionReason):
                assert result and all(isinstance(s, LabeledSentence) for s in result)


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
    def test_input_order_samples_and_canonical_order_rejections(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        records = make_papers(30, seed=42, adversarial_rate=0.4)
        random.Random(42).shuffle(records)
        write_corpus(records, path)
        collected = collect_samples([path], workers=1)
        keys = [(s.paper_id, s.paragraph_index) for s in collected.samples]
        position = {record["paper_id"]: i for i, record in enumerate(records)}
        assert keys == sorted(keys, key=lambda k: (position[k[0]], k[1]))
        assert keys != sorted(keys), "the corpus should be out of id order"
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

    def test_repeat_before_a_span_error_in_one_batch_is_named(self, tmp_path):
        # Eight lines, one batch: line 2 repeats line 1's paper, line 8 has a
        # span beyond its text. The first fault in input order is named.
        path = tmp_path / "corpus.jsonl"
        records = make_papers(n_papers=8, seed=5)
        records[7]["mag_field_of_study"] = ["Biology"]
        records[7]["body_text"][0]["section"] = "Introduction"
        records[7]["body_text"][0]["cite_spans"] = [{"start": 5, "end": 1_000_000, "ref_id": "b"}]
        write_corpus(records, path)
        with pytest.raises(SpanConsistencyError, match=f"^{re.escape(str(path))}, line 8: "):
            collect_samples([path])
        records[1]["paper_id"] = records[0]["paper_id"]
        write_corpus(records, path)
        expected = f"{path}, line 2: paper 'paper-00000' was already read at {path}, line 1"
        for workers in (1, 2):
            with patch.object(pipeline, "worker_pool", _PicklingPool), \
                    pytest.raises(ValueError) as exc:
                collect_samples([path], workers=workers)
            assert type(exc.value) is ValueError
            assert str(exc.value) == expected


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


@contextmanager
def collector_set(enabled):
    """Run the block with the cyclic garbage collector on or off, then put
    back the state it had."""
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


class TestCollectorPause:
    """A pooled collect keeps the garbage collector off while it merges and
    restores the caller's state; a serial collect leaves it alone."""

    def collect(self, path, workers, enabled):
        """Collect on the stub pool; returns the collector state at each
        batch, the state after and the error raised, if any."""
        states, error = [], None
        process_lines = pipeline.process_lines

        def recording(batch, baseline=False):
            states.append(gc.isenabled())
            return process_lines(batch, baseline)

        with collector_set(enabled), patch.object(pipeline, "worker_pool", _PicklingPool), \
                patch.object(pipeline, "process_lines", recording), \
                patch.object(pipeline, "BATCH_LINES", 3):
            try:
                collect_samples([path], workers=workers)
            except ValueError as exc:
                error = str(exc)
            after = gc.isenabled()
        return states, after, error

    def corpus(self, tmp_path, fault=None):
        path = tmp_path / "corpus.jsonl"
        records = make_papers(n_papers=12, seed=3)
        if fault == "span":
            records[7]["mag_field_of_study"] = ["Biology"]
            records[7]["body_text"][0]["section"] = "Introduction"
            records[7]["body_text"][0]["cite_spans"] = [{"start": 5, "end": 10_000, "ref_id": "b"}]
        elif fault == "repeat":
            records[7]["paper_id"] = records[2]["paper_id"]
        write_corpus(records, path)
        return path

    @pytest.mark.parametrize("enabled", [True, False])
    def test_pool_merge_pauses_the_collector_and_restores_it(self, tmp_path, enabled):
        states, after, error = self.collect(self.corpus(tmp_path), 2, enabled)
        assert error is None
        assert len(states) == 4 and not any(states)
        assert after is enabled

    @pytest.mark.parametrize("fault, message", [
        ("span", "line 8: paper 'paper-00007': cite span (5, 10000) out of bounds"),
        ("repeat", "line 8: paper 'paper-00002' was already read at "),
    ])
    def test_an_error_restores_the_collector(self, tmp_path, fault, message):
        states, after, error = self.collect(self.corpus(tmp_path, fault), 2, True)
        assert message in error
        assert not any(states)
        assert after is True

    def test_serial_collect_leaves_the_collector_alone(self, tmp_path):
        for enabled in (True, False):
            states, after, error = self.collect(self.corpus(tmp_path), 1, enabled)
            assert error is None
            assert states == [enabled] * 4
            assert after is enabled

    def test_pool_workers_run_with_the_collector_on(self):
        with collector_set(False), pipeline.worker_pool(1) as pool:
            assert pool.submit(gc.isenabled).result() is True


class TestSpanConsistencyError:
    def test_pickle_round_trip(self):
        error = SpanConsistencyError("corpus.jsonl, line 3: paper 'p-1': cite span (1, 2) overlaps")
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is SpanConsistencyError
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


def first_repeat(lines: list[str], source: str) -> str | None:
    """The error for the first line whose paper id an earlier record holds."""
    read_at: dict[str, int] = {}
    for lineno, line in enumerate(lines, start=1):
        paper = parse_line(line, lineno)
        if isinstance(paper, Diagnostic):
            continue
        if paper.paper_id in read_at:
            return (f"{source}, line {lineno}: paper {paper.paper_id!r} was already read at "
                    f"{source}, line {read_at[paper.paper_id]}")
        read_at[paper.paper_id] = lineno
    return None


class TestLineAccounting:
    """Every corpus line yields a record or exactly one diagnostic, and the
    pool changes nothing; a repeated paper is refused at its first repeat."""

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
            repeat = first_repeat(lines, str(path))
            if repeat is not None:
                for workers in (1, 2):
                    with pytest.raises(ValueError) as exc:
                        collect_samples([path], workers=workers)
                    assert str(exc.value) == repeat
                # The same lines, one paper id each, for the accounting below.
                lines = [json.dumps({**json.loads(line), "paper_id": f"p{n}"}) if valid else line
                         for n, (valid, line) in enumerate(tagged)]
                path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
            serial = collect_samples([path], workers=1)
            pooled = collect_samples([path], workers=2)
            assert len(serial.read_at) + len(serial.diagnostics) == len(lines)
            assert [d.line for d in serial.diagnostics] == broken
            assert {d.source for d in serial.diagnostics} <= {str(path)}
            assert serial == pooled
