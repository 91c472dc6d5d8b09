"""Unit tests for the blinded annotation-sheet workflow."""

import json
import random

import pytest

from citecorpus.audit import (
    METHOD_BASELINE,
    METHOD_MAIN,
    sample_for_audit,
    score_audit,
)
from citecorpus.pipeline import (
    LABEL_CITE_WORTHY,
    LABEL_NON_CITE_WORTHY,
    LabeledSentence,
    ParagraphSample,
)


def dataset(prefix, n_paragraphs=12):
    samples = []
    for i in range(n_paragraphs):
        sentences = (
            LabeledSentence(f"Cited claim {prefix}{i} holds firmly.", LABEL_CITE_WORTHY, 1),
            LabeledSentence(f"Plain claim {prefix}{i} stands alone.", LABEL_NON_CITE_WORTHY, 0),
            LabeledSentence(f"Another plain line {prefix}{i} follows.", LABEL_NON_CITE_WORTHY, 0),
        )
        samples.append(ParagraphSample(paper_id=f"{prefix}{i}", section_title="results",
                                       mag_field="Physics", sentences=sentences,
                                       paragraph_index=i))
    return samples


@pytest.fixture
def exported(tmp_path):
    sheet = tmp_path / "sheet.tsv"
    key = tmp_path / "key.jsonl"
    items = sample_for_audit(dataset("m"), dataset("b"), n_per_class=5, seed=99,
                             sheet_path=sheet, key_path=key)
    return items, sheet, key


class TestSampleForAudit:
    def test_row_counts_per_stratum(self, exported):
        items, sheet, _ = exported
        assert len(items) == 20
        per = {}
        for item in items:
            per[(item.method, item.gold_label)] = per.get((item.method, item.gold_label), 0) + 1
        assert set(per.values()) == {5}
        assert len(per) == 4
        assert len(sheet.read_text().splitlines()) == 21  # header + rows

    def test_zero_per_class_gives_empty_sheet(self, tmp_path):
        sheet = tmp_path / "sheet.tsv"
        key = tmp_path / "key.jsonl"
        items = sample_for_audit(dataset("m"), dataset("b"), 0, 1, sheet, key)
        assert items == []
        assert sheet.read_text().splitlines() == [
            "item_id\tsentence\tprev\tnext\textraction_ok\tmarkers_removed"]

    def test_same_seed_gives_identical_sheet(self, tmp_path):
        paths = [(tmp_path / f"s{i}.tsv", tmp_path / f"k{i}.jsonl") for i in (1, 2)]
        for sheet, key in paths:
            sample_for_audit(dataset("m"), dataset("b"), 4, seed=7,
                             sheet_path=sheet, key_path=key)
        assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
        assert paths[0][1].read_bytes() == paths[1][1].read_bytes()

    def test_blinding_no_method_or_label_in_sheet(self, exported):
        _, sheet, _ = exported
        blob = sheet.read_text()
        assert METHOD_MAIN not in blob
        assert METHOD_BASELINE not in blob
        assert LABEL_CITE_WORTHY not in blob
        assert LABEL_NON_CITE_WORTHY not in blob

    def test_context_columns_carry_neighbours(self, exported):
        items, _, _ = exported
        cited = [i for i in items if "Cited claim" in i.sentence]
        assert cited
        for item in cited:
            assert item.prev == ""  # cited sentence opens its paragraph
            assert item.next.startswith("Plain claim")

    def test_insufficient_stratum_named(self, tmp_path):
        with pytest.raises(ValueError) as exc:
            sample_for_audit(dataset("m", n_paragraphs=2), dataset("b"), 5, 1,
                             tmp_path / "s.tsv", tmp_path / "k.jsonl")
        assert "ours" in str(exc.value)
        assert "cite-worthy" in str(exc.value)

    def test_default_protocol_size_gives_2000_rows(self, tmp_path):
        # 500 sentences per (method, class) stratum -> 2000 sheet rows.
        big_main = dataset("m", n_paragraphs=600)
        big_base = dataset("b", n_paragraphs=600)
        sheet = tmp_path / "sheet.tsv"
        items = sample_for_audit(big_main, big_base, 500, seed=3,
                                 sheet_path=sheet, key_path=tmp_path / "key.jsonl")
        assert len(items) == 2000
        per_stratum = {}
        for item in items:
            key = (item.method, item.gold_label)
            per_stratum[key] = per_stratum.get(key, 0) + 1
        assert set(per_stratum.values()) == {500}
        assert len(sheet.read_text().splitlines()) == 2001


def annotate(sheet_path, decide):
    """Fill the annotation columns of an exported sheet."""
    lines = sheet_path.read_text().splitlines()
    out = [lines[0]]
    for line in lines[1:]:
        cells = line.split("\t")
        extraction_ok, markers_removed = decide(cells[0], cells[1])
        cells[4] = extraction_ok
        cells[5] = markers_removed
        out.append("\t".join(cells))
    sheet_path.write_text("\n".join(out) + "\n")


class TestScoreAudit:
    def test_saturation(self, exported):
        _, sheet, key = exported
        annotate(sheet, lambda item_id, text: ("1", "1"))
        result = score_audit(sheet, key)
        for method in (METHOD_MAIN, METHOD_BASELINE):
            assert result.per_method[method].extracted_correct_pct == 100.0
            assert result.per_method[method].markers_removed_pct == 100.0

    def test_nine_of_ten_gives_ninety(self, exported):
        items, sheet, key = exported
        ours_ids = sorted(i.item_id for i in items if i.method == METHOD_MAIN)
        not_ok = ours_ids[0]
        annotate(sheet, lambda item_id, text: ("0" if item_id == not_ok else "1", "1"))
        result = score_audit(sheet, key)
        assert result.per_method[METHOD_MAIN].extracted_correct_pct == pytest.approx(90.0)
        assert result.per_method[METHOD_BASELINE].extracted_correct_pct == pytest.approx(100.0)

    def test_matches_brute_force_tally(self, exported):
        items, sheet, key = exported
        rng = random.Random(5)
        marks = {i.item_id: (rng.randint(0, 1), rng.randint(0, 1)) for i in items}
        annotate(sheet, lambda item_id, text: tuple(str(v) for v in marks[item_id]))
        result = score_audit(sheet, key)
        for method in (METHOD_MAIN, METHOD_BASELINE):
            group = [marks[i.item_id] for i in items if i.method == method]
            expected_extract = 100.0 * sum(a for a, _ in group) / len(group)
            expected_markers = 100.0 * sum(b for _, b in group) / len(group)
            assert result.per_method[method].extracted_correct_pct == pytest.approx(expected_extract)
            assert result.per_method[method].markers_removed_pct == pytest.approx(expected_markers)

    def test_unknown_item_id_listed(self, exported):
        _, sheet, key = exported
        annotate(sheet, lambda item_id, text: ("1", "1"))
        lines = sheet.read_text().splitlines()
        cells = lines[1].split("\t")
        cells[0] = "deadbeefdeadbeef"
        lines[1] = "\t".join(cells)
        sheet.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="unknown item_id"):
            score_audit(sheet, key)

    def test_missing_annotation_listed(self, exported):
        _, sheet, key = exported
        with pytest.raises(ValueError, match="must be 0 or 1"):
            score_audit(sheet, key)  # columns still empty

    def test_non_binary_value_listed(self, exported):
        _, sheet, key = exported
        annotate(sheet, lambda item_id, text: ("yes", "1"))
        with pytest.raises(ValueError, match="must be 0 or 1"):
            score_audit(sheet, key)

    def test_row_count_must_match_key(self, exported):
        _, sheet, key = exported
        annotate(sheet, lambda item_id, text: ("1", "1"))
        lines = sheet.read_text().splitlines()
        sheet.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ValueError, match="key lists"):
            score_audit(sheet, key)

    def test_repeated_row_cannot_stand_in_for_a_missing_item(self, tmp_path):
        # Row 'a' twice and no 'b': counting rows alone would score 'a'
        # twice and drop the baseline without a word.
        key = tmp_path / "key.jsonl"
        key.write_text('{"item_id": "a", "method": "ours", "gold_label": "cite-worthy"}\n'
                       '{"item_id": "b", "method": "baseline", "gold_label": "cite-worthy"}\n')
        sheet = tmp_path / "sheet.tsv"
        sheet.write_text("item_id\tsentence\tprev\tnext\textraction_ok\tmarkers_removed\n"
                         "a\tx\t\t\t1\t0\na\tx\t\t\t0\t1\n")
        with pytest.raises(ValueError) as exc:
            score_audit(sheet, key)
        assert str(exc.value) == f"{sheet}: line 3: item_id 'a' repeats line 2"

    def test_repeated_key_item_is_named(self, exported):
        _, sheet, key = exported
        annotate(sheet, lambda item_id, text: ("1", "1"))
        lines = key.read_text().splitlines()
        record = json.loads(lines[0])
        record["method"] = METHOD_BASELINE if record["method"] == METHOD_MAIN else METHOD_MAIN
        key.write_text("\n".join(lines + [json.dumps(record)]) + "\n")
        with pytest.raises(ValueError) as exc:
            score_audit(sheet, key)
        assert str(exc.value) == \
            f"{key}, line {len(lines) + 1}: repeated item_id {record['item_id']!r}"

    @pytest.mark.parametrize("which, lineno", [("sheet", 1), ("sheet", 3), ("key", 3)])
    def test_undecodable_byte_names_file_and_line(self, exported, which, lineno):
        _, sheet, key = exported
        annotate(sheet, lambda item_id, text: ("1", "1"))
        path = sheet if which == "sheet" else key
        lines = path.read_bytes().splitlines(keepends=True)
        lines[lineno - 1] = lines[lineno - 1][:4] + b"\xfe" + lines[lineno - 1][4:]
        path.write_bytes(b"".join(lines))
        with pytest.raises(ValueError) as exc:
            score_audit(sheet, key)
        assert str(exc.value) == f"{path}, line {lineno}: byte 0xfe is not valid UTF-8"

    def test_render_text_has_both_methods(self, exported):
        _, sheet, key = exported
        annotate(sheet, lambda item_id, text: ("1", "0"))
        text = score_audit(sheet, key).render_text()
        assert "ours" in text and "baseline" in text
