"""End-to-end tests for the command-line interface."""

import contextlib
import dataclasses
import errno
import gc
import hashlib
import json
import logging
import math
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import zlib
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import citecorpus
from citecorpus import audit, cli
from citecorpus.cli import main
from citecorpus.model import Vocabulary, save_model, sentence_table
from citecorpus import pipeline
from citecorpus.pipeline import (LABEL_CITE_WORTHY, LABEL_NON_CITE_WORTHY, LabeledSentence,
                                 ParagraphSample, read_dataset, write_dataset)
from corpusgen import FIELDS, make_corpus_file, write_corpus
from faults import disk_full_on
from synthdata import linear_model, write_distance_matrix

import numpy as np

# JSON nested more deeply than the decoder recurses: every reader refuses it
# as invalid JSON.
DEEP_JSON = "[" * 100_000

# Golden output of `build --seed 7 --quota 2 --ratios 0.8,0.1,0.1` on the
# 6-paper fixture corpus (seed 401); audited by hand on its first run.
GOLDEN_DATASET = """\
{"mag_field_of_study": "Biology", "paper_id": "paper-00002", "paragraph_index": 1, "samples": [{"label": "non-cite-worthy", "removed_span_count": 0, "text": "The measured signal dominated the variance across the later seasons."}], "section_title": "background", "split": "train"}
{"mag_field_of_study": "Biology", "paper_id": "paper-00004", "paragraph_index": 1, "samples": [{"label": "cite-worthy", "removed_span_count": 1, "text": "The control cohort matched earlier measurements over all twelve trials."}], "section_title": "background", "split": "train"}
{"mag_field_of_study": "Chemistry", "paper_id": "paper-00001", "paragraph_index": 0, "samples": [{"label": "non-cite-worthy", "removed_span_count": 0, "text": "The iterative solver varied noticeably between all twelve trials."}, {"label": "cite-worthy", "removed_span_count": 1, "text": "Median response time replicated published findings across both experimental groups."}], "section_title": "introduction", "split": "train"}
{"mag_field_of_study": "Chemistry", "paper_id": "paper-00001", "paragraph_index": 1, "samples": [{"label": "cite-worthy", "removed_span_count": 1, "text": "Surface conductivity matched earlier measurements over adjacent river basins."}], "section_title": "results", "split": "train"}
"""
GOLDEN_REJECTIONS = """\
{"code": "bad-format", "paper_id": "paper-00000", "paragraph_index": 1}
{"code": "missed-citation", "paper_id": "paper-00000", "paragraph_index": 2}
{"code": "malformed-sentence", "paper_id": "paper-00001", "paragraph_index": 2}
{"code": "hanging-marker", "paper_id": "paper-00003", "paragraph_index": 0}
{"code": "bad-format", "paper_id": "paper-00003", "paragraph_index": 1}
{"code": "hanging-marker", "paper_id": "paper-00004", "paragraph_index": 0}
{"code": "bad-section", "paper_id": "paper-00005", "paragraph_index": 0}
"""


def _not_a_regular_file(path):
    """``path``, made a directory or a FIFO as its name says; a FIFO is
    never opened, so no check may open it."""
    if path.name == "a-directory":
        path.mkdir()
    elif path.name == "a-fifo":
        os.mkfifo(path)
    return path


def build_fixture_corpus(path, **kwargs):
    defaults = dict(n_papers=6, seed=401, adversarial_rate=0.3,
                    fields=["Biology", "Chemistry"], paragraphs_per_paper=(2, 3))
    defaults.update(kwargs)
    return make_corpus_file(path, **defaults)


class TestBuild:
    def test_golden_fixture_build(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        build_fixture_corpus(corpus)
        out = tmp_path / "out"
        rc = main(["build", "--input", str(corpus), "--output", str(out),
                   "--seed", "7", "--quota", "2", "--ratios", "0.8,0.1,0.1"])
        assert rc == 0
        assert (out / "dataset.jsonl").read_text() == GOLDEN_DATASET
        assert (out / "rejections.jsonl").read_text() == GOLDEN_REJECTIONS
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 7
        assert manifest["counts"]["papers_total"] == 6
        assert manifest["counts"]["paragraphs_selected"] == 4
        assert set(manifest["rule_checksums"]) == {
            "numeric_citation_pattern", "author_year_citation_pattern",
            "hanging_citation_pattern", "section_titles", "sentence_split_abbreviations"}

    def test_rerun_is_byte_identical(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        build_fixture_corpus(corpus, n_papers=40, adversarial_rate=0.2)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["build", "--input", str(corpus), "--output", str(out),
                         "--seed", "13", "--quota", "10"]) == 0
            outs.append(out)
        for filename in ("dataset.jsonl", "rejections.jsonl", "manifest.json"):
            assert (outs[0] / filename).read_bytes() == (outs[1] / filename).read_bytes()

    def test_worker_pool_output_identical(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        build_fixture_corpus(corpus, n_papers=30)
        serial, pooled = tmp_path / "serial", tmp_path / "pooled"
        assert main(["build", "--input", str(corpus), "--output", str(serial),
                     "--seed", "3", "--quota", "5"]) == 0
        assert main(["build", "--input", str(corpus), "--output", str(pooled),
                     "--seed", "3", "--quota", "5", "--workers", "3"]) == 0
        assert (serial / "dataset.jsonl").read_bytes() == (pooled / "dataset.jsonl").read_bytes()

    def test_baseline_flag_differs_on_marker_fixtures(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        build_fixture_corpus(corpus, n_papers=40, adversarial_rate=0.35)
        main_out, base_out = tmp_path / "main", tmp_path / "base"
        assert main(["build", "--input", str(corpus), "--output", str(main_out),
                     "--seed", "5", "--quota", "30"]) == 0
        assert main(["build", "--input", str(corpus), "--output", str(base_out),
                     "--seed", "5", "--quota", "30", "--baseline"]) == 0
        main_text = (main_out / "dataset.jsonl").read_text()
        base_text = (base_out / "dataset.jsonl").read_text()
        assert main_text != base_text
        # The naive variant keeps sentences the main pipeline rejects.
        base_sentences = [s["text"] for line in base_text.splitlines()
                          for s in json.loads(line)["samples"]]
        assert any(t.endswith(("of.", "of .", "in.", "in .", "by.", "by ."))
                   for t in base_sentences)

    def test_missing_input_exits_2(self, tmp_path, capsys):
        rc = main(["build", "--input", str(tmp_path / "nope.jsonl"),
                   "--output", str(tmp_path / "out"), "--seed", "1"])
        assert rc == 2
        assert "not found" in capsys.readouterr().err

    def test_config_file_supplies_flags_and_flags_override(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        build_fixture_corpus(corpus)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "input": str(corpus), "output": str(tmp_path / "from_config"),
            "seed": 7, "quota": 2}))
        assert main(["build", "--config", str(config)]) == 0
        assert (tmp_path / "from_config" / "dataset.jsonl").read_text() == GOLDEN_DATASET
        # Explicit flag wins over the config value.
        assert main(["build", "--config", str(config),
                     "--output", str(tmp_path / "override"), "--quota", "1"]) == 0
        override = (tmp_path / "override" / "dataset.jsonl").read_text()
        assert len(override.splitlines()) == 2  # one paragraph per field

    def test_seed_is_required(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        build_fixture_corpus(corpus)
        rc = main(["build", "--input", str(corpus), "--output", str(tmp_path / "o")])
        assert rc == 2
        assert "--seed" in capsys.readouterr().err

    def test_multiple_input_files(self, tmp_path):
        first = tmp_path / "one.jsonl"
        second = tmp_path / "two.jsonl"
        build_fixture_corpus(first, n_papers=10, adversarial_rate=0.0)
        make_corpus_file(second, n_papers=10, seed=402, adversarial_rate=0.0,
                         fields=["Physics"], paragraphs_per_paper=(1, 2),
                         id_prefix="extra")
        out = tmp_path / "out"
        assert main(["build", "--input", str(first), "--input", str(second),
                     "--output", str(out), "--seed", "2", "--quota", "4"]) == 0
        fields = {json.loads(line)["mag_field_of_study"]
                  for line in (out / "dataset.jsonl").read_text().splitlines()}
        assert {"Biology", "Chemistry", "Physics"} <= fields

    def test_malformed_line_warnings_name_the_file(self, tmp_path, caplog):
        first = tmp_path / "one.jsonl"
        second = tmp_path / "two.jsonl"
        build_fixture_corpus(first, n_papers=3)
        build_fixture_corpus(second, n_papers=3, id_prefix="extra")
        lines = first.read_text().splitlines(keepends=True)
        first.write_text(lines[0] + "\n" + "".join(lines[1:]))
        with open(second, "a", encoding="utf-8") as fh:
            fh.write("not json\n")
        out = tmp_path / "out"
        assert main(["build", "--input", str(first), "--input", str(second),
                     "--output", str(out), "--seed", "2", "--quota", "4"]) == 0
        assert f"malformed input {first}, line 2: blank line" in caplog.text
        assert f"malformed input {second}, line 4: invalid JSON" in caplog.text
        assert json.loads((out / "manifest.json").read_text())["counts"]["malformed_lines"] == 2

    def test_span_error_names_file_and_line_at_any_worker_count(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        records = build_fixture_corpus(corpus, n_papers=8)
        records[5]["mag_field_of_study"] = ["Biology"]
        records[5]["body_text"][0]["section"] = "Introduction"
        records[5]["body_text"][0]["cite_spans"].append({"start": 0, "end": 10**6, "ref_id": "x"})
        write_corpus(records, corpus)
        errors = []
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}"
            assert main(["build", "--input", str(corpus), "--output", str(out),
                         "--seed", "7", "--workers", workers]) == 1
            errors.append(capsys.readouterr().err)
            assert not (out / "manifest.json").exists()
        assert errors[0] == errors[1]
        assert errors[0].startswith(
            f"error: {corpus}, line 6: paper 'paper-00005': cite span (0, 1000000) out of bounds")

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_a_deeply_nested_line_is_a_malformed_line(self, workers, tmp_path, caplog):
        corpus = tmp_path / "corpus.jsonl"
        build_fixture_corpus(corpus, n_papers=3)
        with open(corpus, "a", encoding="utf-8") as fh:
            fh.write(DEEP_JSON + "\n")
        out = tmp_path / "out"
        assert main(["build", "--input", str(corpus), "--output", str(out), "--seed", "2",
                     "--quota", "4", "--workers", workers]) == 0
        assert f"malformed input {corpus}, line 4: invalid JSON: too deeply nested" \
            in caplog.text
        assert json.loads((out / "manifest.json").read_text())["counts"]["malformed_lines"] == 1

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_a_lone_surrogate_escape_is_a_malformed_line(self, workers, tmp_path, caplog):
        # The line is valid JSON, but no UTF-8 output could hold its text.
        corpus = tmp_path / "corpus.jsonl"
        build_fixture_corpus(corpus)
        lines = corpus.read_text().splitlines(keepends=True)
        assert '"paper_id": "paper-00003"' in lines[3]
        lines[3] = lines[3].replace('.", "cite_spans"', '.\\ud800", "cite_spans"', 1)
        corpus.write_text("".join(lines))
        out = tmp_path / "out"
        assert main(["build", "--input", str(corpus), "--output", str(out), "--seed", "7",
                     "--quota", "2", "--workers", workers]) == 0
        assert (f"malformed input {corpus}, line 4: invalid JSON: lone surrogate \\ud800"
                in caplog.text)
        assert json.loads((out / "manifest.json").read_text())["counts"]["malformed_lines"] == 1
        for name in ("dataset.jsonl", "rejections.jsonl"):
            assert "paper-00003" not in (out / name).read_text()

    @pytest.mark.parametrize("repeat", ["line", "file"])
    def test_a_paper_read_twice_is_refused_at_any_worker_count(self, repeat, tmp_path, capsys):
        # A repeated paper would put the same paragraphs in two splits.
        corpus = tmp_path / "corpus.jsonl"
        build_fixture_corpus(corpus, n_papers=6)
        lines = corpus.read_text().splitlines(keepends=True)
        if repeat == "line":
            corpus.write_text("".join(lines) + lines[2])
            inputs = ["--input", str(corpus)]
            expected = f"{corpus}, line 7: paper 'paper-00002' was already read at {corpus}, line 3"
        else:
            other = tmp_path / "other.jsonl"
            other.write_text(lines[4])
            inputs = ["--input", str(corpus), "--input", str(other)]
            expected = f"{other}, line 1: paper 'paper-00004' was already read at {corpus}, line 5"
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}"
            assert main(["build", *inputs, "--output", str(out), "--seed", "7",
                         "--workers", workers]) == 1
            assert capsys.readouterr().err == f"error: {expected}\n"
            assert not (out / "dataset.jsonl").exists()
            assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("spelling", ["same", "other", "link"])
    def test_one_corpus_file_given_twice_is_refused_before_the_work(self, spelling, tmp_path,
                                                                    capsys, monkeypatch):
        # One file read twice would repeat all its papers. The build stops
        # before it touches the output directory or reads a line.
        corpus = tmp_path / "corpus.jsonl"
        build_fixture_corpus(corpus, n_papers=6)
        second = {"same": str(corpus), "other": f"{tmp_path}/./corpus.jsonl",
                  "link": str(tmp_path / "link.jsonl")}[spelling]
        if spelling == "link":
            os.symlink(corpus, second)
        monkeypatch.setattr(pipeline, "collect_samples", pytest.fail)
        made = tmp_path / "made"
        made.mkdir()
        (made / "manifest.json").write_text("earlier build\n")
        for out in (made, tmp_path / "new"):
            assert main(["build", "--input", str(corpus), "--input", second,
                         "--output", str(out), "--seed", "7"]) == 2
            assert capsys.readouterr().err == \
                f"error: --input {corpus} and --input {second} name the same file\n"
        assert (made / "manifest.json").read_text() == "earlier build\n"
        assert not (tmp_path / "new").exists()

    def test_the_first_repeated_file_is_named_with_its_first_spelling(self, tmp_path, capsys,
                                                                       monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(pipeline, "collect_samples", pytest.fail)
        for name in ("a.jsonl", "b.jsonl"):
            build_fixture_corpus(tmp_path / name, n_papers=2)
        inputs = ["a.jsonl", "b.jsonl", "./b.jsonl", "./a.jsonl", "b.jsonl"]
        assert main(["build", *(arg for path in inputs for arg in ("--input", path)),
                     "--output", "out", "--seed", "7"]) == 2
        assert capsys.readouterr().err == \
            "error: --input b.jsonl and --input ./b.jsonl name the same file\n"

    def test_undecodable_byte_names_file_and_line_at_any_worker_count(self, tmp_path,
                                                                      capsys):
        corpus = tmp_path / "corpus.jsonl"
        build_fixture_corpus(corpus, n_papers=6)
        lines = corpus.read_bytes().splitlines(keepends=True)
        lines[3] = lines[3].replace(b"paper-", b"paper\xff", 1)
        corpus.write_bytes(b"".join(lines))
        errors = []
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}"
            assert main(["build", "--input", str(corpus), "--output", str(out),
                         "--seed", "7", "--workers", workers]) == 1
            errors.append(capsys.readouterr().err)
            assert not (out / "manifest.json").exists()
        assert errors[0] == errors[1] == f"error: {corpus}, line 4: byte 0xff is not valid UTF-8\n"

    @pytest.mark.parametrize("key, value, kind", [
        ("quota", [1], "an integer"),
        ("workers", "two", "an integer"),
        ("baseline", "false", "true or false"),
        ("output", 5, "a string"),
        ("quota", True, "an integer"),
        ("quota", 2.9, "an integer"),
        ("seed", False, "an integer"),
        ("workers", float("inf"), "an integer"),
    ], ids=["quota-list", "workers-word", "baseline-string", "output-number", "quota-bool",
            "quota-fraction", "seed-bool", "workers-infinite"])
    def test_mistyped_config_value_is_a_usage_error(self, key, value, kind, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        build_fixture_corpus(corpus)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"input": str(corpus), "output": str(tmp_path / "out"),
                                      "seed": 7, key: value}))
        assert main(["build", "--config", str(config)]) == 2
        assert capsys.readouterr().err == (
            f"error: config file {config}: key {key!r} must be {kind}, got {value!r}\n")
        assert not (tmp_path / "out").exists()

    def test_config_input_must_name_files(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"input": [3], "output": str(tmp_path / "out"),
                                      "seed": 7}))
        assert main(["build", "--config", str(config)]) == 2
        assert capsys.readouterr().err == (f"error: config file {config}: key 'input' must "
                                           f"be a string or a non-empty list of strings, "
                                           f"got [3]\n")

    def test_config_input_list_must_not_be_empty(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"input": [], "output": str(tmp_path / "out"), "seed": 1}))
        assert main(["build", "--config", str(config)]) == 2
        assert capsys.readouterr().err == (f"error: config file {config}: key 'input' must "
                                           f"be a string or a non-empty list of strings, "
                                           f"got []\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name, problem", [("missing.json", "not found"),
                                               ("a-directory", "is a directory"),
                                               ("a-fifo", "is not a regular file")])
    def test_config_that_is_not_a_file_is_a_usage_error(self, name, problem, tmp_path,
                                                         capsys):
        config = _not_a_regular_file(tmp_path / name)
        assert main(["build", "--config", str(config), "--input", str(tmp_path / "c.jsonl"),
                     "--output", str(tmp_path / "out"), "--seed", "1"]) == 2
        assert capsys.readouterr().err == f"error: config file {problem}: {config}\n"
        assert not (tmp_path / "out").exists()

    def test_undecodable_config_is_a_usage_error(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_bytes(b'{"quota": 2,\n "seed": "\xff7"}')
        assert main(["build", "--config", str(config), "--input", str(tmp_path / "c.jsonl"),
                     "--output", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"error: config file {config}, line 2: byte 0xff is not valid UTF-8\n")
        assert not (tmp_path / "out").exists()

    def test_config_strings_still_convert_to_numbers(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        build_fixture_corpus(corpus)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"input": str(corpus), "output": str(tmp_path / "out"),
                                      "seed": "7", "quota": "2", "workers": "1"}))
        assert main(["build", "--config", str(config)]) == 0
        assert (tmp_path / "out" / "dataset.jsonl").read_text() == GOLDEN_DATASET

    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_workers_below_one_is_a_usage_error(self, value, via, tmp_path, capsys,
                                                monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(pipeline, "worker_pool", no_pool)
        corpus = tmp_path / "corpus.jsonl"
        build_fixture_corpus(corpus)
        out = tmp_path / "out"
        argv = ["build", "--input", str(corpus), "--output", str(out), "--seed", "7"]
        if via == "flag":
            argv += ["--workers", str(value)]
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"workers": value}))
            argv += ["--config", str(config)]
        assert main(argv) == 2
        assert (f"--workers must be from 1 to {cli.MAX_WORKERS}, got {value}"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_workers_ceiling_allows_eight_and_every_usable_core(self, capsys):
        assert cli.MAX_WORKERS >= max(8, len(os.sched_getaffinity(0)))
        with pytest.raises(SystemExit):
            main(["build", "--help"])
        assert f"at most {cli.MAX_WORKERS} " in " ".join(capsys.readouterr().out.split())

    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize("value", ["ceiling", "ceiling+1", "10**30"])
    def test_workers_above_the_ceiling_is_a_usage_error(self, value, via, tmp_path, capsys):
        # The stub pool raises instead of starting processes: a value within
        # the ceiling reaches it and exits 1, one above is refused with 2.
        number = {"ceiling": cli.MAX_WORKERS, "ceiling+1": cli.MAX_WORKERS + 1,
                  "10**30": 10**30}[value]
        corpus = tmp_path / "corpus.jsonl"
        build_fixture_corpus(corpus)
        out = tmp_path / "out"
        argv = ["build", "--input", str(corpus), "--output", str(out), "--seed", "7"]
        if via == "flag":
            argv += ["--workers", str(number)]
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"workers": number}))
            argv += ["--config", str(config)]
        with patch.object(pipeline, "worker_pool", _no_pool):
            code = main(argv)
        err = capsys.readouterr().err
        if number == cli.MAX_WORKERS:
            assert (code, err) == (1, "error: no worker pool in this test\n")
        else:
            assert (code, err) == (
                2, f"error: --workers must be from 1 to {cli.MAX_WORKERS}, got {number}\n")
        assert not (out / "dataset.jsonl").exists()

    def test_mistyped_config_key_is_a_usage_error(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        build_fixture_corpus(corpus)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"input": str(corpus), "output": str(tmp_path / "out"),
                                      "seed": 7, "qouta": 2}))
        assert main(["build", "--config", str(config)]) == 2
        assert capsys.readouterr().err == (
            f"error: config file {config}: key 'qouta' is not an option of build "
            f"(baseline, input, output, quota, ratios, seed, workers)\n")
        assert not (tmp_path / "out").exists()

    def test_failed_write_leaves_no_manifest_and_no_temp_file(self, tmp_path, monkeypatch,
                                                              capsys):
        corpus = tmp_path / "corpus.jsonl"
        build_fixture_corpus(corpus)
        out = tmp_path / "out"
        argv = ["build", "--input", str(corpus), "--output", str(out), "--seed", "7",
                "--quota", "2"]
        assert main(argv) == 0
        assert (out / "manifest.json").exists()
        dataset = (out / "dataset.jsonl").read_bytes()

        real = pipeline._sample_to_record
        written = []

        def fail_on_second_record(sample):
            written.append(sample)
            if len(written) == 2:
                raise OSError("disk full")
            return real(sample)

        monkeypatch.setattr(pipeline, "_sample_to_record", fail_on_second_record)
        assert main(argv) == 1
        assert "error: disk full" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["dataset.jsonl", "rejections.jsonl"]
        assert (out / "dataset.jsonl").read_bytes() == dataset


class TestNulInConfigPath:
    """Argv cannot hold a NUL, so only a config file can put one in a path.
    It is a usage error naming the file and key, raised before any input is
    read or any directory is made."""

    @pytest.fixture
    def no_work(self, monkeypatch):
        monkeypatch.setattr(pipeline, "collect_samples", pytest.fail)
        monkeypatch.setattr(citecorpus.model, "read_table", pytest.fail)

    @staticmethod
    def _refused(command, config_values, tmp_path, capsys, key, value):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**config_values, key: value}))
        assert main([command, "--config", str(config)]) == 2
        assert capsys.readouterr() == ("", f"error: config file {config}: key {key!r} must "
                                           f"not hold a NUL character, got {value!r}\n")

    @pytest.mark.parametrize("command", ["train", "cross-domain"])
    def test_an_output_file(self, command, trained, tmp_path, capsys, no_work):
        out, _ = trained
        dist_path = tmp_path / "dist.tsv"
        fields = ["Biology", "Chemistry"]
        write_distance_matrix({(a, b): float(a != b) for a in fields for b in fields}, fields,
                              dist_path)
        own = {"train": {"seed": 4}, "cross-domain": {"distances": str(dist_path)}}[command]
        self._refused(command, {"input": str(out / "dataset.jsonl"), **own}, tmp_path, capsys,
                      "output", str(tmp_path / "m\0.json"))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "dist.tsv"]

    def test_a_build_output_directory(self, tmp_path, capsys, no_work):
        corpus = tmp_path / "corpus.jsonl"
        build_fixture_corpus(corpus)
        self._refused("build", {"input": str(corpus), "seed": 7}, tmp_path, capsys,
                      "output", str(tmp_path / "o\0ut"))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "corpus.jsonl"]

    @pytest.mark.parametrize("value", ["corpus\0.jsonl", ["corpus.jsonl", "corpus\0.jsonl"]],
                             ids=["string", "list"])
    def test_a_build_input(self, value, tmp_path, capsys, no_work, monkeypatch):
        monkeypatch.chdir(tmp_path)
        build_fixture_corpus(tmp_path / "corpus.jsonl")
        self._refused("build", {"output": "out", "seed": 7}, tmp_path, capsys, "input", value)
        assert not (tmp_path / "out").exists()


def test_outputs_with_long_names_open_at_once_keep_apart(tmp_path):
    # Two long names that differ only in their last byte, open in one process.
    names = ["a" * 250, "a" * 249 + "b"]
    with citecorpus.atomic_write(tmp_path / names[0]) as first, \
            citecorpus.atomic_write(tmp_path / names[1]) as second:
        first.write("first\n")
        second.write("second\n")
        temporary = sorted(p.name for p in tmp_path.iterdir())
        assert len(temporary) == 2 and all(name.startswith(".") for name in temporary)
    assert [(tmp_path / name).read_text() for name in names] == ["first\n", "second\n"]
    assert sorted(p.name for p in tmp_path.iterdir()) == names


# A command that reads a file, and what it calls the file, for each such
# path option: declared (train) or checked by the command itself (stats,
# audit-score).
READ_OPTIONS = {
    "train --input": (lambda path, tmp: ["train", "--input", path, "--output",
                                         str(tmp / "m.json"), "--seed", "1"], "dataset"),
    "stats --input": (lambda path, tmp: ["stats", "--input", path], "dataset"),
    "audit-score --key": (lambda path, tmp: ["audit-score", "--sheet", str(tmp / "s.tsv"),
                                             "--key", path], "key file"),
}


@pytest.mark.parametrize("name, problem", [("missing.jsonl", "not found"),
                                           ("a-directory", "is a directory"),
                                           ("a-fifo", "is not a regular file")])
@pytest.mark.parametrize("option", READ_OPTIONS)
def test_an_input_that_is_not_a_regular_file_is_a_usage_error(option, name, problem, tmp_path,
                                                              capsys):
    (tmp_path / "s.tsv").write_text("id\n")
    path = str(_not_a_regular_file(tmp_path / name))
    argv, what = READ_OPTIONS[option]
    assert main(argv(path, tmp_path)) == 2
    assert capsys.readouterr().err == f"error: {what} {problem}: {path}\n"


class TestStats:
    def test_stats_command(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        build_fixture_corpus(corpus)
        out = tmp_path / "out"
        main(["build", "--input", str(corpus), "--output", str(out),
              "--seed", "7", "--quota", "2"])
        capsys.readouterr()
        rc = main(["stats", "--input", str(out / "dataset.jsonl")])
        assert rc == 0
        text = capsys.readouterr().out
        assert "Total sentences" in text
        assert "Total cite-worthy" in text

    def test_stats_json_output(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        build_fixture_corpus(corpus)
        out = tmp_path / "out"
        main(["build", "--input", str(corpus), "--output", str(out),
              "--seed", "7", "--quota", "2"])
        capsys.readouterr()
        rc = main(["stats", "--input", str(out / "dataset.jsonl"), "--json"])
        assert rc == 0
        record = json.loads(capsys.readouterr().out)
        assert record["total_sentences"] == 5
        assert record["cite_worthy"] == 3


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A built dataset plus a trained model file, shared across tests."""
    tmp = tmp_path_factory.mktemp("trained")
    corpus = tmp / "corpus.jsonl"
    make_corpus_file(corpus, n_papers=240, seed=77, adversarial_rate=0.05,
                     fields=["Biology", "Chemistry"], paragraphs_per_paper=(2, 4))
    out = tmp / "out"
    assert main(["build", "--input", str(corpus), "--output", str(out),
                 "--seed", "21", "--quota", "150"]) == 0
    model_path = tmp / "model.json"
    assert main(["train", "--input", str(out / "dataset.jsonl"),
                 "--output", str(model_path), "--seed", "4"]) == 0
    return out, model_path


class TestTrainEval:
    def test_train_writes_versioned_model(self, trained):
        _, model_path = trained
        payload = json.loads(model_path.read_text())
        assert payload["format_version"] == 1
        assert payload["kind"] == "linear"
        assert payload["model"]["C"] == 0.1151
        assert "vocabulary" in payload

    def test_eval_reports_prf(self, trained, capsys):
        out, model_path = trained
        rc = main(["eval", "--model", str(model_path),
                   "--input", str(out / "dataset.jsonl")])
        assert rc == 0
        text = capsys.readouterr().out
        assert "precision" in text and "recall" in text and "f1" in text

    def test_eval_learns_the_lexical_signal(self, trained, capsys):
        out, model_path = trained
        main(["eval", "--model", str(model_path), "--input", str(out / "dataset.jsonl")])
        text = capsys.readouterr().out
        f1 = float(text.split("f1")[1].strip())
        assert f1 > 60.0  # the synthetic cited-verb signal is learnable

    def test_eval_all_positive_model_has_recall_100(self, trained, tmp_path, capsys):
        out, _ = trained
        vocab = Vocabulary(terms=("the",), df=(1,), total_docs=1)
        model = linear_model(np.zeros(1), 40.0)
        path = tmp_path / "all_positive.json"
        save_model(path, model, vocab)
        rc = main(["eval", "--model", str(path), "--input", str(out / "dataset.jsonl")])
        assert rc == 0
        text = capsys.readouterr().out
        assert "recall 100.00" in text

    def test_eval_field_filter(self, trained, capsys):
        out, model_path = trained
        rc = main(["eval", "--model", str(model_path),
                   "--input", str(out / "dataset.jsonl"), "--field", "Biology"])
        assert rc == 0
        rc = main(["eval", "--model", str(model_path),
                   "--input", str(out / "dataset.jsonl"), "--field", "Economics"])
        assert rc == 1  # no sentences in that field
        assert "no sentences" in capsys.readouterr().err

    def test_train_pu_records_c_estimate(self, trained, tmp_path, capsys):
        out, _ = trained
        model_path = tmp_path / "pu.json"
        rc = main(["train", "--input", str(out / "dataset.jsonl"),
                   "--output", str(model_path), "--seed", "4", "--pu"])
        assert rc == 0
        assert "labeling-frequency estimate" in capsys.readouterr().out
        payload = json.loads(model_path.read_text())
        assert payload["kind"] == "pu"
        assert 0.0 < payload["c_estimate"] <= 1.0

    def test_trained_model_files_are_saved_again_byte_for_byte(self, trained, tmp_path):
        # Pins the writer: the weights list and the terms' encoding.
        from citecorpus.model import load_model
        out, model_path = trained
        pu_path = tmp_path / "pu.json"
        assert main(["train", "--input", str(out / "dataset.jsonl"), "--output", str(pu_path),
                     "--seed", "4", "--pu"]) == 0
        for path in (model_path, pu_path):
            again = tmp_path / f"again-{path.name}"
            save_model(again, *load_model(path))
            assert again.read_bytes() == path.read_bytes()

    def test_train_pu_config_value_must_be_a_bool(self, trained, tmp_path, capsys):
        out, _ = trained
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"input": str(out / "dataset.jsonl"), "seed": 4,
                                      "output": str(tmp_path / "m.json"), "pu": "false"}))
        assert main(["train", "--config", str(config)]) == 2
        assert capsys.readouterr().err == (
            f"error: config file {config}: key 'pu' must be true or false, got 'false'\n")
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_config_split_must_be_a_split_choice(self, command, trained, tmp_path, capsys):
        out, model_path = trained
        config = tmp_path / "config.json"
        # Each command gets only its own options: any other key is a usage error.
        own = {"train": {"seed": 4, "output": str(tmp_path / "m.json")},
               "eval": {"model": str(model_path)}}[command]
        config.write_text(json.dumps({"input": str(out / "dataset.jsonl"), "split": "bogus",
                                      **own}))
        assert main([command, "--config", str(config)]) == 2
        assert capsys.readouterr().err == (
            f"error: config file {config}: key 'split' must be one of train, dev, test, all, "
            f"got 'bogus'\n")
        assert not (tmp_path / "m.json").exists()

    def test_train_writes_a_model_whose_name_is_near_the_limit(self, trained, tmp_path):
        # The temporary file beside the model fits wherever the model's name does.
        out, _ = trained
        name = "m" * 245 + ".json"
        models = tmp_path / "models"
        models.mkdir()
        assert main(["train", "--input", str(out / "dataset.jsonl"),
                     "--output", str(models / name), "--seed", "4"]) == 0
        assert [p.name for p in models.iterdir()] == [name]

    def test_train_reports_each_fit(self, trained, tmp_path, capsys):
        out, model_path = trained
        payload = json.loads(model_path.read_text())["model"]
        assert payload["converged"] is True
        assert 0 < payload["iterations"] < 200
        assert main(["train", "--input", str(out / "dataset.jsonl"), "--output",
                     str(tmp_path / "pu.json"), "--seed", "4", "--pu"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines if " iterations, max|grad| " in line] == [
            "labeling fit", "final fit"]
        assert all(line.endswith(", converged") for line in lines if "fit:" in line)

    @pytest.mark.parametrize("flags", [[], ["--pu"]], ids=["plain", "pu"])
    def test_a_c_too_small_for_the_data_is_an_error_naming_it(self, flags, trained,
                                                              tmp_path, capsys):
        # Under the project's warning filters a numpy RuntimeWarning would
        # end this test with an exception of its own.
        out, _ = trained
        model_path = tmp_path / "m.json"
        assert main(["train", "--input", str(out / "dataset.jsonl"), "--output",
                     str(model_path), "--seed", "4", "--c-value", "1e-318", *flags]) == 1
        assert capsys.readouterr().err == (
            "error: the Newton direction is not finite at C=1e-318: "
            "C is too small for this data\n")
        assert not model_path.exists()

    def test_train_warns_when_a_fit_stops_early(self, trained, tmp_path, monkeypatch,
                                                capsys, caplog):
        out, _ = trained
        monkeypatch.setattr(citecorpus.model, "_MAX_ITERATIONS", 2)
        assert main(["train", "--input", str(out / "dataset.jsonl"), "--output",
                     str(tmp_path / "m.json"), "--seed", "4"]) == 0
        assert "fit: 2 iterations" in capsys.readouterr().out
        assert "fit did not converge in 2 iterations" in caplog.text
        assert json.loads((tmp_path / "m.json").read_text())["model"]["converged"] is False

    def test_train_warns_when_no_step_helps(self, trained, tmp_path, monkeypatch, capsys,
                                            caplog):
        # Every trial point costs more than the zero start, beyond rounding.
        out, _ = trained
        real = citecorpus.model.loss_and_gradient
        losses = []

        def rising(*args):
            loss, grad_w, grad_b, sigma = real(*args)
            losses.append(loss)
            return ((loss if len(losses) == 1 else 2 * abs(losses[0]) + 1.0), grad_w, grad_b,
                    sigma)

        monkeypatch.setattr(citecorpus.model, "loss_and_gradient", rising)
        assert main(["train", "--input", str(out / "dataset.jsonl"), "--output",
                     str(tmp_path / "m.json"), "--seed", "4"]) == 0
        [line] = [line for line in capsys.readouterr().out.splitlines()
                  if line.startswith("fit:")]
        assert line.startswith("fit: 0 iterations, max|grad| ")
        assert line.endswith(", not converged")
        assert "fit did not converge in 0 iterations" in caplog.text


class TestUndecodableDataset:
    @pytest.mark.parametrize("command", ["stats", "train", "eval"])
    def test_exits_1_naming_file_and_line(self, command, trained, tmp_path, capsys):
        out, model_path = trained
        lines = (out / "dataset.jsonl").read_bytes().splitlines(keepends=True)
        bad = tmp_path / "dataset.jsonl"
        bad.write_bytes(b"".join(lines[:3]) + b'{"paper_id": "\xff"}\n' + b"".join(lines[3:]))
        argv = {"stats": ["stats", "--input", str(bad)],
                "train": ["train", "--input", str(bad), "--output", str(tmp_path / "m.json"),
                          "--seed", "4"],
                "eval": ["eval", "--model", str(model_path), "--input", str(bad)]}[command]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: {bad}, line 4: byte 0xff is not valid UTF-8\n")


    @pytest.mark.parametrize("command", ["stats", "train", "eval", "audit-export"])
    def test_a_lone_surrogate_escape_exits_1_naming_file_and_line(self, command, trained,
                                                                   tmp_path, capsys):
        out, model_path = trained
        lines = (out / "dataset.jsonl").read_text().splitlines(keepends=True)
        lines[3] = lines[3].replace('"text": "', '"text": "\\udfff', 1)
        bad = tmp_path / "dataset.jsonl"
        bad.write_text("".join(lines))
        argv = {"stats": ["stats", "--input", str(bad)],
                "train": ["train", "--input", str(bad), "--output", str(tmp_path / "m.json"),
                          "--seed", "4"],
                "eval": ["eval", "--model", str(model_path), "--input", str(bad)],
                "audit-export": ["audit-export", "--input", str(bad), "--baseline-input",
                                 str(out / "dataset.jsonl"), "--seed", "1", "--output",
                                 str(tmp_path / "audit")]}[command]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: {bad}, line 4: invalid JSON: lone surrogate \\udfff\n")
        assert not (tmp_path / "audit" / "sheet.tsv").exists()


def _subprocess_env(**overrides):
    """This process's environment with ``src`` on PYTHONPATH; an override
    of None removes the variable."""
    src = str(Path(citecorpus.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get(
        "PYTHONPATH")])))
    for name, value in overrides.items():
        env.pop(name, None)
        if value is not None:
            env[name] = value
    return env


def test_model_file_does_not_depend_on_blas_threads(tmp_path):
    # A threaded BLAS splits dot products by thread count once vectors pass
    # its threading threshold (10k for OpenBLAS), so the vocabulary here is
    # larger than that. Without the one-thread pin the two files differ on
    # any machine with two or more cores.
    rng = random.Random(17)
    words = [f"term{i}" for i in range(40000)]
    samples = [
        ParagraphSample(
            paper_id=f"p{i}", section_title="results", mag_field="Biology", split="train",
            sentences=tuple(LabeledSentence(f"{' '.join(rng.choices(words, k=14))} {cue}.",
                                            label, spans)
                            for cue, label, spans in (("reported", LABEL_CITE_WORTHY, 1),
                                                      ("observed", LABEL_NON_CITE_WORTHY, 0))))
        for i in range(1200)]
    dataset = tmp_path / "dataset.jsonl"
    write_dataset(samples, dataset)
    files = []
    for threads in (None, "1"):
        model_path = tmp_path / f"model-{threads}.json"
        subprocess.run([sys.executable, "-m", "citecorpus", "train", "--input", str(dataset),
                        "--output", str(model_path), "--seed", "1"],
                       env=_subprocess_env(OPENBLAS_NUM_THREADS=threads), check=True,
                       capture_output=True, timeout=120)
        files.append(model_path.read_bytes())
    assert len(json.loads(files[0])["vocabulary"]["terms"]) > 10000
    assert files[0] == files[1]


def test_cli_import_loads_no_numpy():
    # Build-side commands never touch the model, only a build at two or more
    # workers starts a process pool, and only a build checksums its rules;
    # importing the CLI must pay for none of numpy/scipy, multiprocessing,
    # concurrent.futures and hashlib.
    code = ("import sys, citecorpus.cli\n"
            "print(sorted({'numpy', 'scipy', 'multiprocessing', 'concurrent.futures',"
            " 'hashlib'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=_subprocess_env(), check=True)
    assert result.stdout.strip() == "[]"


def test_no_command_loads_scipy(trained, tmp_path):
    # Fits, PU probabilities and scoring all run on numpy alone.
    out, model_path = trained
    code = ("import sys\nfrom citecorpus.cli import main\ncode = main(sys.argv[1:])\n"
            "print(sorted({name.split('.')[0] for name in sys.modules} & {'numpy', 'scipy'}))\n"
            "sys.exit(code)")

    def run(*argv):
        result = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                                text=True, env=_subprocess_env(), timeout=300)
        assert result.returncode == 0, result.stderr[-2000:]
        assert result.stdout.splitlines()[-1] == "['numpy']"
        return result.stdout.splitlines()

    dataset = str(out / "dataset.jsonl")
    pu_path = tmp_path / "pu.json"
    assert "model saved to" in run("train", "--input", dataset, "--output",
                                   str(tmp_path / "m.json"), "--seed", "4")[-2]
    assert "model saved to" in run("train", "--input", dataset, "--output", str(pu_path),
                                   "--seed", "4", "--pu")[-2]
    for path in (model_path, pu_path):
        assert run("eval", "--model", str(path), "--input", dataset)[0].startswith("precision ")
    fields = ["Biology", "Chemistry"]
    dist_path = tmp_path / "dist.tsv"
    write_distance_matrix({(a, b): float(a != b) for a in fields for b in fields},
                          fields, dist_path)
    assert run("cross-domain", "--input", dataset, "--distances", str(dist_path), "--output",
               str(tmp_path / "grid.json"))[-2].startswith("grid written to ")


def _drop_last_term(payload):
    terms = payload["vocabulary"]["terms"]
    del terms[max(terms, key=lambda term: terms[term][0])]


def _out_of_range_index(payload):
    terms = payload["vocabulary"]["terms"]
    terms[next(iter(terms))][0] = len(terms)


def _first_term(payload):
    return payload["vocabulary"]["terms"][next(iter(payload["vocabulary"]["terms"]))]


def _swap_first_two_indices(payload):
    first, second = list(payload["vocabulary"]["terms"].values())[:2]
    first[0], second[0] = second[0], first[0]


MALFORMED_MODELS = {
    "missing-key": lambda payload: payload.clear() or payload.update(format_version=1),
    "missing-vocabulary": lambda payload: payload.pop("vocabulary"),
    "mistyped-key": lambda payload: payload["model"].update(bias="0.5"),
    "weights-vs-n_features": lambda payload: payload["model"]["weights"].append(0.0),
    "vocabulary-indices": _out_of_range_index,
    "n_features-vs-vocabulary": _drop_last_term,
    "class_weights-of-three": lambda payload: payload["model"]["class_weights"].append(1.0),
    "class_weights-of-one": lambda payload: payload["model"]["class_weights"].pop(),
    "vocabulary-entry-of-three": lambda payload: _first_term(payload).append(1),
    "vocabulary-entry-of-one": lambda payload: _first_term(payload).pop(),
    "vocabulary-indices-swapped": _swap_first_two_indices,
    "fit-report-missing": lambda payload: payload["model"].pop("iterations"),
    "total_docs-beyond-float": lambda payload: payload["vocabulary"].update(total_docs=10**400),
}


class TestMalformedModelFile:
    @pytest.mark.parametrize("case", sorted(MALFORMED_MODELS))
    def test_eval_exits_1_naming_the_file(self, case, trained, tmp_path, capsys):
        out, model_path = trained
        payload = json.loads(model_path.read_text())
        MALFORMED_MODELS[case](payload)
        bad = tmp_path / f"{case}.json"
        bad.write_text(json.dumps(payload))
        rc = main(["eval", "--model", str(bad), "--input", str(out / "dataset.jsonl")])
        assert rc == 1
        assert str(bad) in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["class_weights-of-three", "class_weights-of-one",
                                      "vocabulary-entry-of-three", "vocabulary-entry-of-one"])
    def test_pair_of_the_wrong_length_names_the_key(self, case, trained, tmp_path, capsys):
        out, model_path = trained
        payload = json.loads(model_path.read_text())
        MALFORMED_MODELS[case](payload)
        bad = tmp_path / "m.json"
        bad.write_text(json.dumps(payload))
        if case.startswith("class_weights"):
            message = "key 'class_weights' must hold two numbers"
        else:
            message = f"key {next(iter(payload['vocabulary']['terms']))!r} must hold two integers"
        assert main(["eval", "--model", str(bad), "--input", str(out / "dataset.jsonl")]) == 1
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"

    def test_missing_vocabulary_names_file_and_key(self, trained, tmp_path, capsys):
        out, model_path = trained
        payload = json.loads(model_path.read_text())
        MALFORMED_MODELS["missing-vocabulary"](payload)
        bad = tmp_path / "m.json"
        bad.write_text(json.dumps(payload))
        assert main(["eval", "--model", str(bad), "--input", str(out / "dataset.jsonl")]) == 1
        assert capsys.readouterr().err == (
            f"error: {bad}: key 'vocabulary' is missing or mistyped\n")

    @pytest.mark.parametrize("case", ["vocabulary-indices-swapped", "fit-report-missing",
                                      "total_docs-beyond-float"])
    def test_shape_save_model_never_writes_names_file_and_key(self, case, trained, tmp_path,
                                                             capsys):
        out, model_path = trained
        payload = json.loads(model_path.read_text())
        first = next(iter(payload["vocabulary"]["terms"]))
        MALFORMED_MODELS[case](payload)
        bad = tmp_path / "m.json"
        bad.write_text(json.dumps(payload))
        message = {
            "vocabulary-indices-swapped":
                f"key {first!r}: index 1 is not the term's rank 0 in sorted order",
            "fit-report-missing": "key 'iterations' is missing or mistyped",
            "total_docs-beyond-float": "key 'total_docs' holds a number that is not finite",
        }[case]
        assert main(["eval", "--model", str(bad), "--input", str(out / "dataset.jsonl")]) == 1
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"

    def test_non_finite_bias_names_file_and_key(self, trained, tmp_path, capsys):
        out, model_path = trained
        payload = json.loads(model_path.read_text())
        payload["model"]["bias"] = float("nan")
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps(payload))
        assert main(["eval", "--model", str(bad), "--input", str(out / "dataset.jsonl")]) == 1
        assert capsys.readouterr().err == (
            f"error: {bad}: key 'bias' holds a number that is not finite\n")

    @pytest.mark.parametrize("case", ["df-negative", "df-zero", "df-above-total_docs",
                                      "total_docs-zero", "total_docs-negative"])
    def test_vocabulary_count_out_of_range_names_file_and_key(self, case, trained, tmp_path,
                                                              capsys):
        out, model_path = trained
        payload = json.loads(model_path.read_text())
        vocabulary = payload["vocabulary"]
        term = next(iter(vocabulary["terms"]))
        total = vocabulary["total_docs"]
        df = {"df-negative": -1, "df-zero": 0, "df-above-total_docs": total + 1}.get(case)
        if df is not None:
            vocabulary["terms"][term][1] = df
            message = f"key {term!r}: document frequency {df} is not in 1..{total}"
        else:
            vocabulary["total_docs"] = {"total_docs-zero": 0, "total_docs-negative": -3}[case]
            message = f"key 'total_docs' must be at least 1, got {vocabulary['total_docs']}"
        bad = tmp_path / f"{case}.json"
        bad.write_text(json.dumps(payload))
        assert main(["eval", "--model", str(bad), "--input", str(out / "dataset.jsonl")]) == 1
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"

    def test_undecodable_byte_names_file_and_line(self, trained, tmp_path, capsys):
        out, _ = trained
        bad = tmp_path / "m.json"
        bad.write_bytes(b'{"format_version": 1, "kind": "\xff"}\n')
        assert main(["eval", "--model", str(bad), "--input", str(out / "dataset.jsonl")]) == 1
        assert capsys.readouterr().err == f"error: {bad}, line 1: byte 0xff is not valid UTF-8\n"


class TestTokenizeOnce:
    """A cold run tokenizes every sentence of the dataset once; a warm run
    reads the table cache and tokenizes none. Each test runs on its own copy
    of the dataset, which has no cache yet."""

    @pytest.fixture
    def calls(self, monkeypatch):
        from citecorpus import textproc
        tokenize = textproc.tokenize
        texts = []

        def counting(text):
            texts.append(text)
            return tokenize(text)

        monkeypatch.setattr(textproc, "tokenize", counting)
        return texts

    @pytest.fixture
    def dataset(self, trained, tmp_path):
        return Path(shutil.copy(trained[0] / "dataset.jsonl", tmp_path / "dataset.jsonl"))

    def _cold_then_warm(self, argv, dataset, calls):
        assert main(argv) == 0
        everything = [sent.text for sample in read_dataset(dataset)
                      for sent in sample.sentences]
        assert len(calls) == len(everything)
        assert sorted(calls) == sorted(everything)
        calls.clear()
        assert main(argv) == 0
        assert calls == []

    def test_train_tokenizes_every_sentence_once_cold_and_none_warm(self, dataset, tmp_path,
                                                                     calls):
        self._cold_then_warm(["train", "--input", str(dataset), "--output",
                              str(tmp_path / "m.json"), "--seed", "4"], dataset, calls)

    def test_cross_domain_tokenizes_every_sentence_once_cold_and_none_warm(
            self, dataset, tmp_path, calls):
        fields = ["Biology", "Chemistry"]
        dist_path = tmp_path / "dist.tsv"
        write_distance_matrix({(a, b): float(a != b) for a in fields for b in fields},
                              fields, dist_path)
        assert {sample.mag_field for sample in read_dataset(dataset)} == set(fields)
        self._cold_then_warm(["cross-domain", "--input", str(dataset),
                              "--distances", str(dist_path)], dataset, calls)


# Field names in and outside MAG_FIELDS, the empty name and a NUL included.
_TABLE_FIELDS = ["Biology", "Chemistry", "Nosuch", "", "Bio\x00"]
_TABLE_SPLITS = [*pipeline.SPLITS, pipeline.SPLIT_UNASSIGNED]
_TABLE_SAMPLES = st.lists(st.builds(
    lambda field, split, sentences: ParagraphSample(
        paper_id="p", section_title="introduction", mag_field=field, split=split,
        sentences=tuple(LabeledSentence(text, LABEL_CITE_WORTHY if cited else
                                        LABEL_NON_CITE_WORTHY, int(cited))
                        for text, cited in sentences)),
    st.sampled_from(_TABLE_FIELDS), st.sampled_from(_TABLE_SPLITS),
    st.lists(st.tuples(st.text("ab .", max_size=12), st.booleans()), min_size=1,
             max_size=4)), max_size=8)


def _row_counts(counts):
    """Each row's {term: count}."""
    matrix = counts.matrix
    return [{counts.terms[column]: int(count) for column, count
             in zip(matrix.indices[start:end].tolist(), matrix.data[start:end].tolist())}
            for start, end in zip(matrix.indptr[:-1].tolist(), matrix.indptr[1:].tolist())]


def _same_table(a, b):
    """Whether two sentence tables are equal array for array, dtypes included."""
    arrays = [(a.counts.matrix.data, b.counts.matrix.data),
              (a.counts.matrix.indices, b.counts.matrix.indices),
              (a.counts.matrix.indptr, b.counts.matrix.indptr),
              (a.label, b.label), (a.group, b.group)]
    return (a.counts.terms == b.counts.terms and a.counts.matrix.shape == b.counts.matrix.shape
            and a.groups == b.groups
            and all(x.dtype == y.dtype and np.array_equal(x, y) for x, y in arrays))


class TestSentenceTable:
    @settings(max_examples=200, deadline=None)
    @given(_TABLE_SAMPLES, st.sampled_from(["all", *_TABLE_SPLITS]),
           st.none() | st.sampled_from(_TABLE_FIELDS + ["Physics"]))
    def test_rows_and_labels_match_a_per_sentence_loop(self, samples, split, field):
        from citecorpus.model import TrainingError, count_tokens, featurize, fit_vocabulary
        from citecorpus.textproc import tokenize

        table = sentence_table(samples)
        every = [(sample.mag_field, sample.split, sentence) for sample in samples
                 for sentence in sample.sentences]
        expected = count_tokens(tokenize(sentence.text) for _, _, sentence in every)
        assert _row_counts(table.counts) == _row_counts(expected)
        assert table.counts.matrix.shape == (len(every), len(table.counts.terms))
        for name in [None, *_TABLE_FIELDS, "Physics"]:
            for part in ["all", *_TABLE_SPLITS]:
                rows = [i for i, (in_field, in_split, _) in enumerate(every)
                        if name in (None, in_field) and part in ("all", in_split)]
                if not rows:
                    where = "dataset" if name is None else f"field {name!r}"
                    with pytest.raises(ValueError) as exc:
                        table.rows(name, part)
                    assert str(exc.value) == f"{where} has no sentences for split {part!r}"
                    continue
                found = table.rows(name, part)
                assert found.tolist() == rows
                assert table.label[found].tolist() == [
                    int(every[i][2].label == LABEL_CITE_WORTHY) for i in rows]
        # The counts of the chosen rows give each command the vocabulary and
        # features that the table of only the chosen paragraphs gives, and
        # so do the whole table's features at those rows.
        chosen = [sample for sample in samples
                  if field in (None, sample.mag_field) and split in ("all", sample.split)]
        if not chosen:
            return
        rows = table.rows(field, split)
        counts = table.counts.rows(rows)
        direct = sentence_table(chosen)
        assert _row_counts(counts) == _row_counts(direct.counts)
        key_of = {code: key for key, code in table.groups.items()}
        direct_key_of = {code: key for key, code in direct.groups.items()}
        assert [key_of[code] for code in table.group[rows].tolist()] == [
            direct_key_of[code] for code in direct.group.tolist()]
        assert np.array_equal(table.label[rows], direct.label)
        for min_df in (1, 2):
            try:
                vocab = fit_vocabulary(direct.counts, min_df=min_df)
            except TrainingError as exc:
                with pytest.raises(TrainingError) as raised:
                    fit_vocabulary(counts, min_df=min_df)
                assert str(raised.value) == str(exc)
                continue
            assert fit_vocabulary(counts, min_df=min_df) == vocab
            alone = featurize(direct.counts, vocab)
            for features in (featurize(counts, vocab), featurize(table.counts, vocab)[rows]):
                assert features.shape == alone.shape
                for part in ("data", "indices", "indptr"):
                    assert np.array_equal(getattr(features, part), getattr(alone, part))


def _digest(path):
    return hashlib.sha256(Path(path).read_bytes()).digest()


def _table_cache(dataset):
    return dataset.with_name(f".{dataset.name}.table")


def _resaved(**changes):
    """A damaged cache: the good table saved again with ``changes`` to its
    labels, group codes, terms, matrix arrays or key."""
    def damage(cache, table, key):
        from citecorpus.model import CSR, SentenceTable, TokenCounts, save_table
        matrix = table.counts.matrix
        arrays = {"data": matrix.data, "indices": matrix.indices.copy(),
                  "indptr": matrix.indptr.copy(), "terms": list(table.counts.terms),
                  "label": table.label.copy(), "group": table.group.copy(), "key": key}
        for name, change in changes.items():
            arrays[name] = change(arrays[name])
        save_table(cache, SentenceTable(
            TokenCounts(arrays["terms"], CSR(arrays["data"], arrays["indices"],
                                             arrays["indptr"], matrix.shape)),
            arrays["label"], arrays["group"], table.groups), arrays["key"])
    return damage


def _set(index, value_of):
    """A change that sets ``array[index]`` to ``value_of(array)``."""
    def change(array):
        array[index] = value_of(array)
        return array
    return change


def _newer_version(cache, table, key):
    from citecorpus import model
    version = model.TABLE_VERSION
    try:
        model.TABLE_VERSION = version + 1
        model.save_table(cache, table, key)
    finally:
        model.TABLE_VERSION = version


def _directory(cache, table, key):
    cache.unlink()
    cache.mkdir()


def _rewritten(change):
    """A damaged cache: the good file with ``change`` applied to its bytes
    before the CRC-32, and a valid CRC-32 of the result."""
    def damage(cache, table, key):
        body = change(cache.read_bytes()[:-4])
        cache.write_bytes(body + zlib.crc32(body).to_bytes(4, "little"))
    return damage


def _header(text_of):
    """A damaged cache: the good file with ``text_of(header)`` as its header
    line, ``header`` being the good header's object, and a valid CRC-32."""
    def change(body):
        head, _, rest = body.partition(b"\n")
        return text_of(json.loads(head)).encode("ascii") + b"\n" + rest
    return _rewritten(change)


def _strings(text):
    """A damaged cache: the good file with ``text`` as the JSON text of its
    header's strings, and a valid CRC-32."""
    return _header(lambda header: json.dumps({**header, "strings": "@"}).replace('"@"', text))


def _npz(cache, table, key):
    """The table as its earlier format held it: an uncompressed ``.npz``."""
    matrix = table.counts.matrix
    strings = json.dumps([table.counts.terms, [field for field, _ in table.groups],
                          [split for _, split in table.groups]]).encode("ascii")
    with open(cache, "wb") as fh:
        np.savez(fh, version=np.int64(1), sha256=np.frombuffer(key, np.uint8),
                 strings=np.frombuffer(strings, np.uint8), data=matrix.data,
                 indices=matrix.indices, indptr=matrix.indptr,
                 label=table.label.astype(np.int64), group=table.group.astype(np.int64))


DAMAGED_CACHES = {
    "truncated": lambda cache, table, key: cache.write_bytes(
        cache.read_bytes()[:cache.stat().st_size // 2]),
    "random-bytes": lambda cache, table, key: cache.write_bytes(
        random.Random(5).randbytes(cache.stat().st_size)),
    "directory": _directory,
    "index-out-of-range": _resaved(indices=_set(-1, lambda indices: indices.max() + 1)),
    "indptr-not-monotone": _resaved(indptr=_set(1, lambda indptr: indptr[2] + 1)),
    "unsorted-terms": _resaved(terms=lambda terms: [terms[1], terms[0], *terms[2:]]),
    "repeated-term": _resaved(terms=lambda terms: [terms[0], terms[0], *terms[2:]]),
    "repeated-group": _header(lambda header: json.dumps({**header, "strings": [
        header["strings"][0], *(names + names[:1] for names in header["strings"][1:])]})),
    "label-2": _resaved(label=_set(0, lambda label: 2)),
    "group-code-out-of-range": _resaved(group=_set(0, lambda group: group.max() + 1)),
    "strings-not-json": _strings('[["a", "b"'),
    "strings-not-three-lists": _strings('[["a"], ["Biology"], 5]'),
    "strings-deeply-nested": _strings(DEEP_JSON),
    "header-not-json": _header(lambda header: "not JSON"),
    "header-claims-2**40-items": _header(lambda header: json.dumps(
        {**header, "lengths": [2**40, *header["lengths"][1:]]})),
    "version-true": _header(lambda header: json.dumps({**header, "version": True})),
    "trailing-bytes": _rewritten(lambda body: body + bytes(4)),
    "wrong-crc": lambda cache, table, key: cache.write_bytes(
        (raw := cache.read_bytes())[:-1] + bytes([raw[-1] ^ 1])),
    "wrong-key": _resaved(key=lambda key: bytes(32)),
    "wrong-version": _newer_version,
    "npz-archive": _npz,
}

# What load_table says of a damaged header. A claim of 2**40 items is
# refused by its lengths, before any array is made.
HEADER_FAULTS = {
    "wrong-crc": "the CRC-32 does not match",
    "header-not-json": "Expecting value: line 1 column 1",
    "version-true": "key 'version' is missing or mistyped",
    "header-claims-2**40-items": "the header claims arrays of [1099511627776, ",
    "trailing-bytes": "the header claims arrays of [",
}

# A table pinned with the version it is stored under: a change to the
# tokenizer or the table fails here until TABLE_VERSION is bumped.
GOLDEN_TABLE_TEXTS = ["The cell divides; cells divide.", "Straße, café und naïve Façade!",
                      "ΔG° fell 3.5% in 2021", "x_1 and X-2 at 300 \u212a", "!!!"]
GOLDEN_TABLE = (
    1,
    ["1", "2", "2021", "3", "300", "5", "and", "at", "café", "cell", "cells", "divide",
     "divides", "façade", "fell", "in", "k", "naïve", "straße", "the", "und", "x", "δg"],
    [1] * 22 + [2],
    [9, 10, 11, 12, 19, 8, 13, 17, 18, 20, 2, 3, 5, 14, 15, 22, 0, 1, 4, 6, 7, 16, 21],
    [0, 5, 10, 16, 23, 23],
)


class TestTableCache:
    """The model commands' sentence-table cache: a stale, damaged or
    unwritable cache gives the output of a fresh read, exit 0 and no
    traceback, and leaves no temporary file."""

    @pytest.fixture
    def dataset(self, trained, tmp_path):
        (tmp_path / "data").mkdir()
        return Path(shutil.copy(trained[0] / "dataset.jsonl", tmp_path / "data"))

    @staticmethod
    def _eval(model_path, dataset, capsys):
        code = main(["eval", "--model", str(model_path), "--input", str(dataset),
                     "--split", "all"])
        out, err = capsys.readouterr()
        assert "Traceback" not in err
        return code, out

    def _fresh(self, model_path, dataset, capsys):
        """The output of eval on a copy of ``dataset`` beside no cache."""
        fresh = dataset.parent.parent / "fresh"
        shutil.rmtree(fresh, ignore_errors=True)
        fresh.mkdir()
        code, out = self._eval(model_path, shutil.copy(dataset, fresh), capsys)
        shutil.rmtree(fresh)
        assert code == 0
        return out

    @staticmethod
    def _listing(dataset):
        return sorted(p.name for p in dataset.parent.iterdir())

    def test_a_second_run_reads_no_dataset(self, trained, dataset, tmp_path, capsys,
                                           monkeypatch):
        _, model_path = trained
        expected = self._fresh(model_path, dataset, capsys)
        train = ["train", "--input", str(dataset), "--output", str(tmp_path / "m.json"),
                 "--seed", "4"]
        assert main(train) == 0
        trained_out = capsys.readouterr().out

        def no_read(*args, **kwargs):
            raise AssertionError("the dataset was read")

        monkeypatch.setattr(pipeline, "read_dataset", no_read)
        assert self._eval(model_path, dataset, capsys) == (0, expected)
        assert main(train) == 0
        assert capsys.readouterr().out == trained_out
        assert self._listing(dataset) == [".dataset.jsonl.table", "dataset.jsonl"]

    def test_a_dataset_whose_name_is_near_the_limit_is_cached(self, trained, dataset, capsys,
                                                                monkeypatch):
        # The cache's name is 7 bytes longer than the dataset's, and its
        # temporary file's name fits wherever the cache's does.
        _, model_path = trained
        expected = self._fresh(model_path, dataset, capsys)
        name = "d" * 234 + ".jsonl"
        dataset = dataset.rename(dataset.with_name(name))
        assert self._eval(model_path, dataset, capsys) == (0, expected)
        assert self._listing(dataset) == [f".{name}.table", name]

        def no_read(*args, **kwargs):
            raise AssertionError("the dataset was read")

        monkeypatch.setattr(pipeline, "read_dataset", no_read)
        assert self._eval(model_path, dataset, capsys) == (0, expected)

    def test_a_stale_cache_is_read_again(self, trained, dataset, capsys, monkeypatch):
        # The edit keeps the file's length and modification time.
        _, model_path = trained
        assert self._eval(model_path, dataset, capsys)[0] == 0
        old_key, stat = _digest(dataset), dataset.stat()
        text = dataset.read_bytes()
        at = text.index(b'"text": "') + len(b'"text": "')
        dataset.write_bytes(text[:at] + (b"Q" if text[at:at + 1] != b"Q" else b"R")
                            + text[at + 1:])
        os.utime(dataset, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert dataset.stat().st_size == stat.st_size
        expected = self._fresh(model_path, dataset, capsys)
        reads = []
        monkeypatch.setattr(pipeline, "read_dataset", lambda path: reads.append(path)
                            or read_dataset(path))
        assert self._eval(model_path, dataset, capsys) == (0, expected)
        assert reads == [dataset]
        from citecorpus.model import load_table
        load_table(_table_cache(dataset), _digest(dataset))
        with pytest.raises(ValueError):
            load_table(_table_cache(dataset), old_key)
        assert self._listing(dataset) == [".dataset.jsonl.table", "dataset.jsonl"]

    def test_a_dataset_changed_while_read_is_not_cached(self, trained, dataset, capsys,
                                                        monkeypatch):
        _, model_path = trained
        expected = self._fresh(model_path, dataset, capsys)
        original = dataset.read_bytes()

        def read_then_change(path):
            samples = read_dataset(path)
            dataset.write_bytes(original + original.splitlines(keepends=True)[0])
            return samples

        monkeypatch.setattr(pipeline, "read_dataset", read_then_change)
        assert self._eval(model_path, dataset, capsys) == (0, expected)
        assert self._listing(dataset) == ["dataset.jsonl"]

    def test_a_stale_cache_of_a_malformed_dataset(self, trained, dataset, capsys):
        _, model_path = trained
        assert self._eval(model_path, dataset, capsys)[0] == 0
        cached = _table_cache(dataset).read_bytes()
        lines = dataset.read_bytes().splitlines(keepends=True)
        lineno = next(i for i, line in enumerate(lines, 1) if b'"split": "train"' in line)
        lines[lineno - 1] = lines[lineno - 1].replace(b'"split": "train"', b'"split": "trian"')
        dataset.write_bytes(b"".join(lines))
        assert main(["eval", "--model", str(model_path), "--input", str(dataset)]) == 1
        assert capsys.readouterr().err == (
            f"error: {dataset}, line {lineno}: unknown split 'trian'\n")
        assert _table_cache(dataset).read_bytes() == cached
        assert self._listing(dataset) == [".dataset.jsonl.table", "dataset.jsonl"]

    @pytest.mark.parametrize("damage", DAMAGED_CACHES.values(), ids=DAMAGED_CACHES)
    def test_a_damaged_cache_is_a_miss(self, damage, trained, dataset, capsys):
        from citecorpus.model import load_table
        _, model_path = trained
        expected = self._fresh(model_path, dataset, capsys)
        assert self._eval(model_path, dataset, capsys) == (0, expected)
        cache, key = _table_cache(dataset), _digest(dataset)
        table = load_table(cache, key)
        damage(cache, table, key)
        with pytest.raises((ValueError, OSError)):
            load_table(cache, key)
        assert self._eval(model_path, dataset, capsys) == (0, expected)
        assert self._listing(dataset) == [".dataset.jsonl.table", "dataset.jsonl"]
        if not cache.is_dir():
            assert _same_table(load_table(cache, key), table)

    @pytest.mark.parametrize("damage", ["unsorted-terms", "repeated-term"])
    def test_terms_out_of_order_are_named(self, damage, trained, dataset, capsys):
        from citecorpus.model import load_table
        _, model_path = trained
        assert self._eval(model_path, dataset, capsys)[0] == 0
        cache, key = _table_cache(dataset), _digest(dataset)
        DAMAGED_CACHES[damage](cache, load_table(cache, key), key)
        with pytest.raises(ValueError, match="terms are not sorted and distinct"):
            load_table(cache, key)

    @pytest.mark.parametrize("damage, message", [
        ("repeated-group", "a (field, split) group repeats"),
        ("label-2", "a label or group code is out of range"),
        ("group-code-out-of-range", "a label or group code is out of range")])
    def test_bad_groups_and_labels_are_named(self, damage, message, trained, dataset, capsys):
        from citecorpus.model import load_table
        _, model_path = trained
        assert self._eval(model_path, dataset, capsys)[0] == 0
        cache, key = _table_cache(dataset), _digest(dataset)
        DAMAGED_CACHES[damage](cache, load_table(cache, key), key)
        with pytest.raises(ValueError) as exc:
            load_table(cache, key)
        assert message in str(exc.value)

    @pytest.mark.parametrize("damage", HEADER_FAULTS)
    def test_header_faults_are_named(self, damage, trained, dataset, capsys):
        from citecorpus.model import load_table
        message = HEADER_FAULTS[damage]
        _, model_path = trained
        assert self._eval(model_path, dataset, capsys)[0] == 0
        cache, key = _table_cache(dataset), _digest(dataset)
        DAMAGED_CACHES[damage](cache, load_table(cache, key), key)
        with pytest.raises(ValueError) as exc:
            load_table(cache, key)
        assert str(exc.value).startswith(f"{cache}: not a table file for this dataset (")
        assert message in str(exc.value)

    @pytest.mark.parametrize("step", ["open", "replace"])
    def test_a_failed_cache_write_is_skipped(self, step, trained, dataset, capsys,
                                              monkeypatch):
        _, model_path = trained
        expected = self._fresh(model_path, dataset, capsys)
        denials = []

        def denied(*args, **kwargs):
            denials.append(args)
            raise PermissionError(errno.EACCES, "Permission denied")

        if step == "open":
            def opener(path, *args, **kwargs):
                if Path(path).name.startswith("..dataset.jsonl.table."):
                    denied()
                return open(path, *args, **kwargs)
            monkeypatch.setattr(citecorpus, "open", opener, raising=False)
        else:
            monkeypatch.setattr(os, "replace", denied)
        assert self._eval(model_path, dataset, capsys) == (0, expected)
        assert len(denials) == 1
        assert self._listing(dataset) == ["dataset.jsonl"]

    def test_concurrent_cold_runs_agree(self, trained, dataset, capsys):
        from citecorpus.model import load_table
        _, model_path = trained
        expected = self._fresh(model_path, dataset, capsys)
        argv = [sys.executable, "-m", "citecorpus", "eval", "--model", str(model_path),
                "--input", str(dataset), "--split", "all"]
        procs = [subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  env=_subprocess_env()) for _ in range(4)]
        try:
            results = [proc.communicate(timeout=300) for proc in procs]
        finally:
            for proc in procs:
                proc.kill()
                proc.wait(timeout=60)
        assert [proc.returncode for proc in procs] == [0] * 4, results
        assert {out.decode() for out, _ in results} == {expected}
        assert self._listing(dataset) == [".dataset.jsonl.table", "dataset.jsonl"]
        load_table(_table_cache(dataset), _digest(dataset))

    def test_golden_table(self):
        from citecorpus.model import TABLE_VERSION
        table = sentence_table([ParagraphSample(
            paper_id="p", section_title="results", mag_field="Biology", split="train",
            sentences=tuple(LabeledSentence(text, LABEL_NON_CITE_WORTHY, 0)
                            for text in GOLDEN_TABLE_TEXTS))])
        matrix = table.counts.matrix
        assert (TABLE_VERSION, table.counts.terms, matrix.data.tolist(),
                matrix.indices.tolist(), matrix.indptr.tolist()) == GOLDEN_TABLE

    @settings(max_examples=100, deadline=None)
    @given(_TABLE_SAMPLES, st.binary(min_size=32, max_size=32))
    def test_save_and_load_round_trip(self, samples, key):
        from citecorpus.model import load_table, save_table
        # The ASCII header escapes a character beyond the BMP as a surrogate
        # pair; a field name passes through. A lone surrogate, which no
        # dataset holds, is invalid JSON and the table is refused.
        samples = [*samples, ParagraphSample(
            paper_id="p", section_title="results", mag_field="\U0001F600", split="test",
            sentences=(LabeledSentence("Ab \U0001F600.", LABEL_CITE_WORTHY, 1),))]
        table = sentence_table(samples)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.table"
            save_table(path, table, key)
            assert _same_table(load_table(path, key), table)
            lone = sentence_table([dataclasses.replace(samples[-1], mag_field="\ud800")])
            save_table(path, lone, key)
            with pytest.raises(ValueError, match="lone surrogate"):
                load_table(path, key)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_damage_anywhere_loads_the_table_or_is_refused(self, trained, data):
        from citecorpus.model import load_table, save_table
        table = sentence_table(read_dataset(trained[0] / "dataset.jsonl"))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.table"
            save_table(path, table, bytes(32))
            raw = bytearray(path.read_bytes())
            if data.draw(st.booleans(), label="truncate"):
                raw = raw[:data.draw(st.integers(0, len(raw) - 1), label="length")]
            else:
                for _ in range(data.draw(st.integers(1, 4), label="changes")):
                    at = data.draw(st.integers(0, len(raw) - 1), label="at")
                    raw[at] = data.draw(st.integers(0, 255), label="byte")
            path.write_bytes(bytes(raw))
            try:
                loaded = load_table(path, bytes(32))
            except (ValueError, OSError):
                return
            assert _same_table(loaded, table)


@pytest.fixture(scope="module")
def ten_fields(tmp_path_factory):
    """A built dataset over every field, and a distance matrix for its grid."""
    tmp = tmp_path_factory.mktemp("ten_fields")
    corpus = tmp / "corpus.jsonl"
    make_corpus_file(corpus, n_papers=200, seed=5, fields=FIELDS, paragraphs_per_paper=(2, 4))
    assert main(["build", "--input", str(corpus), "--output", str(tmp / "out"),
                 "--seed", "1", "--quota", "30"]) == 0
    dist_path = tmp / "dist.tsv"
    write_distance_matrix({(a, b): float(abs(FIELDS.index(a) - FIELDS.index(b)))
                           for a in FIELDS for b in FIELDS}, FIELDS, dist_path)
    return tmp / "out" / "dataset.jsonl", dist_path


class TestCrossDomain:
    def test_two_field_grid(self, trained, tmp_path, capsys):
        out, _ = trained
        fields = ["Biology", "Chemistry"]
        distances = {(a, b): (0.0 if a == b else 1.5) for a in fields for b in fields}
        dist_path = tmp_path / "dist.tsv"
        write_distance_matrix(distances, fields, dist_path)
        grid_path = tmp_path / "grid.json"
        rc = main(["cross-domain", "--input", str(out / "dataset.jsonl"),
                   "--distances", str(dist_path), "--seed", "2",
                   "--output", str(grid_path)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "sigma" in text and "rho" in text
        grid = json.loads(grid_path.read_text())
        assert grid["fields"] == fields
        for train_field in fields:
            for test_field in fields:
                assert 0.0 <= grid["f1"][train_field][test_field] <= 100.0

    def test_a_c_too_small_for_the_data_names_the_field(self, trained, tmp_path, capsys):
        out, _ = trained
        fields = ["Biology", "Chemistry"]
        dist_path = tmp_path / "dist.tsv"
        write_distance_matrix({(a, b): float(a != b) for a in fields for b in fields}, fields,
                              dist_path)
        assert main(["cross-domain", "--input", str(out / "dataset.jsonl"), "--distances",
                     str(dist_path), "--c-value", "1e-318"]) == 1
        assert capsys.readouterr().err == (
            "error: field 'Biology', split 'train': the Newton direction is not finite at "
            "C=1e-318: C is too small for this data\n")

    def test_every_cell_matches_a_separate_fit_and_predict(self, ten_fields, tmp_path):
        # Hand-check the orchestration: each cell must equal a model trained
        # on its row field's train split, predicting the cell's rows alone:
        # the held-out test split in domain, the whole column field out of
        # domain.
        from citecorpus.model import (compute_class_weights, count_tokens, featurize,
                                      fit_vocabulary, predict, train_logreg)
        from citecorpus.textproc import tokenize

        dataset_path, dist_path = ten_fields
        grid_path = tmp_path / "grid.json"
        assert main(["cross-domain", "--input", str(dataset_path),
                     "--distances", str(dist_path), "--output", str(grid_path)]) == 0
        grid = json.loads(grid_path.read_text())

        samples = read_dataset(dataset_path)
        def sentences(split, field):
            texts, labels = [], []
            for s in samples:
                if s.mag_field == field and split in ("all", s.split):
                    for sent in s.sentences:
                        texts.append(tokenize(sent.text))
                        labels.append(1 if sent.label == "cite-worthy" else 0)
            return count_tokens(texts), labels

        assert grid["fields"] == sorted(FIELDS)
        for train_field in FIELDS:
            texts, labels = sentences("train", train_field)
            vocab = fit_vocabulary(texts, min_df=1)
            model = train_logreg(featurize(texts, vocab), labels,
                                 compute_class_weights(labels), C=0.1151)
            for test_field in FIELDS:
                test_texts, test_labels = sentences(
                    "test" if test_field == train_field else "all", test_field)
                preds = predict(model, featurize(test_texts, vocab)).tolist()
                tp = sum(p and g for p, g in zip(preds, test_labels))
                precision = tp / sum(preds) if sum(preds) else 0.0
                recall = tp / sum(test_labels) if sum(test_labels) else 0.0
                f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
                expected = 100.0 * f1
                assert grid["f1"][train_field][test_field] == pytest.approx(expected, abs=1e-9)

    def test_one_prediction_per_fit(self, ten_fields, monkeypatch):
        calls = {"train_logreg": 0, "predict": 0}
        for name in calls:
            def counting(*args, _real=getattr(citecorpus.model, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(citecorpus.model, name, counting)
        dataset_path, dist_path = ten_fields
        assert main(["cross-domain", "--input", str(dataset_path),
                     "--distances", str(dist_path)]) == 0
        assert calls == {"train_logreg": len(FIELDS), "predict": len(FIELDS)}

    def test_fields_featurizes_only_their_sentences(self, ten_fields, tmp_path, monkeypatch):
        # --fields naming 2 of the 10 fields featurizes and scores only their
        # sentences, and the grid is the one a dataset of only them gives.
        dataset_path, dist_path = ten_fields
        fields = ["Biology", "Physics"]
        samples = read_dataset(dataset_path)
        only = tmp_path / "only.jsonl"
        write_dataset([sample for sample in samples if sample.mag_field in fields], only)
        grids = []
        for path in (only, dataset_path):
            grid_path = tmp_path / f"grid-{len(grids)}.json"
            assert main(["cross-domain", "--input", str(path), "--distances", str(dist_path),
                         "--fields", ",".join(fields), "--output", str(grid_path)]) == 0
            grids.append(grid_path.read_bytes())
        assert grids[0] == grids[1]
        featurized = []
        featurize = citecorpus.model.featurize
        monkeypatch.setattr(citecorpus.model, "featurize",
                            lambda counts, vocab: featurized.append(len(counts))
                            or featurize(counts, vocab))
        assert main(["cross-domain", "--input", str(dataset_path), "--distances",
                     str(dist_path), "--fields", ",".join(fields)]) == 0
        assert featurized == [sum(len(sample.sentences) for sample in samples
                                  if sample.mag_field in fields)] * len(fields)

    def test_undecodable_distance_matrix_names_file_and_line(self, trained, tmp_path,
                                                             capsys):
        out, _ = trained
        fields = ["Biology", "Chemistry"]
        dist_path = tmp_path / "dist.tsv"
        write_distance_matrix({(a, b): 1.0 for a in fields for b in fields}, fields, dist_path)
        lines = dist_path.read_bytes().splitlines(keepends=True)
        lines[2] = lines[2].replace(b"Chemistry", b"Chemistr\xff")
        dist_path.write_bytes(b"".join(lines))
        assert main(["cross-domain", "--input", str(out / "dataset.jsonl"),
                     "--distances", str(dist_path)]) == 1
        assert capsys.readouterr().err == (
            f"error: {dist_path}, line 3: byte 0xff is not valid UTF-8\n")

    def test_non_finite_distance_names_file_and_line(self, trained, tmp_path, capsys):
        out, _ = trained
        dist_path = tmp_path / "dist.tsv"
        dist_path.write_text("\tBiology\tChemistry\nBiology\t0\t1\nChemistry\tnan\t0\n")
        grid_path = tmp_path / "grid.json"
        assert main(["cross-domain", "--input", str(out / "dataset.jsonl"), "--distances",
                     str(dist_path), "--output", str(grid_path)]) == 1
        assert capsys.readouterr().err == (
            f"error: {dist_path}, line 3: 'nan' is not a finite number\n")
        assert not grid_path.exists()

    @pytest.mark.parametrize("matrix_fields, flag", [
        (["Biology", "Chemistry"], ["--fields", "Biology"]),
        (["Biology", "Chemistry"], ["--fields", "Biology, Biology"]),
        (["Biology"], []),
    ], ids=["fields-flag", "repeated-field", "one-field-matrix"])
    def test_one_field_fails_before_reading_the_dataset(self, matrix_fields, flag, trained,
                                                        tmp_path, monkeypatch, capsys):
        def no_read(path):
            raise AssertionError("the dataset was read")

        monkeypatch.setattr(pipeline, "read_dataset", no_read)
        out, _ = trained
        dist_path = tmp_path / "dist.tsv"
        write_distance_matrix({(a, b): 0.0 for a in matrix_fields for b in matrix_fields},
                              matrix_fields, dist_path)
        assert main(["cross-domain", "--input", str(out / "dataset.jsonl"),
                     "--distances", str(dist_path)] + flag) == 1
        assert capsys.readouterr().err == (
            "error: the cross-domain grid needs two or more fields, got ['Biology']\n")

    @pytest.mark.parametrize("case", ["missing-matrix-row", "field-not-in-dataset",
                                      "field-without-test-rows", "field-without-train-rows",
                                      "one-class-train-rows", "constant-distance-column",
                                      "empty-train-vocabulary"])
    def test_inputs_checked_before_the_first_fit(self, case, trained, tmp_path, monkeypatch,
                                                 capsys):
        def no_fit(*args, **kwargs):
            raise AssertionError("a model was fitted")

        monkeypatch.setattr(citecorpus.model, "train_logreg", no_fit)
        out, _ = trained
        dataset_path = out / "dataset.jsonl"
        fields = ["Biology", "Chemistry"]
        rows, flags = fields, []
        if case == "missing-matrix-row":
            rows = ["Biology"]
            expected = (f"{tmp_path / 'dist.tsv'}: incomplete distance matrix; missing pairs: "
                        "[('Chemistry', 'Biology'), ('Chemistry', 'Chemistry')]")
        elif case == "field-not-in-dataset":
            fields = rows = fields + ["Nosuch"]
            expected = "field 'Nosuch' has no sentences for split 'all'"
        elif case == "constant-distance-column":
            # Every column below is constant; the row checks come first.
            expected = (f"{tmp_path / 'dist.tsv'}: every distance to test field 'Biology' "
                        "is the same, so its rho is undefined")
        elif case == "one-class-train-rows":
            samples = read_dataset(dataset_path)
            for sample in samples:
                if sample.mag_field == "Chemistry":
                    sample.sentences = tuple(LabeledSentence(s.text, LABEL_NON_CITE_WORTHY)
                                             for s in sample.sentences)
            dataset_path = tmp_path / "dataset.jsonl"
            write_dataset(samples, dataset_path)
            expected = ("field 'Chemistry', split 'train': both classes must be present to "
                        "compute class weights")
        elif case == "empty-train-vocabulary":
            # Each Chemistry train sentence becomes one word of its own, so
            # no term of that field is in two of them.
            samples = read_dataset(dataset_path)
            words = 0
            for sample in samples:
                if sample.mag_field == "Chemistry" and sample.split == "train":
                    sample.sentences = tuple(s._replace(text=f"Word{words + i}.")
                                             for i, s in enumerate(sample.sentences))
                    words += len(sample.sentences)
            dataset_path = tmp_path / "dataset.jsonl"
            write_dataset(samples, dataset_path)
            flags = ["--min-df", "2"]
            expected = (f"field 'Chemistry', split 'train': vocabulary is empty "
                        f"(min_df=2 over {words} documents)")
        else:
            emptied = "test" if case == "field-without-test-rows" else "train"
            samples = read_dataset(dataset_path)
            for sample in samples:
                if sample.mag_field == "Chemistry" and sample.split == emptied:
                    sample.split = "dev"
            dataset_path = tmp_path / "dataset.jsonl"
            write_dataset(samples, dataset_path)
            expected = f"field 'Chemistry' has no sentences for split {emptied!r}"
        dist_path = tmp_path / "dist.tsv"
        with open(dist_path, "w", encoding="utf-8") as fh:
            fh.write("\t" + "\t".join(fields) + "\n")
            for train in rows:
                fh.write("\t".join([train] + ["1.0"] * len(fields)) + "\n")
        assert main(["cross-domain", "--input", str(dataset_path), "--distances",
                     str(dist_path), "--fields", ",".join(fields), *flags]) == 1
        assert capsys.readouterr().err == f"error: {expected}\n"

    @pytest.mark.parametrize("test_field, x", [
        ("Biology", "1e308"), ("Biology", "1e200"), ("Biology", "1e-200"),
        ("Chemistry", "9e153"), ("Chemistry", "1e-160"),
    ], ids=["distances-1e308", "distances-1e200", "distances-1e-200",
            "distances-9e153", "distances-1e-160"])
    def test_distances_beyond_the_float_range_have_a_rho(self, test_field, x, trained,
                                                         tmp_path, capsys):
        # The test field's two distances are +x and -x: their squares, or the
        # product of the distance and F1 variances, overflow or underflow
        # unless the column is scaled. With two fields every rho is +1 or -1,
        # up to rounding.
        out, _ = trained
        fields = ["Biology", "Chemistry"]
        distances = {(a, b): float(a != b) for a in fields for b in fields}
        distances["Biology", test_field] = float(x)
        distances["Chemistry", test_field] = -float(x)
        dist_path = tmp_path / "dist.tsv"
        write_distance_matrix(distances, fields, dist_path)
        grid_path = tmp_path / "grid.json"
        assert main(["cross-domain", "--input", str(out / "dataset.jsonl"), "--distances",
                     str(dist_path), "--fields", ",".join(fields),
                     "--output", str(grid_path)]) == 0
        rho = json.loads(grid_path.read_text())["rho"]
        assert set(rho) == set(fields)
        for value in rho.values():
            assert abs(value) == pytest.approx(1.0, rel=0, abs=4 * sys.float_info.epsilon)


class TestAuditCommands:
    def test_export_and_score_round_trip(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        build_fixture_corpus(corpus, n_papers=120, adversarial_rate=0.25)
        main_out, base_out = tmp_path / "main", tmp_path / "base"
        assert main(["build", "--input", str(corpus), "--output", str(main_out),
                     "--seed", "9", "--quota", "60"]) == 0
        assert main(["build", "--input", str(corpus), "--output", str(base_out),
                     "--seed", "9", "--quota", "60", "--baseline"]) == 0
        audit_dir = tmp_path / "audit"
        rc = main(["audit-export", "--input", str(main_out / "dataset.jsonl"),
                   "--baseline-input", str(base_out / "dataset.jsonl"),
                   "--n-per-class", "8", "--seed", "17",
                   "--output", str(audit_dir)])
        assert rc == 0
        sheet = audit_dir / "sheet.tsv"
        lines = sheet.read_text().splitlines()
        assert len(lines) == 1 + 4 * 8
        annotated = [lines[0]]
        for line in lines[1:]:
            cells = line.split("\t")
            cells[4], cells[5] = "1", "1"
            annotated.append("\t".join(cells))
        sheet.write_text("\n".join(annotated) + "\n")
        capsys.readouterr()
        rc = main(["audit-score", "--sheet", str(sheet),
                   "--key", str(audit_dir / "key.jsonl")])
        assert rc == 0
        text = capsys.readouterr().out
        assert "100.00" in text

    def test_insufficient_stratum_exits_1(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        build_fixture_corpus(corpus)
        main_out = tmp_path / "main"
        assert main(["build", "--input", str(corpus), "--output", str(main_out),
                     "--seed", "9", "--quota", "5"]) == 0
        baseline = shutil.copy(main_out / "dataset.jsonl", tmp_path / "baseline.jsonl")
        rc = main(["audit-export", "--input", str(main_out / "dataset.jsonl"),
                   "--baseline-input", str(baseline),
                   "--n-per-class", "500", "--seed", "1",
                   "--output", str(tmp_path / "audit")])
        assert rc == 1
        assert "stratum" in capsys.readouterr().err

    @pytest.mark.parametrize("baseline", ["d.jsonl", "./d.jsonl", "hard.jsonl", "soft.jsonl"],
                             ids=["same", "spelling", "hard-link", "symlink"])
    def test_export_refuses_one_file_as_both_inputs(self, baseline, tmp_path, capsys,
                                                    monkeypatch):
        def no_read(*args, **kwargs):
            raise AssertionError("a dataset was read")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(pipeline, "read_dataset", no_read)
        (tmp_path / "d.jsonl").write_text(_dataset_line())
        os.link("d.jsonl", "hard.jsonl")
        os.symlink("d.jsonl", "soft.jsonl")
        assert main(["audit-export", "--input", "d.jsonl", "--baseline-input", baseline,
                     "--seed", "1", "--output", "audit"]) == 2
        assert capsys.readouterr().err == (
            f"error: --input d.jsonl and --baseline-input {baseline} name the same file\n")
        assert not (tmp_path / "audit").exists()

    @pytest.mark.parametrize("record", [
        {"item_id": "a1", "method": ["ours"], "gold_label": "cite-worthy"},
        {"item_id": "a1", "method": 5, "gold_label": "cite-worthy"},
        {"item_id": 5, "method": "ours", "gold_label": "cite-worthy"},
    ], ids=["method-list", "method-number", "item_id-number"])
    def test_mistyped_key_record_names_file_and_line(self, record, tmp_path, capsys):
        sheet = tmp_path / "sheet.tsv"
        sheet.write_text("\t".join(audit.SHEET_COLUMNS) + "\n")
        key = tmp_path / "key.jsonl"
        good = {"item_id": "a0", "method": "baseline", "gold_label": "cite-worthy"}
        key.write_text("".join(json.dumps(r) + "\n" for r in (good, record, good)))
        assert main(["audit-score", "--sheet", str(sheet), "--key", str(key)]) == 1
        assert capsys.readouterr().err == f"error: {key}, line 2: bad key record\n"

    def test_failed_write_leaves_old_sheet_and_key_and_no_temp_file(self, tmp_path,
                                                                    monkeypatch, capsys):
        corpus = tmp_path / "corpus.jsonl"
        build_fixture_corpus(corpus, n_papers=40)
        main_out = tmp_path / "main"
        assert main(["build", "--input", str(corpus), "--output", str(main_out),
                     "--seed", "9", "--quota", "20"]) == 0
        audit_dir = tmp_path / "audit"
        baseline = shutil.copy(main_out / "dataset.jsonl", tmp_path / "baseline.jsonl")
        argv = ["audit-export", "--input", str(main_out / "dataset.jsonl"),
                "--baseline-input", str(baseline),
                "--n-per-class", "2", "--output", str(audit_dir), "--seed"]
        assert main(argv + ["1"]) == 0
        old = {p.name: p.read_bytes() for p in audit_dir.iterdir()}
        assert sorted(old) == ["key.jsonl", "sheet.tsv"]

        real = audit._clean_cell
        cleaned = []

        def fail_midway(text):
            cleaned.append(text)
            if len(cleaned) == 7:
                raise OSError("disk full")
            return real(text)

        monkeypatch.setattr(audit, "_clean_cell", fail_midway)
        assert main(argv + ["2"]) == 1
        assert capsys.readouterr().err == "error: disk full\n"
        assert {p.name: p.read_bytes() for p in audit_dir.iterdir()} == old


def _nan_in_dataset(monkeypatch):
    real = pipeline._sample_to_record
    monkeypatch.setattr(pipeline, "_sample_to_record",
                        lambda sample: {**real(sample), "paragraph_index": math.nan})


def _nan_in_model(monkeypatch):
    real = citecorpus.model.train_logreg

    def fit(*args, **kwargs):
        model = real(*args, **kwargs)
        model.bias = math.nan
        return model

    monkeypatch.setattr(citecorpus.model, "train_logreg", fit)


def _nan_in_grid(monkeypatch):
    real = citecorpus.metrics.domain_grid

    def grid(*args, **kwargs):
        result = real(*args, **kwargs)
        result.rho["Biology"] = math.nan
        return result

    monkeypatch.setattr(citecorpus.metrics, "domain_grid", grid)


def _build(source, out):
    return ["build", "--input", str(source.parent / "corpus.jsonl"), "--output", str(out),
            "--seed", "3", "--quota", "5"]


# Each writer: the file it writes into ``out``, the command that writes it
# from the ``trained`` fixture's build directory ``source``, and a patch that
# puts a NaN into one of the values it writes.
WRITERS = {
    "dataset": ("dataset.jsonl", _build, _nan_in_dataset),
    "manifest": ("manifest.json", _build,
                 lambda monkeypatch: monkeypatch.setattr(cli, "__version__", math.nan)),
    "model": ("model.json",
              lambda source, out: ["train", "--input", str(source / "dataset.jsonl"),
                                   "--output", str(out / "model.json"), "--seed", "1"],
              _nan_in_model),
    "grid": ("grid.json",
             lambda source, out: ["cross-domain", "--input", str(source / "dataset.jsonl"),
                                  "--distances", str(out.parent / "dist.tsv"),
                                  "--output", str(out / "grid.json")],
             _nan_in_grid),
    "audit-key": ("key.jsonl",
                  lambda source, out: ["audit-export", "--input", str(source / "dataset.jsonl"),
                                       "--baseline-input",
                                       str(shutil.copy(source / "dataset.jsonl",
                                                       out.parent / "baseline.jsonl")),
                                       "--n-per-class", "2", "--seed", "1",
                                       "--output", str(out)],
                  lambda monkeypatch: monkeypatch.setattr(audit, "METHOD_MAIN", math.nan)),
}


@pytest.mark.parametrize("fault", ["disk-full", "nan"])
@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_failed_write_keeps_the_old_file(writer, fault, trained, tmp_path, monkeypatch,
                                         capsys):
    name, command, poison = WRITERS[writer]
    fields = ["Biology", "Chemistry"]
    write_distance_matrix({(a, b): float(a != b) for a in fields for b in fields}, fields,
                          tmp_path / "dist.tsv")
    out = tmp_path / "out"
    out.mkdir()
    argv = command(trained[0], out)
    assert main(argv) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert name in before
    if argv[0] == "build":
        # A build removes its old manifest first: only a complete build has one.
        del before["manifest.json"]
    capsys.readouterr()
    if fault == "nan":
        poison(monkeypatch)
    else:
        monkeypatch.setattr(citecorpus, "open", disk_full_on(name), raising=False)
    assert main(argv) == 1
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    err = capsys.readouterr().err
    if fault == "nan":
        assert err.startswith(f"error: {out / name}: a number is not finite (")
    else:
        assert err == f"error: [Errno 28] No space left on device: '{out / name}'\n"


@pytest.mark.parametrize("command", ["build", "audit-export", "train", "eval",
                                     "cross-domain"])
def test_config_key_of_another_command_is_a_usage_error(command, tmp_path, capsys):
    config = tmp_path / "config.json"
    key = "distances" if command == "build" else "workers"
    config.write_text(json.dumps({key: "x"}))
    assert main([command, "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config file {config}: key {key!r} is not an option of "
                          f"{command} (")


# (command, option, value, message); every value is out of range.
OUT_OF_RANGE = [
    ("build", "quota", -1, "--quota must be at least 0, got -1"),
    ("audit-export", "n_per_class", -1, "--n-per-class must be at least 0, got -1"),
    ("train", "max_features", -1, "--max-features must be at least 1, got -1"),
    ("train", "max_features", 0, "--max-features must be at least 1, got 0"),
    ("train", "c_value", float("nan"), "--c-value must be finite and greater than 0, got nan"),
    ("train", "c_value", float("inf"), "--c-value must be finite and greater than 0, got inf"),
    ("train", "c_value", 0.0, "--c-value must be finite and greater than 0, got 0.0"),
    ("cross-domain", "c_value", -1.0,
     "--c-value must be finite and greater than 0, got -1.0"),
    ("train", "min_df", 0, "--min-df must be at least 1, got 0"),
    ("train", "seed", -5, "--seed must be at least 0, got -5"),
    ("cross-domain", "min_df", -3, "--min-df must be at least 1, got -3"),
    *[("build", "ratios", ratios,
       f"--ratios must be three finite, non-negative numbers that sum to 1, got {ratios}")
      for ratios in ["0.5,0.4,0.2", "nan,0.5,0.5", "0.6,-0.2,0.6"]],
]


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("command, option, value, message", OUT_OF_RANGE,
                         ids=[f"{c}-{o}-{v}" for c, o, v, _ in OUT_OF_RANGE])
def test_out_of_range_number_is_a_usage_error_before_any_input_is_read(
        command, option, value, message, via, tmp_path, capsys, monkeypatch):
    def no_read(*args, **kwargs):
        raise AssertionError("an input was read")

    for module, name in [(pipeline, "collect_samples"), (pipeline, "read_dataset"),
                         (citecorpus.metrics, "read_distance_matrix")]:
        monkeypatch.setattr(module, name, no_read)
    data = tmp_path / "data.jsonl"
    data.write_text("")
    out = tmp_path / "out"
    seed = [] if option == "seed" else ["--seed", "1"]
    argv = {
        "build": ["--input", str(data), "--output", str(out), *seed],
        "audit-export": ["--input", str(data), "--baseline-input", str(data),
                         "--output", str(out), *seed],
        "train": ["--input", str(data), "--output", str(out), *seed],
        "cross-domain": ["--input", str(data), "--distances", str(data)],
    }[command]
    if via == "flag":
        argv += ["--" + option.replace("_", "-"), str(value)]
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({option: value}))
        argv += ["--config", str(config)]
    assert main([command, *argv]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command, output, message", [
    ("train", "out", "model file is a directory"),
    ("train", "missing/m.json", "model file is in a directory that does not exist"),
    ("train", "data.jsonl/m.json", "model file is under {data}, which is not a directory"),
    ("cross-domain", "out", "grid file is a directory"),
    ("cross-domain", "data.jsonl/a/g.json",
     "grid file is under {data}, which is not a directory"),
], ids=["train-directory", "train-missing-directory", "train-under-a-file",
        "cross-domain-directory", "cross-domain-under-a-file"])
def test_unwritable_output_is_a_usage_error_before_the_dataset_is_read(
        command, output, message, tmp_path, capsys, monkeypatch):
    def no_read(*args, **kwargs):
        raise AssertionError("the dataset was read")

    monkeypatch.setattr(pipeline, "read_dataset", no_read)
    data = tmp_path / "data.jsonl"
    data.write_text("")
    (tmp_path / "out").mkdir()
    extra = ["--distances", str(data)] if command == "cross-domain" else []
    output = str(tmp_path / output)
    assert main([command, "--input", str(data), "--output", output, "--seed", "1", *extra]) == 2
    assert capsys.readouterr().err == f"error: {message.format(data=data)}: {output}\n"
    assert list((tmp_path / "out").iterdir()) == []
    assert data.read_text() == ""


@pytest.mark.parametrize("present", [False, True], ids=["absent", "present"])
@pytest.mark.parametrize("command, output, what", [
    ("train", "models/", "model file"),
    ("train", "models/.", "model file"),
    ("cross-domain", "models/", "grid file"),
    ("cross-domain", "models/..", "grid file"),
])
def test_an_output_that_names_a_directory_is_a_usage_error_before_the_dataset_is_read(
        command, output, what, present, tmp_path, capsys, monkeypatch):
    # A Path would drop the trailing separator and name a file "models".
    def no_read(*args, **kwargs):
        raise AssertionError("the dataset was read")

    monkeypatch.setattr(citecorpus.model, "read_table", no_read)
    monkeypatch.chdir(tmp_path)
    Path("data.jsonl").write_text("")
    if present:
        Path("models").mkdir()
    extra = ["--distances", "data.jsonl"] if command == "cross-domain" else []
    assert main([command, "--input", "data.jsonl", "--output", output, "--seed", "1",
                 *extra]) == 2
    cause = "is a directory" if present else "names a directory"
    assert capsys.readouterr().err == f"error: {what} {cause}: {output}\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == (
        ["data.jsonl", "models"] if present else ["data.jsonl"])
    assert not present or list(Path("models").iterdir()) == []
    assert Path("data.jsonl").read_text() == ""


# (files to make, arguments, the input the output would replace, stderr).
OUTPUT_IS_INPUT = {
    "train": (
        ["d.jsonl"], ["train", "--input", "d.jsonl", "--output", "./d.jsonl", "--seed", "1"],
        "d.jsonl", "--input d.jsonl and --output ./d.jsonl"),
    "train-link": (
        ["d.jsonl", "link.jsonl"],
        ["train", "--input", "d.jsonl", "--output", "link.jsonl", "--seed", "1"],
        "d.jsonl", "--input d.jsonl and --output link.jsonl"),
    "build-dataset": (
        ["out/dataset.jsonl"],
        ["build", "--input", "out/dataset.jsonl", "--output", "out", "--seed", "1"],
        "out/dataset.jsonl", "--input out/dataset.jsonl and output out/dataset.jsonl"),
    "build-rejections": (
        ["c.jsonl", "out/rejections.jsonl"],
        ["build", "--input", "c.jsonl", "--input", "out/rejections.jsonl", "--output", "out",
         "--seed", "1"],
        "out/rejections.jsonl",
        "--input out/rejections.jsonl and output out/rejections.jsonl"),
    "build-manifest": (
        ["out/manifest.json"],
        ["build", "--input", "out/manifest.json", "--output", "out", "--seed", "1"],
        "out/manifest.json", "--input out/manifest.json and output out/manifest.json"),
    "cross-domain-input": (
        ["d.jsonl", "dist.tsv"],
        ["cross-domain", "--input", "d.jsonl", "--distances", "dist.tsv", "--output", "d.jsonl"],
        "d.jsonl", "--input d.jsonl and --output d.jsonl"),
    "cross-domain-distances": (
        ["d.jsonl", "dist.tsv"],
        ["cross-domain", "--input", "d.jsonl", "--distances", "dist.tsv", "--output",
         "./dist.tsv"],
        "dist.tsv", "--distances dist.tsv and --output ./dist.tsv"),
    "audit-export-sheet": (
        ["d.jsonl", "audit/sheet.tsv"],
        ["audit-export", "--input", "d.jsonl", "--baseline-input", "audit/sheet.tsv",
         "--seed", "1", "--output", "audit"],
        "audit/sheet.tsv", "--baseline-input audit/sheet.tsv and output audit/sheet.tsv"),
    "audit-export-key": (
        ["audit/key.jsonl", "b.jsonl"],
        ["audit-export", "--input", "audit/key.jsonl", "--baseline-input", "b.jsonl",
         "--seed", "1", "--output", "audit"],
        "audit/key.jsonl", "--input audit/key.jsonl and output audit/key.jsonl"),
}


@pytest.mark.parametrize("files, argv, victim, names", OUTPUT_IS_INPUT.values(),
                         ids=OUTPUT_IS_INPUT)
def test_an_output_that_is_an_input_is_refused_before_any_work(files, argv, victim, names,
                                                                tmp_path, capsys,
                                                                monkeypatch):
    def no_read(*args, **kwargs):
        raise AssertionError("an input was read")

    for module, name in [(pipeline, "collect_samples"), (pipeline, "read_dataset"),
                         (citecorpus.model, "read_table"),
                         (citecorpus.metrics, "read_distance_matrix")]:
        monkeypatch.setattr(module, name, no_read)
    monkeypatch.chdir(tmp_path)
    for name in files:
        (tmp_path / name).parent.mkdir(exist_ok=True)
        if name == "link.jsonl":
            os.link("d.jsonl", name)
        else:
            (tmp_path / name).write_text(f"the bytes of {name}\n")
    before = {path: path.read_bytes() for path in tmp_path.rglob("*")
              if path.is_file()}
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {names} name the same file\n"
    assert (tmp_path / victim).read_bytes() == f"the bytes of {victim}\n".encode()
    assert {path: path.read_bytes() for path in tmp_path.rglob("*")
            if path.is_file()} == before


@pytest.mark.parametrize("argv, names", [
    (["eval", "--model", "d.jsonl", "--input", "./d.jsonl"],
     "--model d.jsonl and --input ./d.jsonl"),
    (["audit-score", "--sheet", "d.jsonl", "--key", "d.jsonl"],
     "--sheet d.jsonl and --key d.jsonl"),
], ids=["eval", "audit-score"])
def test_one_file_given_for_two_inputs_is_a_usage_error(argv, names, tmp_path, capsys,
                                                        monkeypatch):
    # As in every other command, two path options that name one file are
    # refused: no file is both a model and a dataset, or a sheet and its key.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d.jsonl").write_text("{}\n")
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {names} name the same file\n"


@pytest.mark.parametrize("below", ["", "sub", "sub/deeper"])
@pytest.mark.parametrize("command", ["build", "audit-export"])
def test_an_output_directory_that_is_a_file_is_a_usage_error_before_any_input_is_read(
        command, below, tmp_path, capsys, monkeypatch):
    def no_read(*args, **kwargs):
        raise AssertionError("an input was read")

    for name in ("collect_samples", "read_dataset"):
        monkeypatch.setattr(pipeline, name, no_read)
    data, baseline, out = tmp_path / "d.jsonl", tmp_path / "b.jsonl", tmp_path / "out"
    for path in (data, baseline, out):
        path.write_text("kept\n")
    argv = {"build": ["build", "--input", str(data)],
            "audit-export": ["audit-export", "--input", str(data), "--baseline-input",
                             str(baseline)]}[command]
    output = str(out / below) if below else str(out)
    assert main([*argv, "--output", output, "--seed", "1"]) == 2
    message = f"under {out}, which is not a directory" if below else "not a directory"
    assert capsys.readouterr().err == f"error: output is {message}: {output}\n"
    assert sorted(tmp_path.iterdir()) == [baseline, data, out]
    assert out.read_text() == "kept\n"


def _dataset_line(split="train", samples=None):
    if samples is None:
        samples = [{"text": "Cells divide.", "label": LABEL_NON_CITE_WORTHY,
                    "removed_span_count": 0}]
    return json.dumps({"paper_id": "p1", "mag_field_of_study": "Biology",
                       "section_title": "introduction", "split": split,
                       "paragraph_index": 0, "samples": samples}) + "\n"


_SHEET_HEADER = "\t".join(audit.SHEET_COLUMNS) + "\n"
# (files by name, arguments, exit code, stderr line); each run refuses its input.
REFUSALS = {
    "stats-unknown-split": (
        {"d.jsonl": _dataset_line(split="holdout")}, ["stats", "--input", "d.jsonl"], 1,
        "error: d.jsonl, line 1: unknown split 'holdout'"),
    "stats-no-sentences": (
        {"d.jsonl": _dataset_line(samples=[])}, ["stats", "--input", "d.jsonl"], 1,
        "error: d.jsonl, line 1: record has no sentences"),
    "stats-sentence-not-object": (
        {"d.jsonl": _dataset_line(samples=["x"])}, ["stats", "--input", "d.jsonl"], 1,
        "error: d.jsonl, line 1: sentence 0 is not an object"),
    "stats-blank-line-skipped": (
        {"d.jsonl": _dataset_line() + "\n" + _dataset_line(split="holdout")},
        ["stats", "--input", "d.jsonl"], 1,
        "error: d.jsonl, line 3: unknown split 'holdout'"),
    "eval-unknown-model-kind": (
        {"m.json": json.dumps({"format_version": 1, "kind": "bogus"}),
         "d.jsonl": _dataset_line()},
        ["eval", "--model", "m.json", "--input", "d.jsonl"], 1,
        "error: m.json: unknown model kind 'bogus'"),
    "config-not-json": (
        {"bad.json": '{"quota": 3'}, ["build", "--config", "bad.json"], 2,
        "error: config file bad.json is not valid JSON: Expecting ',' delimiter"),
    "stats-deeply-nested": (
        {"d.jsonl": _dataset_line() + DEEP_JSON + "\n"}, ["stats", "--input", "d.jsonl"], 1,
        "error: d.jsonl, line 2: invalid JSON: too deeply nested"),
    "eval-model-deeply-nested": (
        {"m.json": DEEP_JSON, "d.jsonl": _dataset_line()},
        ["eval", "--model", "m.json", "--input", "d.jsonl"], 1,
        "error: m.json: too deeply nested: line 1 column 1 (char 0)"),
    "config-deeply-nested": (
        {"deep.json": DEEP_JSON}, ["build", "--config", "deep.json"], 2,
        "error: config file deep.json is not valid JSON: too deeply nested"),
    "config-not-object": (
        {"arr.json": "[1, 2]"}, ["build", "--config", "arr.json"], 2,
        "error: config file arr.json must hold an object"),
    "cross-domain-empty-distances": (
        {"d.jsonl": _dataset_line(), "empty.tsv": ""},
        ["cross-domain", "--input", "d.jsonl", "--distances", "empty.tsv"], 1,
        "error: empty.tsv: empty distance matrix"),
    "audit-score-short-row": (
        {"sheet.tsv": _SHEET_HEADER + "\n" + "a\tb\tc\n",
         "key.jsonl": "\n" + json.dumps({"item_id": "a", "method": audit.METHOD_MAIN}) + "\n"},
        ["audit-score", "--sheet", "sheet.tsv", "--key", "key.jsonl"], 1,
        "error: sheet.tsv: line 3: expected 6 columns"),
    "audit-score-key-deeply-nested": (
        {"sheet.tsv": _SHEET_HEADER,
         "key.jsonl": json.dumps({"item_id": "a", "method": audit.METHOD_MAIN}) + "\n"
                      + DEEP_JSON + "\n"},
        ["audit-score", "--sheet", "sheet.tsv", "--key", "key.jsonl"], 1,
        "error: key.jsonl, line 2: bad key record"),
    "train-pu-one-positive": (
        {"d.jsonl": _dataset_line(samples=[
            {"text": "Cells divide.", "label": LABEL_NON_CITE_WORTHY, "removed_span_count": 0},
            {"text": "Cells grow.", "label": LABEL_CITE_WORTHY, "removed_span_count": 1}])},
        ["train", "--pu", "--input", "d.jsonl", "--output", "m.json", "--seed", "1"], 1,
        "error: no labeled positives left outside the hold-out slice"),
}


@pytest.mark.parametrize("files, argv, code, message", REFUSALS.values(), ids=REFUSALS)
def test_refusal_names_its_cause(files, argv, code, message, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert main(argv) == code
    assert capsys.readouterr().err == message + "\n"


CONFIG_COMMANDS = ["build", "audit-export", "train", "eval", "cross-domain"]
# The options each fuzz run gives by flag, as names in the run's working
# directory; "bad" holds one malformed line. The fuzzed key is left to the
# config file.
FUZZ_FLAGS = {
    "build": {"input": "bad", "output": "out", "seed": "1"},
    "audit-export": {"input": "bad", "baseline_input": "bad", "output": "out", "seed": "1"},
    "train": {"input": "bad", "output": "model.json", "seed": "1"},
    "eval": {"model": "bad", "input": "bad"},
    "cross-domain": {"input": "bad", "distances": "bad"},
}
FUZZ_KEYS = [(command, key) for command in CONFIG_COMMANDS
             for key in sorted(cli.build_parser().parse_args([command]).options)]
EDGE_VALUES = [True, False, 2.5, float("inf"), float("-inf"), float("nan"), -1, 10**30, [1],
               {"a": 1}, "x", ""]
# Drawn strings use no "/" or ".", so a path drawn for an output stays in the
# run's directory; the letters spell "nan", "inf", "train", "test" and "all".
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text("0123456789-,aefilnrstx", max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=6)


def _no_pool(*args, **kwargs):
    raise RuntimeError("no worker pool in this test")


def run_with_config(command, key, value, workdir):
    """Exit code of ``command`` with ``{key: value}`` as its config file, run
    in ``workdir`` without a worker pool."""
    (workdir / "bad").write_text("not json\n")
    (workdir / "config.json").write_text(json.dumps({key: value}))
    argv = [command, "--config", "config.json"]
    for name, flag_value in FUZZ_FLAGS[command].items():
        if name != key:
            argv += ["--" + name.replace("_", "-"), flag_value]
    with contextlib.chdir(workdir), patch.object(pipeline, "worker_pool", _no_pool):
        return main(argv)


class TestConfigFuzz:
    """No config value ends a command with a traceback: every run exits 0, 1
    or 2."""

    @pytest.mark.parametrize("command, key, value", [
        (command, key, value) for command, key in FUZZ_KEYS for value in EDGE_VALUES],
        ids=[f"{command}-{key}-{value!r}" for command, key in FUZZ_KEYS
             for value in EDGE_VALUES])
    def test_edge_values(self, command, key, value, tmp_path):
        assert run_with_config(command, key, value, tmp_path) in (0, 1, 2)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(FUZZ_KEYS), _JSON_VALUES)
    def test_drawn_values(self, command_key, value):
        with tempfile.TemporaryDirectory() as tmp:
            assert run_with_config(*command_key, value, Path(tmp)) in (0, 1, 2)


class TestDumpRules:
    def test_sections_and_patterns_verbatim(self, capsys):
        assert main(["dump-rules"]) == 0
        text = capsys.readouterr().out
        blocks = text.split("\n\n")
        titles_block = blocks[0].splitlines()
        assert titles_block[0] == "section-titles (36):"
        assert len(titles_block) == 37
        assert titles_block[1] == "introduction"
        assert titles_block[-1] == "implementation details"
        assert blocks[1].splitlines()[1] == r"\[([0-9]+\s*[,-;]*\s*)*[0-9]+\s*\]"
        assert blocks[2].splitlines()[1] == r"\(?[12][0-9]{3}[a-z]?\s*\)"
        assert blocks[3].splitlines()[1] == (
            r"\s+\(?(\(\s*\)|like|reference|including|include|with|for instance"
            r"|for example|see also|at|following|of|from|to|in|by|see|as"
            r"|e\.?g\.?(,)?|viz(\.)?(,)?)\s*(,)*(-)*[\)\]]?\s*[.?!]\s*$")

    def test_manifest_checksums_every_block(self, tmp_path, capsys):
        assert main(["dump-rules"]) == 0
        blocks = capsys.readouterr().out.split("\n\n")
        corpus = tmp_path / "corpus.jsonl"
        build_fixture_corpus(corpus)
        out = tmp_path / "out"
        assert main(["build", "--input", str(corpus), "--output", str(out), "--seed", "7"]) == 0
        checksums = json.loads((out / "manifest.json").read_text())["rule_checksums"]
        assert sorted(checksums.values()) == sorted(
            hashlib.sha256("\n".join(block.splitlines()[1:]).encode()).hexdigest()
            for block in blocks)

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2


@contextlib.contextmanager
def collector_set(enabled):
    """Run the block with the cyclic garbage collector on or off, then put
    back the state it had."""
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


def _recording(function, states):
    """``function``, noting the collector state at each call in ``states``."""
    def record(*args, **kwargs):
        states.append(gc.isenabled())
        return function(*args, **kwargs)
    return record


def _escaping_command(args):
    raise KeyError("an exception main does not catch")


class TestCollectorPolicy:
    """Every command runs with the cyclic garbage collector off, in the
    process and in its pool workers, and ``main`` then puts back the state
    it found, whatever the outcome."""

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    @pytest.mark.parametrize("argv, code", [
        (["dump-rules"], 0),
        (["stats", "--input", "bad.jsonl"], 1),
        (["stats", "--input", "missing.jsonl"], 2),
    ], ids=["exit-0", "exit-1", "exit-2"])
    def test_main_restores_the_collector(self, argv, code, enabled, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("bad.jsonl").write_text("not json\n")
        with collector_set(enabled):
            assert main(argv) == code
            assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    def test_main_restores_the_collector_when_an_exception_escapes(self, enabled,
                                                                    monkeypatch):
        states = []
        monkeypatch.setattr(cli, "cmd_dump_rules", _recording(_escaping_command, states))
        with collector_set(enabled):
            with pytest.raises(KeyError):
                main(["dump-rules"])
            assert gc.isenabled() is enabled
        assert states == [False]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_build_runs_with_the_collector_off(self, workers, tmp_path, monkeypatch):
        corpus = tmp_path / "corpus.jsonl"
        build_fixture_corpus(corpus)
        states = []
        for name in ("collect_samples", "balanced_sample", "write_dataset"):
            monkeypatch.setattr(pipeline, name, _recording(getattr(pipeline, name), states))
        with collector_set(True):
            assert main(["build", "--input", str(corpus), "--output", str(tmp_path / "out"),
                         "--seed", "7", "--workers", str(workers)]) == 0
        assert states == [False] * 3

    def test_train_runs_with_the_collector_off(self, trained, tmp_path, monkeypatch):
        out, _ = trained
        states = []
        for name in ("read_table", "train_logreg", "save_model"):
            monkeypatch.setattr(citecorpus.model, name,
                                _recording(getattr(citecorpus.model, name), states))
        with collector_set(True):
            assert main(["train", "--input", str(out / "dataset.jsonl"),
                         "--output", str(tmp_path / "m.json"), "--seed", "4"]) == 0
        assert states == [False] * 3

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    def test_pool_workers_run_with_the_collector_off(self, enabled):
        with collector_set(enabled), pipeline.worker_pool(1) as pool:
            assert pool.submit(gc.isenabled).result() is False


# Runs each named command in order, with the collector off, and prints what
# gc.collect() finds right after it: the cyclic garbage the command left. The
# dataset's table cache (the second argument) is removed before the cold eval.
_CYCLIC_GARBAGE = """\
import gc, json, os, sys
from citecorpus.cli import main
gc.disable()
found = {}
for name, argv in json.loads(sys.argv[1]).items():
    if name == "eval-cold":
        os.remove(sys.argv[2])
    gc.collect()
    if main(argv) != 0:
        sys.exit(f"{name} failed")
    found[name] = gc.collect()
print(json.dumps(found))
"""


def _cyclic_garbage(workdir, n_papers):
    """The cyclic garbage that each command leaves on a corpus of ``n_papers``,
    each size run in a fresh process so that imports cost both the same."""
    workdir.mkdir()
    corpus, dataset = workdir / "corpus.jsonl", workdir / "w1" / "dataset.jsonl"
    fields = ["Biology", "Chemistry"]
    make_corpus_file(corpus, n_papers=n_papers, seed=12, fields=fields,
                     paragraphs_per_paper=(2, 4))
    distances = workdir / "dist.tsv"
    write_distance_matrix({(a, b): float(a != b) for a in fields for b in fields}, fields,
                          distances)
    build = ["build", "--input", str(corpus), "--seed", "3", "--output"]
    train = ["train", "--input", str(dataset), "--output", str(workdir / "m.json"),
             "--seed", "1"]
    evaluate = ["eval", "--model", str(workdir / "m.json"), "--input", str(dataset)]
    commands = {
        "build-w1": [*build, str(workdir / "w1")],
        "build-w2": [*build, str(workdir / "w2"), "--workers", "2"],
        "build-baseline": [*build, str(workdir / "base"), "--baseline"],
        "audit-export": ["audit-export", "--input", str(dataset), "--baseline-input",
                         str(workdir / "base" / "dataset.jsonl"), "--seed", "1",
                         "--n-per-class", str(n_papers // 2), "--output", str(workdir / "audit")],
        "stats": ["stats", "--input", str(dataset)],
        "train": train,
        "train-pu": [*train, "--pu"],
        "eval-cold": evaluate,
        "eval-warm": evaluate,
        "cross-domain": ["cross-domain", "--input", str(dataset), "--distances",
                         str(distances)],
    }
    result = subprocess.run(
        [sys.executable, "-c", _CYCLIC_GARBAGE, json.dumps(commands),
         str(_table_cache(dataset))],
        capture_output=True, text=True, env=_subprocess_env(), timeout=600)
    assert result.returncode == 0, result.stderr[-2000:]
    return json.loads(result.stdout.splitlines()[-1])


def test_no_command_makes_cyclic_garbage_that_grows_with_its_input(tmp_path):
    # The premise of running every command without the cyclic collector:
    # reference counting frees all but a fixed amount of a command's garbage.
    small = _cyclic_garbage(tmp_path / "small", 100)
    large = _cyclic_garbage(tmp_path / "large", 400)
    assert list(large) == list(small) and len(small) == 10
    assert {name: (small[name], count) for name, count in large.items()
            if count > small[name] + 100} == {}


def _in_process(argv, capsys):
    """The exit code, stdout and stderr of ``main(argv)`` in this process,
    with its warnings logged to stderr as in a fresh process."""
    root = logging.getLogger()
    handlers, level = root.handlers[:], root.level
    root.handlers.clear()
    try:
        code = main(argv)
    finally:
        root.handlers[:] = handlers
        root.setLevel(level)
    return (code, *capsys.readouterr())


class TestProcessEntry:
    """``python -m citecorpus`` ends through ``cli.run``, which flushes the
    standard streams and skips the interpreter's teardown; a process must
    still give what ``main`` gives in-process."""

    def test_a_process_prints_what_main_prints(self, trained, tmp_path, capsys):
        out, model_path = trained
        dataset = str(out / "dataset.jsonl")
        corpus = tmp_path / "corpus.jsonl"
        build_fixture_corpus(corpus)
        with open(corpus, "a", encoding="utf-8") as fh:
            fh.write("not json\n")
        bad_model = tmp_path / "bad.json"
        bad_model.write_text("{}\n")
        codes = []
        for argv in (["dump-rules"],
                     ["stats", "--input", dataset],
                     ["eval", "--model", str(model_path), "--input", dataset],
                     ["build", "--input", str(corpus), "--seed", "7", "--output",
                      str(tmp_path / "out")],
                     ["eval", "--model", str(bad_model), "--input", dataset],
                     ["stats", "--input", str(tmp_path)]):
            expected = _in_process(argv, capsys)
            # Block-buffered streams, so that output not flushed at exit is lost.
            result = subprocess.run([sys.executable, "-m", "citecorpus", *argv],
                                    capture_output=True, text=True, timeout=300,
                                    env=_subprocess_env(PYTHONUNBUFFERED=None))
            assert (result.returncode, result.stdout, result.stderr) == expected, argv
            assert len(result.stdout.encode()) < 8192 and (result.stdout or result.returncode)
            codes.append(result.returncode)
        assert codes == [0, 0, 0, 0, 1, 2]

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    def test_a_closed_pipe_ends_the_process_as_the_interpreter_exit_does(self, buffered):
        # Buffered, the print succeeds and the flush at exit fails; unbuffered,
        # the print fails and main reports it.
        def run(*command):
            read, write = os.pipe()
            os.close(read)
            try:
                result = subprocess.run(
                    [sys.executable, *command, "dump-rules"], stdout=write,
                    stderr=subprocess.PIPE, text=True, timeout=120,
                    env=_subprocess_env(PYTHONUNBUFFERED=None if buffered else "1"))
            finally:
                os.close(write)
            return result.returncode, result.stderr

        reference = run("-c", "import sys\nfrom citecorpus.cli import main\n"
                              "sys.exit(main(sys.argv[1:]))")
        assert run("-m", "citecorpus") == reference
        assert (reference[0], reference[1].splitlines()[-1]) == (
            (120, "BrokenPipeError: [Errno 32] Broken pipe") if buffered
            else (1, "error: [Errno 32] Broken pipe"))

    @pytest.mark.parametrize("fault", [False, True], ids=["success", "span-error"])
    def test_a_pooled_build_leaves_no_process_behind(self, fault, tmp_path):
        # Two batches of lines, so that both workers start.
        corpus = tmp_path / "corpus.jsonl"
        records = build_fixture_corpus(corpus, n_papers=2 * pipeline.BATCH_LINES + 10)
        if fault:
            records[-1]["body_text"][0]["cite_spans"].append(
                {"start": 0, "end": 10**6, "ref_id": "x"})
            write_corpus(records, corpus)
        proc = subprocess.Popen(
            [sys.executable, "-m", "citecorpus", "build", "--input", str(corpus), "--output",
             str(tmp_path / "out"), "--seed", "7", "--workers", "2"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=_subprocess_env(),
            start_new_session=True)
        _, stderr = proc.communicate(timeout=300)
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            pass
        else:
            os.killpg(proc.pid, signal.SIGKILL)
            pytest.fail("the build left a process in its session")
        assert proc.returncode == (1 if fault else 0), stderr[-2000:]
        assert ("cite span (0, 1000000) out of bounds" in stderr) is fault
