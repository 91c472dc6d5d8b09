"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance is pinned here; nothing is deferred to calibration.
"""

import math
import random
import time
import unicodedata

import numpy as np
import pytest

from citecorpus import textproc
from citecorpus.cli import main
from citecorpus.metrics import cluster_purity, pearson, population_std, precision_recall_f1
from citecorpus.model import (
    CSR,
    PUModel,
    compute_class_weights,
    count_tokens,
    featurize,
    fit_vocabulary,
    load_model,
    loss_and_gradient,
    predict,
    save_model,
    train_logreg,
    train_pu,
)
from citecorpus.pipeline import (
    LABEL_CITE_WORTHY,
    balanced_sample,
    collect_samples,
    read_dataset,
    split_dataset,
    write_dataset,
)
from corpusgen import FIELDS, make_corpus_file
from refregex import RefRegex
from synthdata import gaussian_blobs, imbalanced_blobs, pu_blobs, recall_of, stub_vocabulary

# Golden transcriptions of the embedded rules (independent copies).
GOLDEN_TITLES = [
    "introduction", "abstract", "method", "methods", "results", "discussion",
    "discussions", "conclusion", "conclusions", "results and discussion",
    "related work", "experimental results", "literature review", "experiments",
    "background", "methodology", "conclusions and future work", "related works",
    "limitations", "procedure", "material and methods", "discussion and conclusion",
    "implementation", "evaluation", "performance evaluation",
    "experiments and results", "overview", "experimental design",
    "discussion and conclusions", "results and discussions", "motivation",
    "proposed method", "analysis", "future work", "results and analysis",
    "implementation details",
]
GOLDEN_NUMERIC = r"\[([0-9]+\s*[,-;]*\s*)*[0-9]+\s*\]"
GOLDEN_AUTHOR_YEAR = r"\(?[12][0-9]{3}[a-z]?\s*\)"
GOLDEN_HANGING = (
    r"\s+\(?(\(\s*\)|like|reference|including|include|with|for instance"
    r"|for example|see also|at|following|of|from|to|in|by|see|as"
    r"|e\.?g\.?(,)?|viz(\.)?(,)?)\s*(,)*(-)*[\)\]]?\s*[.?!]\s*$"
)

CITATION_FINAL = [
    "The effect was strongest in the second cohort [2].",
    "Sea levels rose steadily over the decade [13].",
    "Both surveys reached the same conclusion [3, 5-7].",
    "The solver converged in four iterations [1-3].",
    "Resistance dropped with temperature [12;14].",
    "Yields improved after annealing [4, 6].",
    "The pattern repeats annually (Meier et al., 2004).",
    "Growth slowed in later seasons (Alder, 1999).",
    "A second test confirmed this (Brandt, 2004a).",
    "Hybrid vigour was documented early (Calvino et al., 1987).",
    "The margin held under replication (Dorsey, 2011).",
    "Estimates agree across methods (Eriksen et al., 2016).",
]
MID_SENTENCE = [
    "In [1], we extend the analysis to all cohorts.",
    "Following [2], the filter uses two stages.",
    "The result of [7] does not transfer here.",
    "As (Farrow, 2001) argued, margins matter most.",
    "The (Grieve, 2012) sample is larger than ours.",
    "Both [3] and [4] assume stationary inputs.",
    "Per (Holt et al., 1995), we discard outliers.",
    "Study [11] predates the newer instruments.",
    "The bound from [8] is tight for small n.",
    "Unlike (Alder, 2017), we use raw counts.",
    "Dataset [21] lacks the relevant labels.",
    "Method (Brandt, 1988) needs dense input.",
]
MISSED_CITATION = [
    "Three groups replicated the finding [9].",
    "The claim originates from older work (Calvino, 1979).",
    "Sensitivity analyses concur [2, 3].",
    "Later audits disagreed (Dorsey et al., 2005).",
    "The instrument was recalibrated [17].",
    "A register study found the inverse (Eriksen, 2014b).",
    "Costs fell by half within a year [5-8].",
    "Original protocols differ slightly (Farrow et al., 1992).",
    "The survey was repeated twice [30].",
    "Independent labs agree (Grieve, 2020).",
    "The catalogue lists nine variants [6;9].",
    "Field notes mention the drift (Holt, 1983).",
]
HANGING_MARKER = [
    "This was shown by the work of .",
    "For details see .",
    "The protocol follows e.g.,.",
    "Results are tabulated in ( ).",
    "The derivation appears in .",
    "Replication data are available at .",
    "These values were reported by .",
    "The effect is documented following .",
    "Counts were aggregated as .",
    "The approach is described viz. .",
    "Further context is given with .",
    "Samples were drawn from .",
]
# (text, expected well-formed verdict), enumerated by hand against the rule.
WELL_FORMEDNESS = [
    ("The replication held in every site we tested.", True),
    ("Margins widened across all twelve trials!", True),
    ("Was the second cohort measurably different?", True),
    ("Annual rainfall varied noticeably between basins.", True),
    ("Exactly twenty-one chars.", True),
    ("Surface conductivity dominated the variance.", True),
    ("short but Capital.", False),
    ("lowercase start is long enough to pass length.", False),
    ("No terminal mark on this long sentence", False),
    ("Tiny.", False),
    ("1990 began with a digit, not a letter.", False),
    ("Ends with a colon after enough characters:", False),
]

SIXTY_CASES = (CITATION_FINAL + MID_SENTENCE + MISSED_CITATION + HANGING_MARKER
               + [text for text, _ in WELL_FORMEDNESS])


def report(number: int, name: str) -> None:
    print(f"\n[criterion {number}] {name}: PASS")


class TestCriterion1RegexFidelity:
    def test_dump_rules_byte_identical_and_reference_engine_agreement(self, capsys):
        assert main(["dump-rules"]) == 0
        blocks = capsys.readouterr().out.split("\n\n")
        titles = blocks[0].splitlines()
        assert titles[0] == "section-titles (36):"
        assert titles[1:] == GOLDEN_TITLES
        assert blocks[1].splitlines() == ["citation-format pattern [numeric]:",
                                          GOLDEN_NUMERIC]
        assert blocks[2].splitlines() == ["citation-format pattern [author-year]:",
                                          GOLDEN_AUTHOR_YEAR]
        assert blocks[3].splitlines() == ["hanging-citation pattern:", GOLDEN_HANGING]

        assert len(SIXTY_CASES) == 60
        ref_numeric = RefRegex(GOLDEN_NUMERIC)
        ref_author_year = RefRegex(GOLDEN_AUTHOR_YEAR)
        ref_hanging = RefRegex(GOLDEN_HANGING)
        started = time.perf_counter()
        disagreements = []
        for text in SIXTY_CASES:
            if textproc.find_numeric_citations(text) != ref_numeric.find_all(text):
                disagreements.append(("numeric", text))
            if textproc.find_author_year_citations(text) != ref_author_year.find_all(text):
                disagreements.append(("author-year", text))
            if textproc.has_hanging_citation_marker(text) != ref_hanging.search(text):
                disagreements.append(("hanging", text))
        elapsed = time.perf_counter() - started
        assert disagreements == []
        assert elapsed < 1.0, f"fixture suite took {elapsed:.3f}s"

        for text in HANGING_MARKER:
            assert textproc.has_hanging_citation_marker(text) is True
        for text in CITATION_FINAL + MID_SENTENCE + MISSED_CITATION:
            assert (textproc.find_numeric_citations(text)
                    or textproc.find_author_year_citations(text))
        for text, expected in WELL_FORMEDNESS:
            assert textproc.is_well_formed(text) is expected, text
        report(1, "regex fidelity")


@pytest.fixture(scope="module")
def adversarial_corpus(tmp_path_factory):
    """A >=1000-paragraph corpus seeded with known citation pathologies."""
    tmp = tmp_path_factory.mktemp("acceptance_corpus")
    path = tmp / "corpus.jsonl"
    records = make_corpus_file(path, n_papers=500, seed=20240, adversarial_rate=0.25,
                               paragraphs_per_paper=(2, 3))
    n_paragraphs = sum(len(r["body_text"]) for r in records)
    assert n_paragraphs >= 1000
    return tmp, path, records


class TestCriterion2ResidueFree:
    def test_zero_citation_residue_in_built_dataset(self, adversarial_corpus, capsys):
        tmp, path, records = adversarial_corpus
        started = time.perf_counter()
        out = tmp / "residue_build"
        assert main(["build", "--input", str(path), "--output", str(out),
                     "--seed", "2024", "--quota", "1000"]) == 0
        samples = read_dataset(out / "dataset.jsonl")
        elapsed = time.perf_counter() - started
        capsys.readouterr()

        assert samples, "build produced an empty dataset"
        ref_numeric = RefRegex(GOLDEN_NUMERIC)
        ref_author_year = RefRegex(GOLDEN_AUTHOR_YEAR)
        ref_hanging = RefRegex(GOLDEN_HANGING)
        checked = 0
        for sample in samples:
            for sentence in sample.sentences:
                text = sentence.text
                assert ref_numeric.find_all(text) == [], text
                assert ref_author_year.find_all(text) == [], text
                assert ref_hanging.search(text) is False, text
                assert unicodedata.category(text[0]) == "Lu", text
                assert text[-1] in ".!?", text
                assert len(text) > 20, text
                checked += 1
        assert checked >= 500
        assert elapsed < 10.0, f"residue build took {elapsed:.2f}s"
        report(2, f"residue-free guarantee over {checked} sentences")


class TestCriterion3DifferentialAudit:
    def test_baseline_retains_markers_main_does_not(self, adversarial_corpus):
        _, path, _ = adversarial_corpus
        main_samples = collect_samples([path], baseline=False).samples
        base_samples = collect_samples([path], baseline=True).samples

        ref_hanging = RefRegex(GOLDEN_HANGING)
        ref_numeric = RefRegex(GOLDEN_NUMERIC)
        ref_author_year = RefRegex(GOLDEN_AUTHOR_YEAR)

        def mechanical_scores(samples):
            total = markers_clean = extraction_ok = 0
            for sample in samples:
                for sentence in sample.sentences:
                    text = sentence.text
                    total += 1
                    if not (ref_hanging.search(text) or ref_numeric.find_all(text)
                            or ref_author_year.find_all(text)):
                        markers_clean += 1
                    if (text and unicodedata.category(text[0]) == "Lu"
                            and text[-1] in ".!?" and len(text) > 20):
                        extraction_ok += 1
            return total, 100.0 * extraction_ok / total, 100.0 * markers_clean / total

        n_main, main_extract, main_markers = mechanical_scores(main_samples)
        n_base, base_extract, base_markers = mechanical_scores(base_samples)
        assert n_main and n_base
        assert main_markers == 100.0
        assert main_extract == 100.0
        assert base_markers < 100.0, "baseline should retain at least one marker"
        assert main_extract > base_extract
        assert main_markers > base_markers
        report(3, f"differential audit (ours {main_extract:.2f}/{main_markers:.2f}"
                  f" vs baseline {base_extract:.2f}/{base_markers:.2f})")


class TestCriterion4Determinism:
    def test_worker_counts_1_and_8_byte_identical(self, adversarial_corpus, capsys):
        tmp, path, _ = adversarial_corpus
        outs = []
        for name, workers in (("w1", "1"), ("w8", "8")):
            out = tmp / name
            assert main(["build", "--input", str(path), "--output", str(out),
                         "--seed", "99", "--quota", "40", "--workers", workers]) == 0
            outs.append(out)
        capsys.readouterr()
        for filename in ("dataset.jsonl", "manifest.json", "rejections.jsonl"):
            first = (outs[0] / filename).read_bytes()
            second = (outs[1] / filename).read_bytes()
            assert first == second, f"{filename} differs between worker counts"
        report(4, "determinism across reruns and worker counts")


class TestCriterion5SplitAndBalance:
    def test_exact_balance_and_split_shares(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        make_corpus_file(path, n_papers=600, seed=555, adversarial_rate=0.0,
                         paragraphs_per_paper=(2, 4))
        samples = collect_samples([path]).samples
        quota = 50
        per_field = {f: sum(1 for s in samples if s.mag_field == f) for f in FIELDS}
        assert min(per_field.values()) >= quota, "fixture must have ample supply"

        selected = balanced_sample(samples, quota, seed=31)
        counts = {f: sum(1 for s in selected if s.mag_field == f) for f in FIELDS}
        assert set(counts.values()) == {quota}, counts

        ratios = (0.8, 0.1, 0.1)
        split_dataset(selected, ratios, seed=31)
        total = sum(s.sentence_count() for s in selected)
        shares = []
        for split, ratio in zip(("train", "dev", "test"), ratios):
            share = sum(s.sentence_count() for s in selected if s.split == split) / total
            shares.append(share)
            assert abs(share - ratio) <= 0.02, (split, share)
        report(5, "balance exact, split shares "
                  + "/".join(f"{s:.3f}" for s in shares))


class TestCriterion6MetricExactness:
    def test_metrics_against_oracles(self):
        rng = random.Random(606)
        for _ in range(1000):
            n = rng.randint(1, 40)
            preds = [rng.randint(0, 1) for _ in range(n)]
            golds = [rng.randint(0, 1) for _ in range(n)]
            got = precision_recall_f1(preds, golds, 1)
            tp = sum(p and g for p, g in zip(preds, golds))
            fp = sum(p and not g for p, g in zip(preds, golds))
            fn = sum(g and not p for p, g in zip(preds, golds))
            p = tp / (tp + fp) if tp + fp else 0.0
            r = tp / (tp + fn) if tp + fn else 0.0
            f1 = 2 * p * r / (p + r) if p + r else 0.0
            assert (got.precision, got.recall, got.f1) == (p, r, f1)

        assert cluster_purity([0, 0, 1, 1], ["a", "a", "b", "b"]) == pytest.approx(
            100.0, abs=1e-6)
        assert cluster_purity([0, 0, 0, 0], ["a", "a", "b", "b"]) == pytest.approx(
            50.0, abs=1e-6)
        assert cluster_purity([1, 1, 1, 2, 2, 2],
                              ["a", "a", "b", "b", "b", "a"]) == pytest.approx(
            200.0 / 3.0, abs=1e-6)

        assert pearson([1, 2, 3], [3, 5, 7]) == pytest.approx(1.0, abs=1e-6)
        assert pearson([1.0, 2.0, 3.0], [-1.0, -2.0, -3.0]) == pytest.approx(-1.0, abs=1e-6)
        assert pearson([1, 2, 3], [2, 1, 4]) == pytest.approx(6.0 / math.sqrt(84.0),
                                                              abs=1e-6)
        assert pearson([1, 2, 3], [2, 1, 4]) == pytest.approx(0.655, abs=1e-3)

        column = [67.58, 66.62, 65.05, 65.49, 66.59]
        assert population_std(column) == pytest.approx(0.90, abs=0.01)
        report(6, "metric exactness")


class TestCriterion7ModelCorrectness:
    def test_gradients_separable_f1_and_weighted_recall(self):
        started = time.perf_counter()

        rng = np.random.default_rng(707)
        for _ in range(20):
            n, d = rng.integers(4, 12), rng.integers(2, 8)
            X = CSR.from_dense(rng.normal(size=(int(n), int(d))))
            y = rng.integers(0, 2, size=int(n)).astype(float)
            weight = rng.uniform(0.2, 2.5, size=int(n))
            w = rng.normal(size=int(d))
            b = float(rng.normal())
            C = float(rng.uniform(0.05, 5.0))
            _, grad_w, grad_b = loss_and_gradient(w, b, X, y, weight, C)
            h = 1e-6
            for j in range(int(d)):
                e = np.zeros(int(d))
                e[j] = h
                up, _, _ = loss_and_gradient(w + e, b, X, y, weight, C)
                dn, _, _ = loss_and_gradient(w - e, b, X, y, weight, C)
                numeric = (up - dn) / (2 * h)
                assert abs(numeric - grad_w[j]) / max(1.0, abs(grad_w[j])) < 1e-5
            up, _, _ = loss_and_gradient(w, b + h, X, y, weight, C)
            dn, _, _ = loss_and_gradient(w, b - h, X, y, weight, C)
            assert abs((up - dn) / (2 * h) - grad_b) / max(1.0, abs(grad_b)) < 1e-5

        X, y = gaussian_blobs(42, n_pos=300, n_neg=700, sep=4.0)
        model = train_logreg(X, y, compute_class_weights(list(y)), C=1.0)
        prf = precision_recall_f1(list(predict(model, X)), list(y), 1)
        assert prf.f1 >= 0.95

        recall_gaps = []
        for seed in range(5):
            X, y = imbalanced_blobs(2000 + seed, n=10000)
            weighted = train_logreg(X, y, compute_class_weights(list(y)), C=1.0)
            unweighted = train_logreg(X, y, (1.0, 1.0), C=1.0)
            r_weighted = recall_of(predict(weighted, X), y)
            r_unweighted = recall_of(predict(unweighted, X), y)
            assert r_weighted > r_unweighted, (seed, r_weighted, r_unweighted)
            recall_gaps.append(r_weighted - r_unweighted)

        elapsed = time.perf_counter() - started
        assert elapsed < 120.0, f"model checks took {elapsed:.1f}s"
        report(7, "model correctness (weighted-recall gaps "
                  + ", ".join(f"{g:+.3f}" for g in recall_gaps) + ")")


class TestCriterion8PULearning:
    def test_pu_beats_plain_and_estimates_labeling_frequency(self):
        hidden_fraction = 0.3
        wins = 0
        for seed in range(5):
            X, y, s = pu_blobs(3000 + seed, hidden_fraction=hidden_fraction)
            plain = train_logreg(X, s, (1.0, 1.0), C=50.0)
            pu = train_pu(X, s, seed=seed, C=50.0)
            if recall_of(predict(pu.final_model, X), y) > recall_of(predict(plain, X), y):
                wins += 1
            assert abs(pu.c_estimate - (1.0 - hidden_fraction)) <= 0.1, (
                seed, pu.c_estimate)
        assert wins >= 4, f"PU beat plain supervised in only {wins}/5 seeds"
        report(8, f"positive-unlabeled learning ({wins}/5 recall wins)")


class TestCriterion9RoundTrips:
    def test_dataset_and_model_round_trips(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        make_corpus_file(corpus, n_papers=40, seed=909, adversarial_rate=0.1)
        samples = collect_samples([corpus]).samples
        samples = balanced_sample(samples, 5, seed=1)
        split_dataset(samples, (0.8, 0.1, 0.1), seed=1)
        path = tmp_path / "dataset.jsonl"
        write_dataset(samples, path)
        assert read_dataset(path) == samples

        docs = count_tokens(textproc.tokenize(sentence.text)
                            for s in samples for sentence in s.sentences)
        labels = [1 if sentence.label == LABEL_CITE_WORTHY else 0
                  for s in samples for sentence in s.sentences]
        vocab = fit_vocabulary(docs)
        model = train_logreg(featurize(docs, vocab), labels, compute_class_weights(labels),
                             C=0.1151)
        model_path = tmp_path / "model.json"
        save_model(model_path, model, vocab)
        loaded, loaded_vocab = load_model(model_path)
        assert np.array_equal(loaded.weights, model.weights)
        assert loaded.bias == model.bias
        assert loaded.class_weights == model.class_weights
        assert loaded.C == model.C
        assert len(loaded.weights) == len(vocab)
        assert loaded_vocab == vocab

        X, _, s = pu_blobs(3009, n_pos=300, n_neg=600)
        pu = train_pu(X, s, seed=5, C=10.0)
        pu_path = tmp_path / "pu.json"
        save_model(pu_path, pu, stub_vocabulary(2))
        loaded_pu, _ = load_model(pu_path)
        assert isinstance(loaded_pu, PUModel)
        assert loaded_pu.c_estimate == pu.c_estimate
        assert np.array_equal(loaded_pu.final_model.weights, pu.final_model.weights)
        assert np.array_equal(loaded_pu.labeling_model.weights, pu.labeling_model.weights)
        report(9, "lossless round-trips")
