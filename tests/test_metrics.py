"""Unit tests for evaluation metrics, statistics, and the domain grid."""

import random

import pytest

from citecorpus.metrics import (
    PRF,
    cluster_purity,
    dataset_stats,
    domain_grid,
    pearson,
    population_std,
    precision_recall_f1,
    read_distance_matrix,
    write_distance_matrix,
)
from citecorpus.pipeline import (
    LABEL_CITE_WORTHY,
    LABEL_NON_CITE_WORTHY,
    LabeledSentence,
    ParagraphSample,
)


class TestPrecisionRecallF1:
    def test_perfect_predictions(self):
        assert precision_recall_f1([1, 0, 1], [1, 0, 1], 1) == PRF(1.0, 1.0, 1.0)

    def test_hand_counted_half(self):
        # tp=1 fp=1 fn=1 -> p = r = f1 = 0.5
        result = precision_recall_f1(["+", "+", "-", "-"], ["+", "-", "+", "-"], "+")
        assert result == PRF(0.5, 0.5, 0.5)

    def test_no_predicted_positives(self):
        result = precision_recall_f1([0, 0, 0], [1, 0, 1], 1)
        assert result.precision == 0.0
        assert result.f1 == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            precision_recall_f1([1], [1, 0], 1)

    def test_empty_inputs(self):
        with pytest.raises(ValueError):
            precision_recall_f1([], [], 1)

    def test_matches_brute_force_confusion_tally(self):
        rng = random.Random(404)
        for _ in range(100):
            n = rng.randint(1, 50)
            preds = [rng.randint(0, 1) for _ in range(n)]
            golds = [rng.randint(0, 1) for _ in range(n)]
            result = precision_recall_f1(preds, golds, 1)
            tp = sum(1 for p, g in zip(preds, golds) if p == 1 and g == 1)
            fp = sum(1 for p, g in zip(preds, golds) if p == 1 and g == 0)
            fn = sum(1 for p, g in zip(preds, golds) if p == 0 and g == 1)
            precision = tp / (tp + fp) if tp + fp else 0.0
            recall = tp / (tp + fn) if tp + fn else 0.0
            f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
            assert result == PRF(precision, recall, f1)


def sample_of(texts_labels, field="Biology", split="train"):
    sentences = tuple(
        LabeledSentence(text, label, 1 if label == LABEL_CITE_WORTHY else 0)
        for text, label in texts_labels
    )
    return ParagraphSample(paper_id="p", section_title="introduction",
                           mag_field=field, sentences=sentences, split=split)


class TestDatasetStats:
    def test_empty_dataset_flags(self):
        report = dataset_stats([])
        assert report.empty is True
        assert report.total_sentences == 0
        assert report.min_char_length == 0
        assert "empty" in report.render_text()

    def test_three_sentence_fixture(self):
        sample = sample_of([
            ("One cited sentence xx.", LABEL_CITE_WORTHY),
            ("One plain sentence yy.", LABEL_NON_CITE_WORTHY),
            ("Two plain sentences z.", LABEL_NON_CITE_WORTHY),
        ])
        report = dataset_stats([sample])
        assert report.total_sentences == 3
        assert report.cite_worthy == 1
        assert report.cite_worthy_pct == pytest.approx(33.33, abs=0.005)
        assert report.non_cite_worthy_pct == pytest.approx(66.67, abs=0.005)
        assert report.split_sentences == {"train": 3}
        assert report.field_sentences == {"Biology": 3}

    def test_median_is_lower_middle_for_even_counts(self):
        sample = sample_of([
            ("Aa.", LABEL_NON_CITE_WORTHY),          # 3 chars
            ("Bbbb.", LABEL_NON_CITE_WORTHY),        # 5
            ("Cccccc.", LABEL_NON_CITE_WORTHY),      # 7
            ("Ddddddddd.", LABEL_NON_CITE_WORTHY),   # 10
        ])
        report = dataset_stats([sample])
        assert report.median_char_length == 5
        assert report.min_char_length == 3
        assert report.max_char_length == 10
        assert report.mean_char_length == pytest.approx(25 / 4)

    def test_token_count_uses_model_tokenizer(self):
        sample = sample_of([("Counting-words here, twice.", LABEL_NON_CITE_WORTHY)])
        report = dataset_stats([sample])
        assert report.total_tokens == 4

    def test_totals_equal_sum_of_per_field_totals(self):
        samples = [sample_of([("A sentence goes here.", LABEL_NON_CITE_WORTHY)], field=f)
                   for f in ("Biology", "Physics", "Biology")]
        report = dataset_stats(samples)
        assert sum(report.field_sentences.values()) == report.total_sentences


class TestClusterPurity:
    def test_identical_partition(self):
        assert cluster_purity([0, 0, 1, 1], ["a", "a", "b", "b"]) == 100.0

    def test_single_cluster_two_equal_domains(self):
        assert cluster_purity([0, 0, 0, 0], ["a", "a", "b", "b"]) == 50.0

    def test_hand_built_six_items(self):
        # c1: a,a,b ; c2: b,b,a -> (2+2)/6
        purity = cluster_purity([1, 1, 1, 2, 2, 2], ["a", "a", "b", "b", "b", "a"])
        assert purity == pytest.approx(66.67, abs=0.005)

    def test_invariant_to_cluster_relabeling_and_item_order(self):
        rng = random.Random(7)
        assignments = [rng.randint(0, 3) for _ in range(40)]
        domains = [rng.choice("xyz") for _ in range(40)]
        base = cluster_purity(assignments, domains)
        relabeled = [{0: "q", 1: "r", 2: "s", 3: "t"}[a] for a in assignments]
        assert cluster_purity(relabeled, domains) == pytest.approx(base)
        order = list(range(40))
        rng.shuffle(order)
        assert cluster_purity([assignments[i] for i in order],
                              [domains[i] for i in order]) == pytest.approx(base)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            cluster_purity([1], ["a", "b"])


class TestPearson:
    def test_perfect_linear(self):
        assert pearson([1, 2, 3], [3, 5, 7]) == pytest.approx(1.0)

    def test_negation(self):
        assert pearson([1.0, 2.0, 3.0], [-1.0, -2.0, -3.0]) == pytest.approx(-1.0)

    def test_hand_computed(self):
        # cov=2, sigma_x*sigma_y = sqrt(2*42/9)
        assert pearson([1, 2, 3], [2, 1, 4]) == pytest.approx(0.655, abs=1e-3)

    def test_zero_variance_is_an_error(self):
        with pytest.raises(ValueError):
            pearson([1, 1, 1], [1, 2, 3])

    def test_affine_invariance_and_sign_flip(self):
        rng = random.Random(12)
        xs = [rng.uniform(-5, 5) for _ in range(20)]
        ys = [rng.uniform(-5, 5) for _ in range(20)]
        base = pearson(xs, ys)
        scaled = pearson([3.5 * x + 2 for x in xs], ys)
        assert scaled == pytest.approx(base, rel=1e-9)
        flipped = pearson([-x for x in xs], ys)
        assert flipped == pytest.approx(-base, rel=1e-9)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            pearson([1], [2])


class TestDomainGrid:
    FIELDS = ["A", "B", "C"]

    def full_grid(self, values):
        return {(tr, te): values[i][j]
                for i, tr in enumerate(self.FIELDS)
                for j, te in enumerate(self.FIELDS)}

    def test_reference_column_sigma(self):
        # Five train-field F1 values on one test field; population std 0.90.
        column = [67.58, 66.62, 65.05, 65.49, 66.59]
        assert population_std(column) == pytest.approx(0.90, abs=0.01)

    def test_monotone_distance_gives_rho_minus_one(self):
        distances = self.full_grid([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
        f1 = {pair: 80.0 - 5.0 * d for pair, d in distances.items()}
        grid = domain_grid(f1, distances, fields=self.FIELDS)
        for test_field in self.FIELDS:
            assert grid.rho[test_field] == pytest.approx(-1.0)

    def test_constant_grid_surfaces_pearson_error(self):
        distances = self.full_grid([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
        f1 = {pair: 50.0 for pair in distances}
        with pytest.raises(ValueError, match="zero variance"):
            domain_grid(f1, distances, fields=self.FIELDS)

    def test_incomplete_grid_lists_missing_pairs(self):
        distances = self.full_grid([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
        f1 = {pair: 60.0 + i for i, pair in enumerate(distances)}
        del f1[("B", "C")]
        with pytest.raises(ValueError) as exc:
            domain_grid(f1, distances, fields=self.FIELDS)
        assert "('B', 'C')" in str(exc.value)

    def test_sigma_per_test_field(self):
        f1 = self.full_grid([[70.0, 60.0, 50.0], [71.0, 61.0, 51.0], [72.0, 62.0, 52.0]])
        distances = self.full_grid([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 3.0]])
        grid = domain_grid(f1, distances, fields=self.FIELDS)
        for test_field in self.FIELDS:
            assert grid.sigma[test_field] == pytest.approx(population_std([70, 71, 72]))

    def test_render_contains_all_cells(self):
        f1 = self.full_grid([[70.0, 60.0, 50.0], [71.0, 61.0, 51.0], [72.0, 62.0, 52.0]])
        distances = self.full_grid([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 3.0]])
        text = domain_grid(f1, distances, fields=self.FIELDS).render_text()
        assert "70.00" in text and "sigma" in text and "rho" in text


class TestDistanceMatrixIO:
    def test_round_trip(self, tmp_path):
        fields = ["Chem", "Bio"]
        distances = {("Chem", "Chem"): 0.0, ("Chem", "Bio"): 1.25,
                     ("Bio", "Chem"): 1.25, ("Bio", "Bio"): 0.0}
        path = tmp_path / "dist.tsv"
        write_distance_matrix(distances, fields, path)
        assert read_distance_matrix(path) == distances

    def test_bad_cell_named(self, tmp_path):
        path = tmp_path / "dist.tsv"
        path.write_text("\tA\tB\nA\t0.0\tx\nB\t1.0\t0.0\n")
        with pytest.raises(ValueError, match="line 2"):
            read_distance_matrix(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "dist.tsv"
        path.write_text("\tA\tB\nA\t0.0\n")
        with pytest.raises(ValueError, match="expected 3 cells"):
            read_distance_matrix(path)

    def test_line_numbers_count_blank_lines(self, tmp_path):
        path = tmp_path / "dist.tsv"
        path.write_text("\tA\tB\n\nA\t0\t1\nB\t1\tx\n")
        with pytest.raises(ValueError) as exc:
            read_distance_matrix(path)
        assert str(exc.value) == f"{path}, line 4: bad number 'x'"
