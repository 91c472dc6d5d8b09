"""Unit tests for TF-IDF features, logistic regression, and PU learning."""

import json
import math
import random
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from citecorpus.model import (
    LinearModel,
    PUModel,
    TrainingError,
    Vocabulary,
    compute_class_weights,
    count_tokens,
    featurize,
    fit_vocabulary,
    load_model,
    loss_and_gradient,
    predict,
    predict_proba,
    save_model,
    train_logreg,
    train_pu,
)
from citecorpus.textproc import tokenize
from synthdata import gaussian_blobs, imbalanced_blobs, pu_blobs, recall_of


def docs(*texts):
    return count_tokens(tokenize(t) for t in texts)


def row(X, i):
    """(indices, weights) of row ``i`` of a CSR matrix, as tuples."""
    lo, hi = X.indptr[i], X.indptr[i + 1]
    return tuple(X.indices[lo:hi].tolist()), tuple(X.data[lo:hi].tolist())


def reference_row(tokens, vocab):
    """The per-document TF-IDF formula the model files are defined by:
    tf * idf per in-vocabulary term in index order, divided by the square
    root of the squares added left to right. (Python 3.11's ``sum`` adds
    that way; from 3.12 ``sum`` compensates, so the loop is spelled out.)"""
    pairs = []
    for term, tf in Counter(tokens).items():
        if term in vocab.terms:
            index, df = vocab.terms[term]
            pairs.append((index, tf * (math.log((1 + vocab.total_docs) / (1 + df)) + 1.0)))
    pairs.sort()
    squares = 0.0
    for _, w in pairs:
        squares += w * w
    norm = math.sqrt(squares)
    return tuple(j for j, _ in pairs), tuple(w / norm for _, w in pairs)


def reference_vocabulary(corpus, min_df, max_features):
    """Term -> (index, df) by counting each document's distinct tokens."""
    df = Counter()
    for tokens in corpus:
        df.update(set(tokens))
    kept = [(term, count) for term, count in df.items() if count >= min_df]
    if max_features is not None:
        kept.sort(key=lambda item: (-item[1], item[0]))
        kept = kept[:max_features]
    return {term: (index, count) for index, (term, count) in enumerate(sorted(kept))}


_TERMS = [f"t{i:02d}" for i in range(80)]
_TOKEN_LISTS = st.lists(st.lists(st.sampled_from(_TERMS + ["oov", "zz"]), max_size=150),
                        max_size=12)


class TestTokenize:
    def test_lowercase_split_on_non_alphanumeric(self):
        assert tokenize("A a b.") == ["a", "a", "b"]
        assert tokenize("TF-IDF features, twice!") == ["tf", "idf", "features", "twice"]
        assert tokenize("") == []

    def test_digits_kept(self):
        assert tokenize("Model 3 beats model 12.") == ["model", "3", "beats", "model", "12"]


class TestVocabulary:
    def test_hand_counted_document_frequencies(self):
        vocab = fit_vocabulary(docs("A a b.", "a c."), min_df=1)
        assert vocab.total_docs == 2
        assert {t: df for t, (_, df) in vocab.terms.items()} == {"a": 2, "b": 1, "c": 1}
        assert {t: i for t, (i, _) in vocab.terms.items()} == {"a": 0, "b": 1, "c": 2}

    def test_min_df_over_filtering_is_an_error(self):
        with pytest.raises(TrainingError):
            fit_vocabulary(docs("a b", "c d"), min_df=3)

    def test_empty_corpus_is_an_error(self):
        with pytest.raises(TrainingError):
            fit_vocabulary(count_tokens([]))

    def test_deterministic_index_assignment(self):
        corpus = docs("gamma beta alpha", "beta alpha", "alpha")
        first = fit_vocabulary(corpus)
        second = fit_vocabulary(corpus)
        assert first == second

    def test_max_features_lexicographic_tie_break(self):
        vocab = fit_vocabulary(docs("b a", "b a", "c d"), min_df=1, max_features=3)
        # a and b share df=2; c and d share df=1 and tie-break keeps 'c'.
        assert set(vocab.terms) == {"a", "b", "c"}

    def test_rows_subset_counts_only_its_documents(self):
        counts = docs("a b", "a c", "d")
        vocab = fit_vocabulary(counts.rows(np.array([0, 1])))
        assert vocab.total_docs == 2
        assert vocab.terms == {"a": (0, 2), "b": (1, 1), "c": (2, 1)}

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.sampled_from("abcdefgh"), max_size=6), min_size=1,
                    max_size=15),
           st.integers(0, 4), st.none() | st.integers(1, 8))
    def test_matches_counter_oracle(self, corpus, min_df, max_features):
        # A small alphabet makes tied frequencies common.
        expected = reference_vocabulary(corpus, min_df, max_features)
        if not expected:
            with pytest.raises(TrainingError):
                fit_vocabulary(count_tokens(corpus), min_df, max_features)
            return
        vocab = fit_vocabulary(count_tokens(corpus), min_df, max_features)
        assert vocab.terms == expected
        assert vocab.total_docs == len(corpus)


class TestFeaturize:
    def test_all_oov_gives_zero_vector(self):
        vocab = fit_vocabulary(docs("alpha beta"))
        X = featurize(docs("gamma delta"), vocab)
        assert X.shape == (1, len(vocab))
        assert row(X, 0) == ((), ())

    def test_single_term_gives_unit_vector(self):
        vocab = fit_vocabulary(docs("alpha beta", "beta"))
        assert row(featurize(docs("alpha"), vocab), 0) == ((0,), (1.0,))

    def test_two_document_fixture_matches_hand_computation(self):
        # N=2, df(a)=2, df(b)=df(c)=1; idf(a)=ln(3/3)+1=1,
        # idf(b)=idf(c)=ln(3/2)+1=1.4054651081081644; vectors L2-normalized.
        vocab = fit_vocabulary(docs("A a b.", "a c."), min_df=1)
        X = featurize(docs("A a b.", "a c."), vocab)
        assert X.shape == (2, 3)
        indices, weights = row(X, 0)
        assert indices == (0, 1)
        assert weights[0] == pytest.approx(0.8181802073667197, rel=1e-12)
        assert weights[1] == pytest.approx(0.5749618667993135, rel=1e-12)
        indices, weights = row(X, 1)
        assert indices == (0, 2)
        assert weights[0] == pytest.approx(0.5797386715376657, rel=1e-12)
        assert weights[1] == pytest.approx(0.8148024746671689, rel=1e-12)

    def test_unit_norm_whenever_in_vocabulary(self):
        vocab = fit_vocabulary(docs("alpha beta gamma", "beta gamma", "gamma"))
        X = featurize(docs("alpha beta", "gamma gamma beta", "alpha alpha alpha"), vocab)
        for i in range(X.shape[0]):
            assert math.isclose(sum(w * w for w in row(X, i)[1]), 1.0, rel_tol=1e-12)

    def test_oov_document_between_others_gives_empty_row(self):
        vocab = fit_vocabulary(docs("A a b.", "a c."), min_df=1)
        batch = docs("a b b", "zeta eta", "c a c")
        X = featurize(batch, vocab)
        assert X.shape == (3, len(vocab))
        assert row(X, 1) == ((), ())
        assert row(X, 0) == row(featurize(docs("a b b"), vocab), 0)
        assert row(X, 2) == row(featurize(docs("c a c"), vocab), 0)

    def test_bitwise_equal_to_per_document_reference(self):
        # The saved models stay byte-identical only if featurize agrees with
        # the per-document formula to the last bit, norm summed in index
        # order included. Rows of 64 and more distinct terms are where a
        # pairwise or blocked sum (np.sum, np.add.reduceat) rounds otherwise.
        rng = random.Random(5)
        words = [f"w{i}" for i in range(40)]
        corpus = [[rng.choice(words) for _ in range(rng.randint(0, 12))] for _ in range(200)]
        many = [f"v{i:03d}" for i in range(300)]
        corpus += [rng.sample(many, rng.randint(64, 250)) * rng.randint(1, 3)
                   + rng.choices(words, k=rng.randint(0, 30)) for _ in range(60)]
        rng.shuffle(corpus)
        counts = count_tokens(corpus)
        vocab = fit_vocabulary(counts.rows(slice(0, 160)), min_df=2)
        X = featurize(counts, vocab)
        long_rows = [tokens for tokens in corpus
                     if len({t for t in tokens if t in vocab.terms}) >= 64]
        assert len(long_rows) >= 30
        for i, tokens in enumerate(corpus):
            assert row(X, i) == reference_row(tokens, vocab)

    def test_vocabulary_indices_out_of_term_order(self):
        # load_model accepts any permutation of 0..n-1 as vocabulary indices.
        # Rows still come out sorted by index, and their norms add the
        # squares in index order, as the per-document formula does.
        rng = random.Random(11)
        many = [f"v{i:03d}" for i in range(200)]
        corpus = [rng.sample(many, rng.randint(0, 150)) * rng.randint(1, 2) for _ in range(40)]
        counts = count_tokens(corpus)
        fitted = fit_vocabulary(counts)
        permuted = list(range(len(fitted)))
        rng.shuffle(permuted)
        vocab = Vocabulary(
            terms={term: (permuted[index], df) for term, (index, df) in fitted.terms.items()},
            total_docs=fitted.total_docs)
        X = featurize(counts, vocab)
        assert X.has_sorted_indices
        for i, tokens in enumerate(corpus):
            assert row(X, i) == reference_row(tokens, vocab)

    @settings(max_examples=100, deadline=None)
    @given(_TOKEN_LISTS, _TOKEN_LISTS)
    def test_property_equal_to_per_document_reference(self, fitted, scored):
        # Scored documents may be empty, all out of vocabulary, repeat a
        # token many times or run to 150 tokens.
        scored = scored + [[], ["oov"] * 5, [_TERMS[0]] * 40, _TERMS * 2]
        vocab = fit_vocabulary(count_tokens(fitted + [_TERMS[::7]]))
        X = featurize(count_tokens(scored), vocab)
        assert X.shape == (len(scored), len(vocab))
        for i, tokens in enumerate(scored):
            assert row(X, i) == reference_row(tokens, vocab)


class TestClassWeights:
    def test_balanced(self):
        assert compute_class_weights([1, 0, 1, 0]) == (1.0, 1.0)

    def test_table_share(self):
        # 31.76% positive: w_pos = 1/(2*0.3176), w_neg = 1/(2*0.6824)
        labels = [1] * 3176 + [0] * 6824
        w_pos, w_neg = compute_class_weights(labels)
        assert w_pos == pytest.approx(1.574, abs=5e-4)
        assert w_neg == pytest.approx(0.733, abs=5e-4)

    def test_one_positive_three_negatives(self):
        w_pos, w_neg = compute_class_weights([1, 0, 0, 0])
        assert w_pos == pytest.approx(2.0)
        assert w_neg == pytest.approx(2 / 3)

    def test_single_class_is_an_error(self):
        with pytest.raises(TrainingError):
            compute_class_weights([1, 1, 1])


class TestLossAndGradient:
    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(99)
        for _ in range(10):
            n, d = 8, 5
            X = sp.csr_matrix(rng.normal(size=(n, d)))
            y = rng.integers(0, 2, size=n).astype(float)
            weight = rng.uniform(0.2, 2.0, size=n)
            w = rng.normal(size=d)
            b = float(rng.normal())
            C = float(rng.uniform(0.05, 5.0))
            loss, grad_w, grad_b = loss_and_gradient(w, b, X, y, weight, C)
            h = 1e-6
            for j in range(d):
                e = np.zeros(d)
                e[j] = h
                up, _, _ = loss_and_gradient(w + e, b, X, y, weight, C)
                dn, _, _ = loss_and_gradient(w - e, b, X, y, weight, C)
                numeric = (up - dn) / (2 * h)
                assert abs(numeric - grad_w[j]) / max(1.0, abs(grad_w[j])) < 1e-5
            up, _, _ = loss_and_gradient(w, b + h, X, y, weight, C)
            dn, _, _ = loss_and_gradient(w, b - h, X, y, weight, C)
            assert abs((up - dn) / (2 * h) - grad_b) / max(1.0, abs(grad_b)) < 1e-5


class TestTrainLogreg:
    def test_two_point_separable_toy(self):
        X = np.array([[1.0], [-1.0]])
        y = [1, 0]
        model = train_logreg(X, y, (1.0, 1.0), C=10.0)
        assert list(predict(model, X)) == [1, 0]

    def test_regularization_limit_majority_by_class_weight(self):
        X, y = gaussian_blobs(5, n_pos=30, n_neg=70, sep=2.0)
        tiny = train_logreg(X, y, (1.0, 1.0), C=1e-8)
        assert np.max(np.abs(tiny.weights)) < 1e-4
        assert list(predict(tiny, X)) == [0] * len(y)  # plain majority: negative
        boosted = train_logreg(X, y, (10.0, 1.0), C=1e-8)
        assert list(predict(boosted, X)) == [1] * len(y)  # weighted majority flips

    def test_label_length_mismatch(self):
        with pytest.raises(ValueError):
            train_logreg(np.zeros((3, 2)), [1, 0], (1.0, 1.0))

    def test_non_finite_inputs_rejected_before_fitting(self):
        with pytest.raises(TrainingError) as exc:
            train_logreg(np.array([[1.0], [float("inf")]]), [1, 0], (1.0, 1.0))
        assert str(exc.value) == "feature value in row 1 is not finite"

    def test_monotone_class_weight_effect_on_recall(self):
        X, y = gaussian_blobs(21, n_pos=150, n_neg=350, sep=1.2)
        recalls = []
        for w_pos in (0.5, 1.0, 2.0, 4.0, 8.0):
            model = train_logreg(X, y, (w_pos, 1.0), C=1.0)
            recalls.append(recall_of(predict(model, X), y))
        assert all(b >= a for a, b in zip(recalls, recalls[1:])), recalls

    def test_bitwise_determinism(self):
        X, y = gaussian_blobs(8, n_pos=60, n_neg=90, sep=1.5)
        a = train_logreg(X, y, (1.3, 0.8), C=0.5)
        b = train_logreg(X, y, (1.3, 0.8), C=0.5)
        assert np.array_equal(a.weights, b.weights)
        assert a.bias == b.bias

    def test_c_must_be_positive(self):
        with pytest.raises(ValueError):
            train_logreg(np.zeros((2, 1)), [0, 1], (1.0, 1.0), C=0.0)

    def test_reaches_the_newton_optimum(self):
        # Weakly regularized, with class weights. The oracle is a plain
        # Newton iteration on the exact Hessian of the same objective.
        rng = np.random.default_rng(12)
        n, d, C = 60, 4, 1000.0
        X = rng.normal(size=(n, d))
        y = (X @ np.array([1.5, -2.0, 0.5, 1.0]) + 0.3
             + rng.normal(scale=0.8, size=n) > 0).astype(float)
        weight = np.where(y == 1.0, 1.7, 0.6)
        A = np.hstack([X, np.ones((n, 1))])
        penalty = np.append(np.full(d, 1.0 / C), 0.0)
        v = np.zeros(d + 1)
        for _ in range(50):
            p = 1.0 / (1.0 + np.exp(-(A @ v)))
            grad = A.T @ (weight * (p - y)) + penalty * v
            hessian = A.T @ (A * (weight * p * (1.0 - p))[:, None]) + np.diag(penalty)
            v -= np.linalg.solve(hessian, grad)
        assert np.max(np.abs(grad)) < 1e-10
        optimum = loss_and_gradient(v[:-1], v[-1], sp.csr_matrix(X), y, weight, C)[0]

        model = train_logreg(X, y, (1.7, 0.6), C=C)
        reached, grad_w, grad_b = loss_and_gradient(model.weights, model.bias, sp.csr_matrix(X),
                                                    y, weight, C)
        assert (reached - optimum) / abs(optimum) <= 1e-10
        assert model.converged is True
        assert 0 < model.iterations < 100
        assert model.grad_max == pytest.approx(max(np.max(np.abs(grad_w)), abs(grad_b)))


class TestPredict:
    def test_zero_model_gives_half(self):
        model = LinearModel(weights=np.zeros(2), bias=0.0, class_weights=(1, 1),
                            C=1.0, n_features=2)
        assert predict_proba(model, np.array([[3.0, -1.0]]))[0] == pytest.approx(0.5)
        assert predict(model, np.array([[3.0, -1.0]]))[0] == 1  # >= threshold

    def test_large_bias_saturates(self):
        model = LinearModel(weights=np.zeros(1), bias=50.0, class_weights=(1, 1),
                            C=1.0, n_features=1)
        assert predict_proba(model, np.array([[0.0]]))[0] == pytest.approx(1.0)

    def test_hand_computed_sigmoid(self):
        model = LinearModel(weights=np.array([2.0, -1.0]), bias=0.5,
                            class_weights=(1, 1), C=1.0, n_features=2)
        x = np.array([[1.0, 3.0]])
        z = 2.0 * 1.0 - 1.0 * 3.0 + 0.5
        assert predict_proba(model, x)[0] == pytest.approx(1 / (1 + math.exp(-z)))

    def test_dimension_mismatch(self):
        model = LinearModel(weights=np.zeros(2), bias=0.0, class_weights=(1, 1),
                            C=1.0, n_features=2)
        with pytest.raises(ValueError):
            predict_proba(model, np.zeros((1, 5)))


class TestTrainPU:
    def test_degenerate_all_positives_labeled(self):
        X, y = gaussian_blobs(31, n_pos=300, n_neg=600, sep=4.0)
        pu = train_pu(X, y, seed=1, C=50.0)
        assert pu.c_estimate > 0.9
        # Reduces to ordinary supervised behaviour on clean labels.
        assert recall_of(predict(pu.final_model, X), y) > 0.99

    def test_hidden_positives_recovered(self):
        X, y, s = pu_blobs(3000)
        plain = train_logreg(X, s, (1.0, 1.0), C=50.0)
        pu = train_pu(X, s, seed=0, C=50.0)
        assert recall_of(predict(pu.final_model, X), y) > recall_of(predict(plain, X), y)
        assert abs(pu.c_estimate - 0.7) <= 0.1

    def test_stage_one_boundary_recovered_on_clean_blobs(self):
        # With all unlabeled truly negative, the final model agrees with the
        # stage-one decision boundary up to a small angle.
        X, y = gaussian_blobs(77, n_pos=400, n_neg=800, sep=3.0)
        pu = train_pu(X, y, seed=2, C=10.0)
        w1 = pu.labeling_model.weights / np.linalg.norm(pu.labeling_model.weights)
        w2 = pu.final_model.weights / np.linalg.norm(pu.final_model.weights)
        assert float(np.dot(w1, w2)) > 0.99

    def test_soft_targets_fit_the_duplicated_row_objective(self):
        # Elkan and Noto count each unlabeled sample twice: as a positive at
        # weight q, as a negative at weight 1 - q. That objective, built here
        # over the stacked rows, is the oracle for the one-row soft-target fit.
        X, _, s = pu_blobs(3003)
        C = 50.0
        pu = train_pu(X, s, seed=4, C=C)
        pos, unl = np.flatnonzero(s == 1), np.flatnonzero(s == 0)
        g = np.clip(predict_proba(pu.labeling_model, X[unl]), 1e-12, 1.0 - 1e-12)
        q = np.clip((1.0 - pu.c_estimate) / pu.c_estimate * g / (1.0 - g), 0.0, 1.0)
        assert np.count_nonzero((q > 0.05) & (q < 0.95)) >= 20  # soft, not 0/1 targets

        stacked = sp.csr_matrix(np.vstack([X[pos], X[unl], X[unl]]))
        y = np.concatenate([np.ones(pos.size), np.ones(unl.size), np.zeros(unl.size)])
        weight = np.concatenate([np.ones(pos.size), q, 1.0 - q])
        final = pu.final_model
        oracle, grad_w, grad_b = loss_and_gradient(final.weights, final.bias, stacked,
                                                   y, weight, C)
        targets = np.ones(len(s))
        targets[unl] = q
        soft = loss_and_gradient(final.weights, final.bias, sp.csr_matrix(X), targets,
                                 np.ones(len(s)), C)[0]
        assert abs(soft - oracle) <= 1e-12 * abs(oracle)
        # L-BFGS-B stops at gtol 1e-10 on the objective scaled by 1/N.
        assert final.converged is True
        assert max(np.max(np.abs(grad_w)), abs(grad_b)) <= 1e-10 * len(s)

    def test_q_weights_bounded(self):
        X, y, s = pu_blobs(3001)
        pu = train_pu(X, s, seed=5, C=50.0)
        assert 0.0 < pu.c_estimate <= 1.0

    def test_errors_on_missing_groups(self):
        X = np.zeros((4, 2))
        with pytest.raises(TrainingError):
            train_pu(X, [0, 0, 0, 0], seed=0)
        with pytest.raises(TrainingError):
            train_pu(X, [1, 1, 1, 1], seed=0)

    def test_deterministic(self):
        X, y, s = pu_blobs(3002)
        a = train_pu(X, s, seed=9, C=50.0)
        b = train_pu(X, s, seed=9, C=50.0)
        assert np.array_equal(a.final_model.weights, b.final_model.weights)
        assert a.c_estimate == b.c_estimate


class TestSerialization:
    def test_linear_round_trip_bitwise(self, tmp_path):
        corpus = docs("alpha beta gamma", "beta gamma", "alpha delta")
        vocab = fit_vocabulary(corpus)
        model = train_logreg(featurize(corpus, vocab), [1, 0, 1], (1.2, 0.9), C=0.1151)
        path = tmp_path / "model.json"
        save_model(path, model, vocab)
        loaded, loaded_vocab = load_model(path)
        assert isinstance(loaded, LinearModel)
        assert np.array_equal(loaded.weights, model.weights)
        assert loaded.bias == model.bias
        assert loaded.class_weights == model.class_weights
        assert loaded.C == model.C
        assert loaded_vocab == vocab

    def test_pu_round_trip_bitwise(self, tmp_path):
        X, y, s = pu_blobs(3003, n_pos=200, n_neg=400)
        model = train_pu(X, s, seed=2, C=10.0)
        path = tmp_path / "pu.json"
        save_model(path, model)
        loaded, vocab = load_model(path)
        assert vocab is None
        assert isinstance(loaded, PUModel)
        assert loaded.c_estimate == model.c_estimate
        assert np.array_equal(loaded.final_model.weights, model.final_model.weights)
        assert np.array_equal(loaded.labeling_model.weights, model.labeling_model.weights)

    def test_fit_report_round_trips_and_is_optional(self, tmp_path):
        X, y = gaussian_blobs(8, n_pos=60, n_neg=90, sep=1.5)
        model = train_logreg(X, y, (1.3, 0.8), C=0.5)
        path = tmp_path / "model.json"
        save_model(path, model)
        loaded, _ = load_model(path)
        assert (loaded.iterations, loaded.grad_max, loaded.converged) == (
            model.iterations, model.grad_max, True)
        payload = json.loads(path.read_text())
        for key in ("iterations", "grad_max", "converged"):
            del payload["model"][key]
        path.write_text(json.dumps(payload))
        loaded, _ = load_model(path)
        assert (loaded.iterations, loaded.grad_max, loaded.converged) == (None, None, None)
        assert np.array_equal(loaded.weights, model.weights)

    @pytest.mark.parametrize("key,value", [("iterations", 3.5), ("iterations", True),
                                           ("grad_max", "small"), ("converged", 1)])
    def test_mistyped_fit_report_rejected(self, tmp_path, key, value):
        model = train_logreg(np.array([[1.0], [-1.0]]), [1, 0], (1.0, 1.0), C=1.0)
        path = tmp_path / "model.json"
        save_model(path, model)
        payload = json.loads(path.read_text())
        payload["model"][key] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=key):
            load_model(path)

    def test_failed_write_leaves_old_file_intact(self, tmp_path, monkeypatch):
        path = tmp_path / "model.json"
        save_model(path, train_logreg(np.array([[1.0], [-1.0]]), [1, 0], (1.0, 1.0), C=1.0))
        before = path.read_bytes()

        def failing_dump(obj, fh, **kwargs):
            fh.write('{"format_version": 1, "ki')
            raise OSError("disk full")

        monkeypatch.setattr(json, "dump", failing_dump)
        with pytest.raises(OSError, match="disk full"):
            save_model(path, train_logreg(np.array([[2.0], [-1.0]]), [1, 0], (1.0, 1.0)))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format_version": 99, "kind": "linear"}')
        with pytest.raises(ValueError):
            load_model(path)


class TestImbalancedWeighting:
    def test_weighted_recall_beats_unweighted(self):
        X, y = imbalanced_blobs(2000, n=4000)
        weighted = train_logreg(X, y, compute_class_weights(list(y)), C=1.0)
        unweighted = train_logreg(X, y, (1.0, 1.0), C=1.0)
        assert recall_of(predict(weighted, X), y) > recall_of(predict(unweighted, X), y)
