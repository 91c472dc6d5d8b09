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
from scipy.optimize import minimize
from scipy.special import expit

import citecorpus
from citecorpus.model import (
    CSR,
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
from faults import disk_full_on
from synthdata import gaussian_blobs, imbalanced_blobs, pu_blobs, recall_of, stub_vocabulary


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
        assert all(np.all(np.diff(X.indices[X.indptr[i]:X.indptr[i + 1]]) > 0)
                   for i in range(len(X)))
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

    def test_column_map_is_computed_once_per_matrix(self):
        counts = docs("beta alpha", "gamma beta")
        columns = counts.column_of
        assert dict(columns) == {"alpha": 0, "beta": 1, "gamma": 2}
        vocab = fit_vocabulary(counts)
        featurize(counts, vocab)
        featurize(counts, vocab)
        assert counts.column_of is columns
        # A row selection is its own matrix; its map is computed on use.
        part = counts.rows(slice(0, 1))
        assert "column_of" not in vars(part)
        assert part.column_of is not columns and dict(part.column_of) == dict(columns)

    def test_column_map_is_read_only(self):
        columns = docs("alpha beta").column_of
        with pytest.raises(TypeError):
            columns["alpha"] = 1
        with pytest.raises(TypeError):
            del columns["beta"]

    def test_counts_beyond_int64(self):
        # load_model bounds a document frequency only by total_docs, which
        # may be any integer; the idf is still the per-document formula's.
        vocab = Vocabulary({"a": (0, 10**20), "b": (1, 1)}, total_docs=10**21)
        corpus = [["a", "b", "c"], ["b", "c"], ["c"]]
        X = featurize(count_tokens(corpus), vocab)
        for i, tokens in enumerate(corpus):
            assert row(X, i) == reference_row(tokens, vocab)

    @pytest.mark.parametrize("first", [0, 1])
    def test_vocabularies_sharing_a_matrix_match_fresh_counts(self, first):
        # Whatever featurize keeps per matrix must not carry one vocabulary's
        # indices or idf over to another's.
        rng = random.Random(46)
        words = [f"w{i:02d}" for i in range(60)]
        corpus = [rng.choices(words, k=rng.randint(0, 20)) for _ in range(80)]
        counts = count_tokens(corpus)
        vocabs = [fit_vocabulary(counts.rows(slice(0, 40)), min_df=2),
                  fit_vocabulary(counts.rows(slice(30, 80)), max_features=25)]
        assert vocabs[0].terms != vocabs[1].terms
        for vocab in (vocabs[first], vocabs[1 - first]):
            X, expected = featurize(counts, vocab), featurize(count_tokens(corpus), vocab)
            for name in ("data", "indices", "indptr"):
                assert same_bits(getattr(X, name), getattr(expected, name))


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
            X = CSR.from_dense(rng.normal(size=(n, d)))
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
        X = CSR.from_dense([[1.0], [-1.0]])
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
            train_logreg(CSR.from_dense(np.zeros((3, 2))), [1, 0], (1.0, 1.0))

    def test_non_finite_inputs_rejected_before_fitting(self):
        with pytest.raises(TrainingError) as exc:
            train_logreg(CSR.from_dense([[1.0], [float("inf")]]), [1, 0], (1.0, 1.0))
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
            train_logreg(CSR.from_dense(np.zeros((2, 1))), [0, 1], (1.0, 1.0), C=0.0)

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
        rows = CSR.from_dense(X)
        optimum = loss_and_gradient(v[:-1], v[-1], rows, y, weight, C)[0]

        model = train_logreg(rows, y, (1.7, 0.6), C=C)
        reached, grad_w, grad_b = loss_and_gradient(model.weights, model.bias, rows, y, weight,
                                                    C)
        assert (reached - optimum) / abs(optimum) <= 1e-10
        assert model.converged is True
        assert 0 < model.iterations < 100
        assert model.grad_max == pytest.approx(max(np.max(np.abs(grad_w)), abs(grad_b)))


def sparse_problem(seed, n_rows=600, positive_share=0.4):
    """Seeded TF-IDF rows over a 500-word vocabulary and labels from a
    planted linear rule with noise, positive in ``positive_share`` of rows."""
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(500)]
    docs = [rng.choice(words, size=int(rng.integers(1, 25))).tolist() for _ in range(n_rows)]
    X = featurize(count_tokens(docs), fit_vocabulary(count_tokens(docs)))
    margin = X.dot(rng.normal(size=X.shape[1]) * 3.0) + rng.normal(size=n_rows)
    return X, (margin >= np.quantile(margin, 1.0 - positive_share)).astype(float), rng


def scaled_objective(X, y, sample_weight, C):
    """``loss_and_gradient`` over [w, b], scaled by 1/N as a fit scales it."""
    def f(v):
        loss, grad_w, grad_b = loss_and_gradient(v[:-1], v[-1], X, y, sample_weight, C)
        return loss / len(y), np.append(grad_w, grad_b) / len(y)
    return f


class TestNewtonCG:
    """The numpy solver against scipy's L-BFGS-B and the gradient."""

    @pytest.mark.parametrize("kind", ["hard", "soft", "imbalanced"])
    def test_scipy_polishing_finds_nothing_lower(self, kind):
        # Hard 0/1 labels; PU-style soft targets at class weights (1, 1);
        # 3% positives with inverse-frequency class weights. L-BFGS-B
        # started from the fitted weights, at tolerances far below the fit's,
        # must not lower the objective by more than 1e-12 of it.
        X, y, rng = sparse_problem({"hard": 1, "soft": 2, "imbalanced": 3}[kind],
                                   positive_share=0.03 if kind == "imbalanced" else 0.4)
        class_weights, C = (1.0, 1.0), citecorpus.DEFAULT_C
        if kind == "soft":
            y = np.where(y == 1.0, 1.0, rng.uniform(0.0, 1.0, size=len(y)))
            C = 50.0
        elif kind == "imbalanced":
            class_weights, C = compute_class_weights(y.tolist()), 1.0
        model = train_logreg(X, y, class_weights, C=C)
        weight = np.where(y == 1.0, *class_weights)
        f = scaled_objective(X, y, weight, C)
        fitted = np.append(model.weights, model.bias)
        reached, grad = f(fitted)
        polished = minimize(f, fitted, jac=True, method="L-BFGS-B",
                            options={"maxiter": 2000, "gtol": 1e-12, "ftol": 1e-15})
        optimum = min(float(polished.fun), reached)
        assert (reached - optimum) / abs(optimum) <= 1e-12
        assert model.converged is True
        assert 0 < model.iterations < 20
        assert model.grad_max == np.max(np.abs(grad)) * len(y) <= 1e-10 * len(y)

    def test_hessian_product_matches_gradient_differences(self):
        X, y, rng = sparse_problem(4, n_rows=200)
        weight = rng.uniform(0.5, 2.0, size=len(y))
        C = 0.7

        def gradient(v):
            return np.append(*loss_and_gradient(v[:-1], v[-1], X, y, weight, C)[1:])

        for _ in range(5):
            v = rng.normal(size=X.shape[1] + 1)
            d = rng.normal(size=X.shape[1] + 1)
            h = 1e-5
            numeric = (gradient(v + h * d) - gradient(v - h * d)) / (2 * h)
            exact = citecorpus.model._hessian_product(X, v, weight, C)(d)
            assert np.max(np.abs(numeric - exact)) <= 1e-6 * max(1.0, np.max(np.abs(exact)))

    def test_full_steps_are_taken_where_the_objective_is_flat_to_rounding(self,
                                                                          monkeypatch):
        # At C = 1e-8 the last Newton steps change the objective by less than
        # its rounding, so Armijo's test cannot accept them; a step that
        # shrinks the gradient is taken whole instead of being halved.
        X, y = gaussian_blobs(5, n_pos=30, n_neg=70, sep=2.0)
        calls = []

        def counting(*args):
            calls.append(args)
            return loss_and_gradient(*args)

        monkeypatch.setattr(citecorpus.model, "loss_and_gradient", counting)
        model = train_logreg(X, y, (10.0, 1.0), C=1e-8)
        assert model.converged is True
        assert len(calls) == model.iterations + 1

    def test_two_fits_give_the_same_bits(self):
        X, y, _ = sparse_problem(5)
        a = train_logreg(X, y, (1.3, 0.8), C=0.5)
        b = train_logreg(X, y, (1.3, 0.8), C=0.5)
        assert same_bits(a.weights, b.weights)
        assert (a.bias, a.iterations, a.grad_max, a.converged) == (
            b.bias, b.iterations, b.grad_max, b.converged)

    def test_iteration_cap_reports_not_converged(self, monkeypatch):
        X, y, _ = sparse_problem(6)
        monkeypatch.setattr(citecorpus.model, "_MAX_ITERATIONS", 2)
        model = train_logreg(X, y, (1.0, 1.0), C=10.0)
        assert model.iterations == 2
        assert model.converged is False
        assert model.grad_max > 1e-10 * len(y)


class TestPredict:
    def test_zero_model_gives_half(self):
        model = LinearModel(weights=np.zeros(2), bias=0.0, class_weights=(1, 1), C=1.0)
        X = CSR.from_dense([[3.0, -1.0]])
        assert predict_proba(model, X)[0] == pytest.approx(0.5)
        assert predict(model, X)[0] == 1  # >= threshold

    def test_large_bias_saturates(self):
        model = LinearModel(weights=np.zeros(1), bias=50.0, class_weights=(1, 1), C=1.0)
        assert predict_proba(model, CSR.from_dense([[0.0]]))[0] == pytest.approx(1.0)

    def test_hand_computed_sigmoid(self):
        model = LinearModel(weights=np.array([2.0, -1.0]), bias=0.5,
                            class_weights=(1, 1), C=1.0)
        x = CSR.from_dense([[1.0, 3.0]])
        z = 2.0 * 1.0 - 1.0 * 3.0 + 0.5
        assert predict_proba(model, x)[0] == pytest.approx(1 / (1 + math.exp(-z)))

    def test_dimension_mismatch(self):
        model = LinearModel(weights=np.zeros(2), bias=0.0, class_weights=(1, 1), C=1.0)
        with pytest.raises(ValueError):
            predict_proba(model, CSR.from_dense(np.zeros((1, 5))))


def random_csr(rng, n_rows, n_columns, max_per_row):
    """A seeded random sparse matrix, built by scipy; rows of up to
    ``max_per_row`` values, some empty."""
    dense = np.zeros((n_rows, n_columns))
    for i in range(n_rows):
        size = int(rng.integers(0, max_per_row + 1))
        columns = rng.choice(n_columns, size=size, replace=False)
        dense[i, columns] = rng.normal(size=size) * 10.0 ** rng.integers(-3, 4, size)
    return sp.csr_matrix(dense)


def to_scipy(X):
    """A ``scipy.sparse.csr_matrix`` over the arrays of the CSR ``X``."""
    return sp.csr_matrix((X.data, X.indices, X.indptr), shape=X.shape)


def scipy_featurize(counts, vocab):
    """TF-IDF rows the way scipy computes them: counts times a column map of
    idf values, then each row divided by its norm from a CSR matvec."""
    column_of = {term: column for column, term in enumerate(counts.terms)}
    pairs = [(column_of[term], index, math.log((1 + vocab.total_docs) / (1 + df)) + 1.0)
             for term, (index, df) in vocab.terms.items() if term in column_of]
    columns, indices, idf = zip(*pairs) if pairs else ((), (), ())
    scale = sp.csr_matrix((idf, (columns, indices)), shape=(len(counts.terms), len(vocab)))
    X = to_scipy(counts.matrix) @ scale
    X.sort_indices()
    X.data /= np.repeat(np.sqrt(X.multiply(X) @ np.ones(X.shape[1])), np.diff(X.indptr))
    return X


def same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def within_ulps(a, b, ulps):
    """Whether the non-negative doubles ``a`` and ``b`` are at most ``ulps``
    representable values apart, element by element."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a.view(np.int64) - b.view(np.int64))
                                              <= ulps))


class TestScipyExactness:
    """The numpy margin, labels and TF-IDF rows carry scipy's bits."""

    def test_predict_is_expit_at_least_a_half(self):
        edge = -3.3306690738754686e-16
        near, below, above = [edge], edge, edge
        for _ in range(1000):
            below, above = np.nextafter(below, -np.inf), np.nextafter(above, np.inf)
            near += [below, above]
        special = [0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan]
        rng = np.random.default_rng(41)
        spread = rng.normal(size=5000) * 10.0 ** rng.integers(-20, 4, 5000)
        margins = np.concatenate([near, special, spread])
        # One stored value per row, weight 1 and bias 0: each margin as given
        # (-0.0 comes out as 0.0, the first sum being 0.0 + -0.0).
        X = CSR(margins, np.zeros(margins.size, dtype=np.int32),
                np.arange(margins.size + 1, dtype=np.int32), (margins.size, 1))
        model = LinearModel(weights=np.ones(1), bias=0.0, class_weights=(1, 1), C=1.0)
        labels = predict(model, X)
        assert np.array_equal(labels, (expit(margins) >= 0.5).astype(int))
        assert np.array_equal(labels, (expit(to_scipy(X) @ model.weights) >= 0.5).astype(int))
        assert labels[:3].tolist() == [1, 0, 1]  # the edge, the double below, above

    def test_margin_and_rows_match_scipy_bit_for_bit(self):
        rng = np.random.default_rng(42)
        for n_columns, max_per_row in ((7, 7), (300, 200), (2000, 40)):
            S = random_csr(rng, 120, n_columns, max_per_row)
            X = CSR(S.data, S.indices.astype(np.int32), S.indptr.astype(np.int32), S.shape)
            w, b = rng.normal(size=n_columns), float(rng.normal())
            model = LinearModel(weights=w, bias=b, class_weights=(1, 1), C=1.0)
            assert within_ulps(predict_proba(model, X), expit(S @ w + b), 2)
            assert same_bits(X.dot(w), S @ w)
            r = rng.normal(size=120) * 10.0 ** rng.integers(-3, 4, 120)
            assert same_bits(X.transpose_dot(r), S.T @ r)
            rows = rng.permutation(120)[:50]
            for index in (rows, rng.random(120) < 0.5, slice(10, 90)):
                part, expected = X[index], S[index]
                assert part.shape == expected.shape
                for name in ("data", "indices", "indptr"):
                    assert np.array_equal(getattr(part, name), getattr(expected, name))

    def test_row_of_entry_is_computed_once_per_matrix(self):
        rng = np.random.default_rng(44)
        S = random_csr(rng, 60, 30, 12)
        X = CSR(S.data, S.indices.astype(np.int32), S.indptr.astype(np.int32), S.shape)
        rows = X.row_of_entry
        assert np.array_equal(rows, S.tocoo().row)
        X.dot(rng.normal(size=30))
        X.transpose_dot(rng.normal(size=60))
        assert X.row_of_entry is rows
        with pytest.raises(ValueError):
            rows[0] = 1
        assert X[slice(5, 20)].row_of_entry is not rows

    def test_transposed_product_is_scipys_bit_for_bit(self):
        # X^T r, the gradient's product, on TF-IDF rows (some empty) with
        # residuals of every sign and scale.
        rng = np.random.default_rng(43)
        words = [f"w{i}" for i in range(300)]
        X = featurize(count_tokens(rng.choice(words, size=int(rng.integers(0, 120))).tolist()
                                   for _ in range(80)),
                      fit_vocabulary(count_tokens([words])))
        for scale in (1e-12, 1.0, 1e12):
            r = rng.normal(size=len(X)) * scale
            assert same_bits(X.transpose_dot(r), to_scipy(X).T @ r)
        assert same_bits(X.transpose_dot(np.zeros(len(X))), np.zeros(X.shape[1]))

    def test_predict_proba_is_within_two_ulps_of_expit(self):
        # expit is 1 / (1 + exp(-z)) with libm's exp. numpy's vectorized exp
        # differs from it in the last bit for some arguments, and that ulp
        # can grow to two through 1 + e and the reciprocal, so the
        # probabilities are not bit-equal. predict never uses them: its
        # threshold is on the margin.
        rng = np.random.default_rng(45)
        margins = np.concatenate([rng.normal(size=20000) * 10.0 ** rng.integers(-20, 3, 20000),
                                  [0.0, -0.0, 800.0, -800.0, np.inf, -np.inf]])
        X = CSR(margins, np.zeros(margins.size, dtype=np.int32),
                np.arange(margins.size + 1, dtype=np.int32), (margins.size, 1))
        model = LinearModel(weights=np.ones(1), bias=0.0, class_weights=(1, 1), C=1.0)
        assert within_ulps(predict_proba(model, X), expit(margins), 2)

    @pytest.mark.parametrize("permute", [False, True])
    def test_featurize_matches_scipy_bit_for_bit(self, tmp_path, permute):
        # Rows of 64 and more distinct terms, repeated terms, empty and
        # out-of-vocabulary rows; the vocabulary read back from a model file,
        # its indices shuffled when ``permute`` is set.
        rng = random.Random(44)
        words = [f"w{i:03d}" for i in range(400)]
        corpus = [rng.sample(words, rng.randint(0, 250)) * rng.randint(1, 3) for _ in range(150)]
        corpus += [[], ["oov"] * 4]
        counts = count_tokens(corpus)
        fitted = fit_vocabulary(counts.rows(slice(0, 100)), min_df=2)
        order = list(range(len(fitted)))
        if permute:
            rng.shuffle(order)
        vocab = Vocabulary({term: (order[index], df)
                            for term, (index, df) in fitted.terms.items()}, fitted.total_docs)
        path = tmp_path / "model.json"
        save_model(path, LinearModel(weights=np.zeros(len(vocab)), bias=0.0,
                                     class_weights=(1, 1), C=1.0), vocab)
        _, loaded = load_model(path)
        assert loaded == vocab
        X, expected = featurize(counts, loaded), scipy_featurize(counts, loaded)
        assert X.shape == expected.shape
        for name in ("data", "indices", "indptr"):
            assert same_bits(getattr(X, name), getattr(expected, name).astype(
                getattr(X, name).dtype))


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

        stacked = X[np.concatenate([pos, unl, unl])]
        y = np.concatenate([np.ones(pos.size), np.ones(unl.size), np.zeros(unl.size)])
        weight = np.concatenate([np.ones(pos.size), q, 1.0 - q])
        final = pu.final_model
        oracle, grad_w, grad_b = loss_and_gradient(final.weights, final.bias, stacked,
                                                   y, weight, C)
        targets = np.ones(len(s))
        targets[unl] = q
        soft = loss_and_gradient(final.weights, final.bias, X, targets, np.ones(len(s)), C)[0]
        assert abs(soft - oracle) <= 1e-12 * abs(oracle)
        # The fit stops at max|gradient| 1e-10 on the objective scaled by 1/N.
        assert final.converged is True
        assert max(np.max(np.abs(grad_w)), abs(grad_b)) <= 1e-10 * len(s)

    def test_q_weights_bounded(self):
        X, y, s = pu_blobs(3001)
        pu = train_pu(X, s, seed=5, C=50.0)
        assert 0.0 < pu.c_estimate <= 1.0

    def test_errors_on_missing_groups(self):
        X = CSR.from_dense(np.zeros((4, 2)))
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
        save_model(path, model, stub_vocabulary(2))
        loaded, vocab = load_model(path)
        assert vocab == stub_vocabulary(2)
        assert isinstance(loaded, PUModel)
        assert loaded.c_estimate == model.c_estimate
        assert np.array_equal(loaded.final_model.weights, model.final_model.weights)
        assert np.array_equal(loaded.labeling_model.weights, model.labeling_model.weights)

    def test_fit_report_round_trips_and_is_optional(self, tmp_path):
        X, y = gaussian_blobs(8, n_pos=60, n_neg=90, sep=1.5)
        model = train_logreg(X, y, (1.3, 0.8), C=0.5)
        path = tmp_path / "model.json"
        save_model(path, model, stub_vocabulary(2))
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
        model = train_logreg(CSR.from_dense([[1.0], [-1.0]]), [1, 0], (1.0, 1.0), C=1.0)
        path = tmp_path / "model.json"
        save_model(path, model, stub_vocabulary(1))
        payload = json.loads(path.read_text())
        payload["model"][key] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=key):
            load_model(path)

    def test_failed_write_leaves_old_file_intact(self, tmp_path, monkeypatch):
        path = tmp_path / "model.json"
        vocab = stub_vocabulary(1)
        save_model(path, train_logreg(CSR.from_dense([[1.0], [-1.0]]), [1, 0],
                                      (1.0, 1.0), C=1.0), vocab)
        before = path.read_bytes()
        monkeypatch.setattr(citecorpus, "open", disk_full_on("model.json"), raising=False)
        with pytest.raises(OSError, match="No space left on device"):
            save_model(path, train_logreg(CSR.from_dense([[2.0], [-1.0]]), [1, 0],
                                          (1.0, 1.0)), vocab)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999", "1" + "0" * 400],
                             ids=["nan", "inf", "-inf", "1e999", "int-beyond-float"])
    @pytest.mark.parametrize("key", ["bias", "weights", "C", "grad_max"])
    def test_non_finite_number_rejected_naming_the_key(self, tmp_path, key, token):
        model = train_logreg(CSR.from_dense([[1.0], [-1.0]]), [1, 0], (1.0, 1.0), C=1.0)
        path = tmp_path / "model.json"
        save_model(path, model, stub_vocabulary(1))
        payload = json.loads(path.read_text())
        payload["model"][key] = ["__value__"] if key == "weights" else "__value__"
        path.write_text(json.dumps(payload).replace('"__value__"', token))
        with pytest.raises(ValueError) as exc:
            load_model(path)
        assert str(exc.value) == f"{path}: key {key!r} holds a number that is not finite"

    def test_non_finite_number_is_not_written(self, tmp_path):
        path = tmp_path / "model.json"
        vocab = stub_vocabulary(1)
        save_model(path, train_logreg(CSR.from_dense([[1.0], [-1.0]]), [1, 0],
                                      (1.0, 1.0), C=1.0), vocab)
        before = path.read_bytes()
        model = LinearModel(weights=np.array([0.5]), bias=float("nan"),
                            class_weights=(1.0, 1.0), C=1.0)
        with pytest.raises(ValueError, match="not JSON compliant") as exc:
            save_model(path, model, vocab)
        assert str(exc.value).startswith(f"{path}: ")
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]

    @pytest.mark.parametrize("pu", [False, True], ids=["linear", "pu"])
    def test_missing_vocabulary_rejected_naming_the_key(self, tmp_path, pu):
        X, _, s = pu_blobs(3004, n_pos=200, n_neg=400)
        model = train_pu(X, s, seed=1) if pu else train_logreg(X, s, (1.0, 1.0))
        path = tmp_path / "model.json"
        save_model(path, model, stub_vocabulary(2))
        payload = json.loads(path.read_text())
        del payload["vocabulary"]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError) as exc:
            load_model(path)
        assert str(exc.value) == f"{path}: key 'vocabulary' is missing or mistyped"

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format_version": 99, "kind": "linear"}')
        with pytest.raises(ValueError):
            load_model(path)

    @pytest.mark.parametrize("later", [False, True], ids=["alone", "then-another"])
    @pytest.mark.parametrize("entry,problem", [
        ([11, True], "is missing or mistyped"), ([11.0, 2], "is missing or mistyped"),
        ("11,2", "is missing or mistyped"), (None, "is missing or mistyped"),
        ({"11": 2}, "is missing or mistyped"), ([11, 2, 1], "must hold two integers"),
        ([11], "must hold two integers"), ([], "must hold two integers"),
        ([11, 0], "document frequency 0 is not in 1..40"),
        ([11, 41], "document frequency 41 is not in 1..40"),
        ([11, 10**400], f"document frequency {10**400} is not in 1..40")])
    def test_first_bad_vocabulary_entry_is_named(self, tmp_path, entry, problem, later):
        # One bad entry in the middle, alone or with another after it: the
        # first is named.
        vocab = Vocabulary({f"t{i:02d}": (i, 1 + i % 40) for i in range(30)}, total_docs=40)
        path = tmp_path / "model.json"
        save_model(path, LinearModel(weights=np.zeros(30), bias=0.0, class_weights=(1, 1),
                                     C=1.0), vocab)
        payload = json.loads(path.read_text())
        payload["vocabulary"]["terms"]["t11"] = entry
        if later:
            payload["vocabulary"]["terms"]["t20"] = [20, -1] if entry != [11, 0] else "x"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError) as exc:
            load_model(path)
        separator = ":" if problem.startswith("document") else ""
        assert str(exc.value) == f"{path}: key 't11'{separator} {problem}"


class TestImbalancedWeighting:
    def test_weighted_recall_beats_unweighted(self):
        X, y = imbalanced_blobs(2000, n=4000)
        weighted = train_logreg(X, y, compute_class_weights(list(y)), C=1.0)
        unweighted = train_logreg(X, y, (1.0, 1.0), C=1.0)
        assert recall_of(predict(weighted, X), y) > recall_of(predict(unweighted, X), y)
