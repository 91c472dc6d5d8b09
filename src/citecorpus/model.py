"""TF-IDF features, class-weighted logistic regression, and PU learning.

One feature path. Callers ``tokenize`` each sentence once and hand the token
lists to ``count_tokens``, which builds one CSR count matrix over global term
ids, assigned in sorted term order. ``fit_vocabulary`` takes its document
frequencies from the column counts of the rows it is given. ``featurize``
multiplies the counts by a column map holding each vocabulary term's idf and
takes the row norms with a CSR matvec. Training and prediction take the
resulting matrix, or any array scipy converts to one.

Training minimizes the class-weighted log loss plus ||w||^2 / (2C) with
scipy's L-BFGS-B from a zero start. The objective is scaled by 1/N, which
leaves the minimizer where it is and gives the stopping tolerances the same
meaning at any dataset size. The optimizer has no random choices, so
identical inputs give bitwise-identical parameters on any machine with the
same numpy and scipy, as long as BLAS runs on one thread: a threaded BLAS
splits dot products by thread count, and the weights then move in the last
bits with the number of cores.
This module therefore sets ``OPENBLAS_NUM_THREADS`` to 1 before numpy loads,
unless the environment already sets it. Every fitted model records its
iteration count, the largest gradient component of the unscaled objective
at the end, and whether L-BFGS-B reported convergence. The loss, gradient
and the positive-unlabeled scheme are implemented here; the
positive-unlabeled fit trains on soft targets, one row per sample.
"""

from __future__ import annotations

import json
import math
import os
from array import array
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from . import DEFAULT_C, atomic_write
from .ingest import read_lines

# A threaded BLAS sums dot products in per-thread chunks, so fitted weights
# (and the model files) would depend on the host's core count. The fits here
# are small enough that one thread is also faster. This takes effect only if
# numpy has not been imported yet, which holds for the CLI.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import scipy.sparse as sp  # noqa: E402
from scipy.special import expit  # noqa: E402

_NUMBER = (int, float)

# L-BFGS-B stopping rule, on the objective scaled by 1/N.
_MAX_ITERATIONS = 1000
_FTOL = 1e-13
_GTOL = 1e-10

# Share of the labeled positives that PU training holds out to estimate c.
_PU_HOLDOUT_FRACTION = 0.2


class TrainingError(RuntimeError):
    pass


@dataclass(frozen=True, eq=False)
class TokenCounts:
    """How often each term occurs in each document: ``matrix[d, j]`` counts
    ``terms[j]`` in document d. ``terms`` is sorted, so column order is term
    order, and each row's columns are sorted."""

    terms: list[str]
    matrix: sp.csr_matrix

    def __len__(self) -> int:
        return self.matrix.shape[0]

    def rows(self, index) -> TokenCounts:
        """The documents at ``index`` (an index array or a slice), in that order."""
        return TokenCounts(self.terms, self.matrix[index])


def count_tokens(docs: Iterable[Sequence[str]]) -> TokenCounts:
    """Count the terms of each tokenized document into one CSR row."""
    # Looking up a new term gives it the next id.
    first_seen: defaultdict[str, int] = defaultdict()
    first_seen.default_factory = first_seen.__len__
    ids = array("i")
    indptr = array("q", [0])
    for tokens in docs:
        ids.extend(map(first_seen.__getitem__, tokens))
        indptr.append(len(ids))
    terms = sorted(first_seen)
    rank = np.empty(len(terms), dtype=np.int32)
    rank[[first_seen[term] for term in terms]] = np.arange(len(terms), dtype=np.int32)
    matrix = sp.csr_matrix(
        (np.ones(len(ids), dtype=np.int32), rank[np.frombuffer(ids, dtype=np.int32)],
         np.frombuffer(indptr, dtype=np.int64)),
        shape=(len(indptr) - 1, len(terms)))
    matrix.sum_duplicates()
    return TokenCounts(terms, matrix)


@dataclass(frozen=True)
class Vocabulary:
    """Term -> (dense index, document frequency) plus the corpus size."""

    terms: dict[str, tuple[int, int]]
    total_docs: int

    def __len__(self) -> int:
        return len(self.terms)


def fit_vocabulary(
    counts: TokenCounts, min_df: int = 1, max_features: int | None = None
) -> Vocabulary:
    """Build a vocabulary from the document frequencies of ``counts``' rows.

    Terms with df < min_df are dropped; with ``max_features`` set, the most
    frequent terms are kept, ties broken lexicographically. Retained terms
    get dense indices in lexicographic order.
    """
    total_docs = len(counts)
    if total_docs == 0:
        raise TrainingError("cannot fit a vocabulary on an empty corpus")
    df = np.bincount(counts.matrix.indices, minlength=len(counts.terms))
    # Terms absent from these rows have df 0 and never count as seen.
    kept = np.flatnonzero(df >= max(min_df, 1))
    if max_features is not None:
        # A stable sort on -df leaves ties in column order, which is term order.
        kept = np.sort(kept[np.argsort(-df[kept], kind="stable")][:max_features])
    if not kept.size:
        raise TrainingError(
            f"vocabulary is empty (min_df={min_df} over {total_docs} documents)")
    return Vocabulary(
        terms={counts.terms[column]: (index, int(df[column]))
               for index, column in enumerate(kept.tolist())},
        total_docs=total_docs,
    )


def featurize(counts: TokenCounts, vocab: Vocabulary) -> sp.csr_matrix:
    """One L2-normalized smooth TF-IDF row per row of ``counts``.

    weight(t) = tf(t) * (ln((1 + N) / (1 + df(t))) + 1), then each row is
    divided by its L2 norm, its squares added one after another in index
    order. Out-of-vocabulary terms are ignored; a document with no
    in-vocabulary term gives an empty row. The matrix is (n_docs, len(vocab)),
    each row sorted by index.
    """
    # idf(term) at (column of term, index of term): one index per column, so
    # each entry of the product is the single product tf * idf.
    column_of = dict(zip(counts.terms, range(len(counts.terms))))
    columns, indices, idf = [], [], []
    for term, (index, df) in vocab.terms.items():
        column = column_of.get(term)
        if column is not None:
            columns.append(column)
            indices.append(index)
            idf.append(math.log((1 + vocab.total_docs) / (1 + df)) + 1.0)
    scale = sp.csr_matrix((idf, (columns, indices)), shape=(len(counts.terms), len(vocab)))
    X = counts.matrix @ scale
    X.sort_indices()

    # scipy's CSR matvec adds each row's products left to right, the sequential
    # sum the model files depend on; pairwise sums (X.sum(axis=1),
    # np.add.reduceat) round differently.
    norms = np.sqrt(X.multiply(X) @ np.ones(X.shape[1]))
    X.data /= np.repeat(norms, np.diff(X.indptr))
    return X


def compute_class_weights(labels: Sequence[int]) -> tuple[float, float]:
    """Inverse-frequency weights w_c = N / (2 * N_c); (1, 1) when balanced."""
    n = len(labels)
    n_pos = sum(1 for y in labels if y)
    n_neg = n - n_pos
    if n_pos == 0 or n_neg == 0:
        raise TrainingError("both classes must be present to compute class weights")
    return n / (2.0 * n_pos), n / (2.0 * n_neg)


@dataclass(eq=False)
class LinearModel:
    """Weighted logistic regression: sigmoid(weights . x + bias)."""

    weights: np.ndarray
    bias: float
    class_weights: tuple[float, float]
    C: float
    n_features: int
    # Fit report; None for models built by hand or read from older files.
    iterations: int | None = None
    grad_max: float | None = None
    converged: bool | None = None

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=float)


@dataclass(eq=False)
class PUModel:
    """Two-stage positive-unlabeled classifier."""

    labeling_model: LinearModel
    c_estimate: float
    final_model: LinearModel


def loss_and_gradient(
    weights: np.ndarray,
    bias: float,
    X: sp.csr_matrix,
    y: np.ndarray,
    sample_weight: np.ndarray,
    C: float,
) -> tuple[float, np.ndarray, float]:
    """Sample-weighted negative log-likelihood with L2 penalty ||w||^2 / (2C),
    and its analytic gradient. Targets ``y`` may be soft, in [0, 1]."""
    z = X @ weights + bias
    # -log sigma(z) = logaddexp(0, -z); numerically stable on both tails.
    nll = y * np.logaddexp(0.0, -z) + (1.0 - y) * np.logaddexp(0.0, z)
    loss = float(np.dot(sample_weight, nll) + np.dot(weights, weights) / (2.0 * C))
    residual = sample_weight * (expit(z) - y)
    grad_w = X.T @ residual + weights / C
    grad_b = float(residual.sum())
    return loss, np.asarray(grad_w).ravel(), grad_b


def train_logreg(
    X: np.ndarray | sp.spmatrix,
    labels: Sequence[float],
    class_weights: tuple[float, float],
    C: float = DEFAULT_C,
) -> LinearModel:
    """Fit weighted logistic regression with L-BFGS-B.

    Minimizes the class-weighted negative log-likelihood with an L2 penalty
    of ||w||^2 / (2C), scaled by 1/N, from a zero start over ``[w, b]``.
    Labels may be soft targets in [0, 1], used with class weights (1, 1):
    a row with target q costs q * L1 + (1 - q) * L0. Raises TrainingError
    before optimizing when a feature value is not finite. The procedure has
    no random choices.
    """
    # Imported here: it costs ~0.2 s, which commands that never fit skip.
    from scipy.optimize import minimize

    if C <= 0:
        raise ValueError("C must be positive")
    X = sp.csr_matrix(X, dtype=float)
    y = np.asarray(labels, dtype=float)
    n = y.shape[0]
    if n != X.shape[0]:
        raise ValueError(f"{X.shape[0]} feature rows but {n} labels")
    w_pos, w_neg = class_weights
    weight = np.where(y == 1.0, w_pos, w_neg)
    bad = np.flatnonzero(~np.isfinite(X.data))
    if bad.size:
        row = int(np.searchsorted(X.indptr, bad[0], side="right")) - 1
        raise TrainingError(f"feature value in row {row} is not finite")

    def objective(v: np.ndarray) -> tuple[float, np.ndarray]:
        loss, grad_w, grad_b = loss_and_gradient(v[:-1], float(v[-1]), X, y, weight, C)
        return loss / n, np.append(grad_w, grad_b) / n

    result = minimize(objective, np.zeros(X.shape[1] + 1), jac=True, method="L-BFGS-B",
                      options={"maxiter": _MAX_ITERATIONS, "ftol": _FTOL, "gtol": _GTOL})
    return LinearModel(weights=result.x[:-1], bias=float(result.x[-1]),
                       class_weights=(float(w_pos), float(w_neg)), C=float(C),
                       n_features=X.shape[1], iterations=int(result.nit),
                       grad_max=float(np.max(np.abs(result.jac))) * n,
                       converged=bool(result.success))


def predict_proba(model: LinearModel, X: np.ndarray | sp.spmatrix) -> np.ndarray:
    """Positive-class probabilities, one per feature row."""
    X = sp.csr_matrix(X, dtype=float)
    if X.shape[1] != model.n_features:
        raise ValueError(f"model expects {model.n_features} features, got {X.shape[1]}")
    return expit(X @ model.weights + model.bias)


def predict(model: LinearModel, X: np.ndarray | sp.spmatrix) -> np.ndarray:
    """Binary labels: positive iff probability >= 0.5."""
    return (predict_proba(model, X) >= 0.5).astype(int)


def train_pu(
    X: np.ndarray | sp.spmatrix,
    observed_labels: Sequence[int],
    seed: int,
    C: float = DEFAULT_C,
) -> PUModel:
    """Two-stage positive-unlabeled training.

    observed_labels: 1 = labeled positive, 0 = unlabeled. Stage one fits a
    labeled-vs-unlabeled model on everything except a seeded hold-out slice
    of the labeled positives; the mean predicted probability over that slice
    estimates how often a true positive is labeled. Stage two weighs each
    unlabeled sample by q(x) = ((1-c)/c) * g(x)/(1-g(x)), clipped to [0, 1],
    and trains the final model on every sample once, with class weights
    (1, 1): target 1 for labeled positives, soft target q(x) for unlabeled
    ones. Under log loss that is Elkan and Noto's duplication of each
    unlabeled sample (a positive at weight q(x), a negative at 1-q(x)),
    term by term.
    """
    X = sp.csr_matrix(X, dtype=float)
    s = np.asarray(observed_labels, dtype=int)
    if s.shape[0] != X.shape[0]:
        raise ValueError(f"{X.shape[0]} feature rows but {s.shape[0]} labels")
    pos_idx = np.flatnonzero(s == 1)
    unl_idx = np.flatnonzero(s == 0)
    if pos_idx.size == 0:
        raise TrainingError("no labeled positives to hold out")
    if unl_idx.size == 0:
        raise TrainingError("no unlabeled samples")

    rng = np.random.default_rng(seed)
    n_hold = max(1, int(round(_PU_HOLDOUT_FRACTION * pos_idx.size)))
    holdout = np.sort(rng.choice(pos_idx, size=n_hold, replace=False))
    train_mask = np.ones(s.shape[0], dtype=bool)
    train_mask[holdout] = False
    s_train = s[train_mask]
    if s_train.sum() == 0:
        raise TrainingError("no labeled positives left outside the hold-out slice")

    # Stage one stays unweighted: the hold-out estimate needs calibrated
    # probabilities.
    labeling = train_logreg(X[train_mask], s_train, class_weights=(1.0, 1.0), C=C)
    c_estimate = float(predict_proba(labeling, X[holdout]).mean())
    if c_estimate <= 0.0:
        raise TrainingError("labeling-frequency estimate is zero")
    c_estimate = min(c_estimate, 1.0)

    g = predict_proba(labeling, X[unl_idx])
    g = np.clip(g, 1e-12, 1.0 - 1e-12)
    q = np.clip((1.0 - c_estimate) / c_estimate * g / (1.0 - g), 0.0, 1.0)

    targets = np.ones(s.shape[0])
    targets[unl_idx] = q
    final = train_logreg(X, targets, class_weights=(1.0, 1.0), C=C)
    return PUModel(labeling_model=labeling, c_estimate=c_estimate, final_model=final)


_FIT_REPORT = {"iterations": int, "grad_max": _NUMBER, "converged": bool}


def _linear_to_record(model: LinearModel) -> dict:
    record = {
        "weights": [float(x) for x in model.weights],
        "bias": model.bias,
        "class_weights": [model.class_weights[0], model.class_weights[1]],
        "C": model.C,
        "n_features": model.n_features,
    }
    for key in _FIT_REPORT:
        if getattr(model, key) is not None:
            record[key] = getattr(model, key)
    return record


def _is(value: object, kind: type | tuple[type, ...]) -> bool:
    """``isinstance``, except that a bool is only ever a bool."""
    return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))


def _pull(record: object, key: str, kind: type | tuple[type, ...], items=None):
    """``record[key]``: a ``kind``, holding only ``items`` when given. A bool
    is never a number here."""
    value = record.get(key) if isinstance(record, dict) else None
    if not _is(value, kind) or (items is not None and not all(_is(x, items) for x in value)):
        raise ValueError(f"key {key!r} is missing or mistyped")
    return value


def _linear_from_record(record: object) -> LinearModel:
    weights = _pull(record, "weights", list, _NUMBER)
    n_features = _pull(record, "n_features", int)
    if len(weights) != n_features:
        raise ValueError(f"{len(weights)} weights but n_features={n_features}")
    w_pos, w_neg = _pull(record, "class_weights", list, _NUMBER)
    # The fit report is optional: files written before it existed lack it.
    report = {key: _pull(record, key, kind) for key, kind in _FIT_REPORT.items()
              if key in record}
    return LinearModel(
        weights=np.asarray(weights, dtype=float),
        bias=float(_pull(record, "bias", _NUMBER)),
        class_weights=(float(w_pos), float(w_neg)),
        C=float(_pull(record, "C", _NUMBER)),
        n_features=n_features,
        **report,
    )


def _vocabulary_from_record(record: object) -> Vocabulary:
    raw = _pull(record, "terms", dict)
    terms = {}
    for term in raw:
        index, df = _pull(raw, term, list, int)
        terms[term] = (index, df)
    if sorted(index for index, _ in terms.values()) != list(range(len(terms))):
        raise ValueError(f"vocabulary indices are not exactly 0..{len(terms) - 1}")
    return Vocabulary(terms=terms, total_docs=_pull(record, "total_docs", int))


def save_model(
    path: str | Path,
    model: LinearModel | PUModel,
    vocab: Vocabulary | None = None,
) -> None:
    """Write a versioned model container; float round-trips are exact.

    The JSON goes through ``atomic_write``, so an interrupted write never
    leaves a truncated model file.
    """
    payload: dict = {"format_version": 1}
    if isinstance(model, PUModel):
        payload["kind"] = "pu"
        payload["c_estimate"] = model.c_estimate
        payload["labeling_model"] = _linear_to_record(model.labeling_model)
        payload["final_model"] = _linear_to_record(model.final_model)
    else:
        payload["kind"] = "linear"
        payload["model"] = _linear_to_record(model)
    if vocab is not None:
        payload["vocabulary"] = {
            "total_docs": vocab.total_docs,
            "terms": {term: [index, df] for term, (index, df) in vocab.terms.items()},
        }
    with atomic_write(path) as fh:
        json.dump(payload, fh, ensure_ascii=False, sort_keys=True)
        fh.write("\n")


def load_model(path: str | Path) -> tuple[LinearModel | PUModel, Vocabulary | None]:
    """Read a model container; raise ValueError naming the file when a key is
    missing or mistyped, or when weights, n_features and vocabulary disagree,
    and naming the line too when a byte is not UTF-8."""
    text = "".join(line for _, line in read_lines(path))
    try:
        payload = json.loads(text)
        version = _pull(payload, "format_version", int)
        if version != 1:
            raise ValueError(f"unsupported model format version {version!r}")
        kind = _pull(payload, "kind", str)
        if kind == "pu":
            model: LinearModel | PUModel = PUModel(
                labeling_model=_linear_from_record(_pull(payload, "labeling_model", dict)),
                c_estimate=float(_pull(payload, "c_estimate", _NUMBER)),
                final_model=_linear_from_record(_pull(payload, "final_model", dict)),
            )
            widths = {model.labeling_model.n_features, model.final_model.n_features}
        elif kind == "linear":
            model = _linear_from_record(_pull(payload, "model", dict))
            widths = {model.n_features}
        else:
            raise ValueError(f"unknown model kind {kind!r}")
        vocab = None
        if "vocabulary" in payload:
            vocab = _vocabulary_from_record(_pull(payload, "vocabulary", dict))
            if widths != {len(vocab)}:
                raise ValueError(f"n_features is not the vocabulary size {len(vocab)}")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return model, vocab
