"""TF-IDF features, class-weighted logistic regression, and PU learning.

One feature path: callers ``tokenize`` each sentence once; ``fit_vocabulary``
counts document frequencies over those token lists and ``featurize`` turns
them into a CSR matrix, one TF-IDF row per document. Training and prediction
take that matrix, or any array scipy converts to one.

Training minimizes the class-weighted log loss plus ||w||^2 / (2C) with
scipy's L-BFGS-B from a zero start. The objective is scaled by 1/N, which
leaves the minimizer where it is and gives the stopping tolerances the same
meaning at any dataset size. The optimizer has no random choices, so
identical inputs give bitwise-identical parameters. Every fitted model
records its iteration count, the largest gradient component of the unscaled
objective at the end, and whether L-BFGS-B reported convergence. The loss,
gradient and the positive-unlabeled scheme are implemented here; the
positive-unlabeled fit trains on soft targets, one row per sample.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

from . import DEFAULT_C, atomic_write

_NUMBER = (int, float)

# L-BFGS-B stopping rule, on the objective scaled by 1/N.
_MAX_ITERATIONS = 1000
_FTOL = 1e-13
_GTOL = 1e-10

# Share of the labeled positives that PU training holds out to estimate c.
_PU_HOLDOUT_FRACTION = 0.2


class TrainingError(RuntimeError):
    pass


@dataclass(frozen=True)
class Vocabulary:
    """Term -> (dense index, document frequency) plus the corpus size."""

    terms: dict[str, tuple[int, int]]
    total_docs: int

    def __len__(self) -> int:
        return len(self.terms)


def fit_vocabulary(
    docs: Iterable[Sequence[str]], min_df: int = 1, max_features: int | None = None
) -> Vocabulary:
    """Build a vocabulary from the document frequencies of tokenized documents.

    Terms with df < min_df are dropped; with ``max_features`` set, the most
    frequent terms are kept, ties broken lexicographically. Retained terms
    get dense indices in lexicographic order.
    """
    df: Counter[str] = Counter()
    total_docs = 0
    for tokens in docs:
        total_docs += 1
        df.update(set(tokens))
    if total_docs == 0:
        raise TrainingError("cannot fit a vocabulary on an empty corpus")

    kept = [(term, count) for term, count in df.items() if count >= min_df]
    if max_features is not None:
        kept.sort(key=lambda item: (-item[1], item[0]))
        kept = kept[:max_features]
    if not kept:
        raise TrainingError(
            f"vocabulary is empty (min_df={min_df} over {total_docs} documents)")
    kept.sort(key=lambda item: item[0])
    return Vocabulary(
        terms={term: (index, count) for index, (term, count) in enumerate(kept)},
        total_docs=total_docs,
    )


def featurize(docs: Iterable[Sequence[str]], vocab: Vocabulary) -> sp.csr_matrix:
    """One L2-normalized smooth TF-IDF row per tokenized document.

    weight(t) = tf(t) * (ln((1 + N) / (1 + df(t))) + 1), then each row is
    scaled to unit L2 norm, summed over its terms in index order.
    Out-of-vocabulary tokens are ignored; a document with no in-vocabulary
    term gives an empty row. The matrix is (n_docs, len(vocab)).
    """
    idf = {term: (index, math.log((1 + vocab.total_docs) / (1 + df)) + 1.0)
           for term, (index, df) in vocab.terms.items()}
    indptr = [0]
    indices: list[int] = []
    data: list[float] = []
    for tokens in docs:
        row = sorted((entry[0], tf * entry[1]) for term, tf in Counter(tokens).items()
                     if (entry := idf.get(term)) is not None)
        norm = math.sqrt(sum(w * w for _, w in row))
        indices.extend(i for i, _ in row)
        data.extend(w / norm for _, w in row)
        indptr.append(len(indices))
    return sp.csr_matrix(
        (np.asarray(data, dtype=float), np.asarray(indices, dtype=np.int32),
         np.asarray(indptr, dtype=np.int32)),
        shape=(len(indptr) - 1, len(vocab)),
    )


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
    missing or mistyped, or when weights, n_features and vocabulary disagree."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
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
