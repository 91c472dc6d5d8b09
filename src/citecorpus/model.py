"""TF-IDF features, class-weighted logistic regression, and PU learning.

One feature path. Callers ``tokenize`` each sentence once and hand the token
lists to ``count_tokens``, which builds one CSR count matrix over global term
ids, assigned in sorted term order. ``fit_vocabulary`` takes its document
frequencies from the column counts of the rows it is given. ``featurize``
maps each counted term to its vocabulary index and idf and divides each row
by its norm. Matrices are ``CSR``: three plain numpy arrays, and nothing
here loads scipy. Training and prediction take such a matrix.

``predict`` computes each margin X.w + b by adding a row's products left to
right, as scipy's CSR matvec does, and calls a row positive when its margin
is at least -3.3306690738754686e-16, the smallest double at which scipy's
``expit`` reaches 0.5: the same labels as ``expit(margin) >= 0.5``.
``predict_proba`` is 1 / (1 + exp(-margin)) on numpy's exp, within two ulps
of ``expit``.

Training minimizes the class-weighted log loss plus ||w||^2 / (2C) from a
zero start over [w, b] by line-search Newton-CG (Nocedal and Wright,
Algorithm 7.1). Each step solves H p = -g by conjugate gradients to a
residual of min(0.5, sqrt(|g|)) |g|, each Hessian-vector product being two
CSR products, then halves the step from 1 until Armijo's sufficient-decrease
test holds, or, where the objective no longer changes beyond rounding, until
the gradient shrinks. The objective is scaled by 1/N, which leaves the
minimizer where it is and gives the stopping rule the same meaning at any
dataset size: a fit has converged when no gradient component exceeds 1e-10,
and it stops there, after 1000 Newton steps, or when no step along the
direction helps. Every objective evaluation goes through
``loss_and_gradient``. Every fitted model records its Newton step count, the
largest gradient component of the unscaled objective at the end, and
whether it converged. The solver has no random choices and its sparse
products add in a fixed order, so identical inputs give bitwise-identical
parameters on any machine with the same numpy and CPU vector extensions
(numpy picks its exp kernel by them), as long as BLAS runs on one thread:
a threaded BLAS splits dot products by thread count, and the weights then
move in the last bits with the number of cores. This module
therefore sets ``OPENBLAS_NUM_THREADS`` to 1 before numpy loads, unless the
environment already sets it. The positive-unlabeled fit trains on soft
targets, one row per sample.
"""

from __future__ import annotations

import json
import math
import os
from array import array
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from operator import itemgetter
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from . import DEFAULT_C, write_json
from .ingest import read_lines

# A threaded BLAS sums dot products in per-thread chunks, so fitted weights
# (and the model files) would depend on the host's core count. The fits here
# are small enough that one thread is also faster. This takes effect only if
# numpy has not been imported yet, which holds for the CLI.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

_NUMBER = (int, float)

# The index type of every CSR here.
_INDEX = np.int32

# The smallest double at which scipy's expit (1.17.1) reaches 0.5.
_POSITIVE_MARGIN = -3.3306690738754686e-16

# Newton-CG stopping rule: at most this many Newton steps, and done when no
# gradient component of the objective scaled by 1/N exceeds _GTOL.
_MAX_ITERATIONS = 1000
_GTOL = 1e-10

# Armijo's sufficient-decrease constant, and the most halvings of one step.
_ARMIJO = 1e-4
_MAX_HALVINGS = 40

# Share of the labeled positives that PU training holds out to estimate c.
_PU_HOLDOUT_FRACTION = 0.2


class TrainingError(RuntimeError):
    pass


def _indptr(lengths: np.ndarray) -> np.ndarray:
    """Row offsets for rows of these lengths."""
    indptr = np.zeros(len(lengths) + 1, dtype=_INDEX)
    np.cumsum(lengths, out=indptr[1:])
    return indptr


@dataclass(frozen=True, eq=False)
class CSR:
    """A sparse matrix in compressed sparse row form, as plain numpy arrays:
    row i holds ``data[indptr[i]:indptr[i + 1]]`` in the columns
    ``indices[indptr[i]:indptr[i + 1]]``, ascending."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple[int, int]

    @classmethod
    def from_dense(cls, array) -> CSR:
        """The nonzero entries of a 2-D array."""
        dense = np.asarray(array, dtype=float)
        if dense.ndim != 2:
            raise ValueError(f"expected a 2-D array, got {dense.ndim} dimensions")
        rows, columns = np.nonzero(dense)
        return cls(dense[rows, columns], columns.astype(_INDEX),
                   _indptr(np.count_nonzero(dense, axis=1)), dense.shape)

    def __len__(self) -> int:
        return self.shape[0]

    def __getitem__(self, rows) -> CSR:
        """The rows at ``rows`` (an index array, a boolean mask or a slice),
        in that order."""
        rows = np.arange(len(self))[rows]
        starts = self.indptr[rows]
        lengths = self.indptr[rows + 1] - starts
        indptr = _indptr(lengths)
        take = np.repeat(starts - indptr[:-1], lengths) + np.arange(indptr[-1])
        return CSR(self.data[take], self.indices[take], indptr, (len(rows), self.shape[1]))

    @cached_property
    def row_of_entry(self) -> np.ndarray:
        """The row of each stored value, computed once per matrix (read-only)."""
        rows = np.repeat(np.arange(len(self)), np.diff(self.indptr))
        rows.flags.writeable = False
        return rows

    def dot(self, vector: np.ndarray) -> np.ndarray:
        """The product with ``vector``: each row's products added left to
        right from 0.0, as scipy's CSR matvec adds them, to the same bits."""
        # Like scipy's C loop, an overflow or inf * 0 is no warning.
        with np.errstate(over="ignore", invalid="ignore"):
            products = self.data * vector[self.indices]
        return np.bincount(self.row_of_entry, weights=products, minlength=len(self))

    def transpose_dot(self, vector: np.ndarray) -> np.ndarray:
        """The product of this matrix's transpose with ``vector``, one value
        per row: each column's products added in storage order from 0.0, as
        scipy's ``A.T @ vector`` adds them, to the same bits."""
        with np.errstate(over="ignore", invalid="ignore"):
            products = self.data * vector[self.row_of_entry]
        return np.bincount(self.indices, weights=products, minlength=self.shape[1])


@dataclass(frozen=True, eq=False)
class TokenCounts:
    """How often each term occurs in each document: row d of ``matrix``
    holds in column j the count of ``terms[j]`` in document d. ``terms`` is
    sorted, so column order is term order."""

    terms: list[str]
    matrix: CSR

    def __len__(self) -> int:
        return len(self.matrix)

    def rows(self, index) -> TokenCounts:
        """The documents at ``index`` (an index array or a slice), in that order."""
        return TokenCounts(self.terms, self.matrix[index])

    @cached_property
    def column_of(self) -> Mapping[str, int]:
        """Term -> column, computed once per matrix (read-only)."""
        return MappingProxyType(dict(zip(self.terms, range(len(self.terms)))))


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
    if len(ids) > np.iinfo(_INDEX).max:
        raise TrainingError(f"{len(ids)} tokens are more than a count matrix holds")
    terms = sorted(first_seen)
    first = np.fromiter(map(first_seen.__getitem__, terms), dtype=np.int64, count=len(terms))
    rank = np.empty(len(terms), dtype=np.int64)
    rank[first] = np.arange(len(terms))
    # One key per (document, column), sorted by document, then column.
    n_docs = len(indptr) - 1
    doc = np.repeat(np.arange(n_docs), np.diff(np.frombuffer(indptr, dtype=np.int64)))
    keys, counts = np.unique(doc * len(terms) + rank[np.frombuffer(ids, dtype=np.int32)],
                             return_counts=True)
    rows, columns = np.divmod(keys, max(len(terms), 1))
    matrix = CSR(counts.astype(_INDEX), columns.astype(_INDEX),
                 _indptr(np.bincount(rows, minlength=n_docs)), (n_docs, len(terms)))
    return TokenCounts(terms, matrix)


@dataclass(frozen=True, eq=False)
class SentenceTable:
    """One row per sentence, in dataset order: its token counts, 0/1 ``label``
    and ``group``, the code ``groups`` gives its paragraph's (field, split)."""

    counts: TokenCounts
    label: np.ndarray
    group: np.ndarray
    groups: dict[tuple[str, str], int]

    def rows(self, field: str | None = None, split: str = "all") -> np.ndarray:
        """The indices of the rows in ``field`` (None for every field) and
        ``split`` ("all" for every split); a ValueError when there are none."""
        wanted = [code for (name, part), code in self.groups.items()
                  if field in (None, name) and split in ("all", part)]
        found = np.flatnonzero(np.isin(self.group, wanted))
        if not found.size:
            where = "dataset" if field is None else f"field {field!r}"
            raise ValueError(f"{where} has no sentences for split {split!r}")
        return found


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
        terms={counts.terms[column]: (index, count)
               for index, (column, count) in enumerate(zip(kept.tolist(), df[kept].tolist()))},
        total_docs=total_docs,
    )


def featurize(counts: TokenCounts, vocab: Vocabulary) -> CSR:
    """One L2-normalized smooth TF-IDF row per row of ``counts``.

    weight(t) = tf(t) * (ln((1 + N) / (1 + df(t))) + 1), then each row is
    divided by its L2 norm, its squares added one after another in index
    order. Out-of-vocabulary terms are ignored; a document with no
    in-vocabulary term gives an empty row. The matrix is (n_docs, len(vocab)),
    each row sorted by index.
    """
    # Each column's vocabulary index (-1 out of vocabulary) and idf, stored
    # by whole-array assignments: no per-term numpy scalars or tuples. The
    # idf takes math.log, the bits that model files and grids hold, once per
    # distinct document frequency, on Python ints: a loaded vocabulary's
    # counts may outgrow int64.
    column = np.fromiter(map(counts.column_of.get, vocab.terms, repeat(-1)),
                         dtype=np.int64, count=len(vocab))
    found = column >= 0
    pairs = vocab.terms.values()
    dfs = list(map(itemgetter(1), pairs))
    total = 1 + vocab.total_docs
    idf_of = {df: math.log(total / (1 + df)) + 1.0 for df in set(dfs)}
    index_of = np.full(len(counts.terms), -1, dtype=np.int64)
    index_of[column[found]] = np.fromiter(map(itemgetter(0), pairs), dtype=np.int64,
                                          count=len(vocab))[found]
    idf = np.zeros(len(counts.terms))
    idf[column[found]] = np.fromiter(map(idf_of.__getitem__, dfs), dtype=float,
                                     count=len(vocab))[found]
    matrix = counts.matrix
    index = index_of[matrix.indices]
    kept = np.flatnonzero(index >= 0)
    rows, index, columns = matrix.row_of_entry[kept], index[kept], matrix.indices[kept]
    data = matrix.data[kept] * idf[columns]
    # A row's columns are in term order; its indices are too unless the
    # vocabulary (as load_model allows) numbers its terms in another order.
    mapped = index_of[index_of >= 0]
    if np.any(mapped[1:] < mapped[:-1]):
        order = np.argsort(rows * len(vocab) + index, kind="stable")
        rows, index, data = rows[order], index[order], data[order]

    # bincount adds each row's squares left to right, the sequential sum the
    # model files depend on; pairwise sums (np.add.reduceat) round differently.
    norms = np.sqrt(np.bincount(rows, weights=data * data, minlength=len(counts)))
    data /= norms[rows]
    return CSR(data, index.astype(_INDEX), _indptr(np.bincount(rows, minlength=len(counts))),
               (len(counts), len(vocab)))


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
    # Fit report; None for models built by hand or read from older files.
    iterations: int | None = None
    grad_max: float | None = None
    converged: bool | None = None


@dataclass(eq=False)
class PUModel:
    """Two-stage positive-unlabeled classifier."""

    labeling_model: LinearModel
    c_estimate: float
    final_model: LinearModel


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)), elementwise; 0.0 where exp(-z) overflows."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


def loss_and_gradient(
    weights: np.ndarray,
    bias: float,
    X: CSR,
    y: np.ndarray,
    sample_weight: np.ndarray,
    C: float,
) -> tuple[float, np.ndarray, float]:
    """Sample-weighted negative log-likelihood with L2 penalty ||w||^2 / (2C),
    and its analytic gradient, over the rows of ``X``. Targets ``y`` may be
    soft, in [0, 1]."""
    z = X.dot(weights) + bias
    # -log sigma(z) = logaddexp(0, -z); numerically stable on both tails.
    nll = y * np.logaddexp(0.0, -z) + (1.0 - y) * np.logaddexp(0.0, z)
    loss = float(np.dot(sample_weight, nll) + np.dot(weights, weights) / (2.0 * C))
    residual = sample_weight * (_sigmoid(z) - y)
    return loss, X.transpose_dot(residual) + weights / C, float(residual.sum())


def _hessian_product(X: CSR, v: np.ndarray, sample_weight: np.ndarray, C: float):
    """d -> H d, H being the Hessian of ``loss_and_gradient``'s objective
    over [w, b] at ``v``: [X 1]^T diag(s * sigma * (1 - sigma)) [X 1] plus I/C
    on the w block. Each product is two CSR products; H is never formed."""
    sigma = _sigmoid(X.dot(v[:-1]) + v[-1])
    curvature = sample_weight * sigma * (1.0 - sigma)

    def times(d: np.ndarray) -> np.ndarray:
        u = curvature * (X.dot(d[:-1]) + d[-1])
        return np.append(X.transpose_dot(u) + d[:-1] / C, u.sum())

    return times


def _newton_direction(hessian_times, gradient: np.ndarray) -> np.ndarray:
    """An inexact solution p of H p = -gradient by conjugate gradients
    (Nocedal and Wright, Algorithm 7.1). CG stops once the residual is below
    min(0.5, sqrt(|g|)) |g|, which makes Newton's convergence superlinear,
    on a direction of no curvature, or after len(gradient) steps."""
    norm = math.sqrt(np.dot(gradient, gradient))
    tolerance = min(0.5, math.sqrt(norm)) * norm
    p = np.zeros_like(gradient)
    r, d = gradient, -gradient
    rr = np.dot(r, r)
    for _ in range(len(gradient)):
        hd = hessian_times(d)
        curve = np.dot(d, hd)
        if curve <= 0.0:
            break
        alpha = rr / curve
        p = p + alpha * d
        r = r + alpha * hd
        rr, previous = np.dot(r, r), rr
        if math.sqrt(rr) <= tolerance:
            break
        d = -r + (rr / previous) * d
    return p if p.any() else -gradient


def train_logreg(
    X: CSR,
    labels: Sequence[float],
    class_weights: tuple[float, float],
    C: float = DEFAULT_C,
) -> LinearModel:
    """Fit weighted logistic regression with line-search Newton-CG.

    Minimizes the class-weighted negative log-likelihood with an L2 penalty
    of ||w||^2 / (2C), scaled by 1/N, from a zero start over ``[w, b]``.
    Labels may be soft targets in [0, 1], used with class weights (1, 1):
    a row with target q costs q * L1 + (1 - q) * L0. Raises TrainingError
    before optimizing when a feature value is not finite. The procedure has
    no random choices.
    """
    if C <= 0:
        raise ValueError("C must be positive")
    y = np.asarray(labels, dtype=float)
    n = y.shape[0]
    if n != len(X):
        raise ValueError(f"{len(X)} feature rows but {n} labels")
    w_pos, w_neg = class_weights
    weight = np.where(y == 1.0, w_pos, w_neg)
    bad = np.flatnonzero(~np.isfinite(X.data))
    if bad.size:
        row = int(np.searchsorted(X.indptr, bad[0], side="right")) - 1
        raise TrainingError(f"feature value in row {row} is not finite")

    def objective(v: np.ndarray) -> tuple[float, np.ndarray]:
        loss, grad_w, grad_b = loss_and_gradient(v[:-1], float(v[-1]), X, y, weight, C)
        return loss / n, np.append(grad_w, grad_b) / n

    v = np.zeros(X.shape[1] + 1)
    f, g = objective(v)
    iterations = 0
    while np.max(np.abs(g)) > _GTOL and iterations < _MAX_ITERATIONS:
        # The scaled objective is the unscaled one with weights s/N and C*N.
        p = _newton_direction(_hessian_product(X, v, weight / n, C * n), g)
        step, slope = 1.0, float(np.dot(g, p))
        for _ in range(_MAX_HALVINGS):
            v_new = v + step * p
            f_new, g_new = objective(v_new)
            # Armijo's test; within rounding of f it cannot tell, and a step
            # that shrinks the gradient is taken instead.
            if (f_new <= f + _ARMIJO * step * slope
                    or (abs(f_new - f) <= 4 * np.finfo(float).eps * abs(f)
                        and np.max(np.abs(g_new)) < np.max(np.abs(g)))):
                break
            step /= 2
        else:
            break  # no step along p helps: the fit is at its rounding floor
        v, f, g = v_new, f_new, g_new
        iterations += 1
    grad_max = float(np.max(np.abs(g)))
    return LinearModel(weights=v[:-1], bias=float(v[-1]),
                       class_weights=(float(w_pos), float(w_neg)), C=float(C),
                       iterations=iterations, grad_max=grad_max * n,
                       converged=grad_max <= _GTOL)


def _margin(model: LinearModel, X: CSR) -> np.ndarray:
    """X.w + b, one per feature row."""
    if X.shape[1] != len(model.weights):
        raise ValueError(f"model expects {len(model.weights)} features, got {X.shape[1]}")
    return X.dot(model.weights) + model.bias


def predict_proba(model: LinearModel, X: CSR) -> np.ndarray:
    """Positive-class probabilities, one per feature row."""
    return _sigmoid(_margin(model, X))


def predict(model: LinearModel, X: CSR) -> np.ndarray:
    """Binary labels: positive iff probability >= 0.5, that is, iff the
    margin is at least the one where scipy's expit reaches 0.5."""
    return (_margin(model, X) >= _POSITIVE_MARGIN).astype(int)


def train_pu(
    X: CSR,
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
    s = np.asarray(observed_labels, dtype=int)
    if s.shape[0] != len(X):
        raise ValueError(f"{len(X)} feature rows but {s.shape[0]} labels")
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
        "n_features": len(model.weights),
    }
    for key in _FIT_REPORT:
        if getattr(model, key) is not None:
            record[key] = getattr(model, key)
    return record


def _is(value: object, kind: type | tuple[type, ...]) -> bool:
    """``isinstance``, except that a bool is only ever a bool."""
    return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))


def _finite(number: int | float) -> bool:
    try:
        return math.isfinite(number)
    except OverflowError:  # an integer beyond the float range
        return False


def _pull(record: object, key: str, kind: type | tuple[type, ...], items=None):
    """``record[key]``: a ``kind``, holding only ``items`` when given. A bool
    is never a number here, and a number must be finite."""
    value = record.get(key) if isinstance(record, dict) else None
    if not _is(value, kind) or (items is not None and not all(_is(x, items) for x in value)):
        raise ValueError(f"key {key!r} is missing or mistyped")
    if _NUMBER in (kind, items) and not all(map(_finite, value if items else [value])):
        raise ValueError(f"key {key!r} holds a number that is not finite")
    return value


def _pull_pair(record: object, key: str, items: type | tuple[type, ...], what: str) -> list:
    """``_pull(record, key, list, items)``, holding exactly two ``what``."""
    pair = _pull(record, key, list, items)
    if len(pair) != 2:
        raise ValueError(f"key {key!r} must hold two {what}")
    return pair


def _linear_from_record(record: object) -> LinearModel:
    weights = _pull(record, "weights", list, _NUMBER)
    n_features = _pull(record, "n_features", int)
    if len(weights) != n_features:
        raise ValueError(f"{len(weights)} weights but n_features={n_features}")
    w_pos, w_neg = _pull_pair(record, "class_weights", _NUMBER, "numbers")
    # The fit report is optional: files written before it existed lack it.
    report = {key: _pull(record, key, kind) for key, kind in _FIT_REPORT.items()
              if key in record}
    return LinearModel(
        weights=np.asarray(weights, dtype=float),
        bias=float(_pull(record, "bias", _NUMBER)),
        class_weights=(float(w_pos), float(w_neg)),
        C=float(_pull(record, "C", _NUMBER)),
        **report,
    )


def _vocabulary_from_record(record: object) -> Vocabulary:
    """The vocabulary, with ``total_docs`` at least 1 and each term's
    document frequency in 1..total_docs, which keeps every idf finite."""
    raw = _pull(record, "terms", dict)
    total_docs = _pull(record, "total_docs", int)
    if total_docs < 1:
        raise ValueError(f"key 'total_docs' must be at least 1, got {total_docs}")
    pairs = list(raw.values())
    # Checked all at once, and on a fault term by term, to name the first
    # bad key.
    if not (set(map(type, pairs)) <= {list} and set(map(len, pairs)) <= {2}
            and set(map(type, chain.from_iterable(pairs))) <= {int}
            and 1 <= min(dfs := list(map(itemgetter(1), pairs)), default=1)
            and max(dfs, default=1) <= total_docs):
        for term in raw:
            _, df = _pull_pair(raw, term, int, "integers")
            if not 1 <= df <= total_docs:
                raise ValueError(
                    f"key {term!r}: document frequency {df} is not in 1..{total_docs}")
    if sorted(map(itemgetter(0), pairs)) != list(range(len(pairs))):
        raise ValueError(f"vocabulary indices are not exactly 0..{len(pairs) - 1}")
    return Vocabulary(terms=dict(zip(raw, map(tuple, pairs))), total_docs=total_docs)


def save_model(path: str | Path, model: LinearModel | PUModel, vocab: Vocabulary) -> None:
    """Write a versioned model container with the vocabulary its features
    come from; float round-trips are exact, and a number that is not finite
    is a ValueError naming the file.

    The JSON goes through ``write_json``, so an interrupted write never
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
    payload["vocabulary"] = {
        "total_docs": vocab.total_docs,
        "terms": {term: [index, df] for term, (index, df) in vocab.terms.items()},
    }
    write_json(path, [payload])


def load_model(path: str | Path) -> tuple[LinearModel | PUModel, Vocabulary]:
    """Read a model container and its vocabulary; raise ValueError naming
    the file when a key (the vocabulary too) is missing, mistyped, holds a
    number that is not finite or a vocabulary count out of range, or when
    weights, n_features and vocabulary disagree, and naming the line too
    when a byte is not UTF-8."""
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
            widths = {len(model.labeling_model.weights), len(model.final_model.weights)}
        elif kind == "linear":
            model = _linear_from_record(_pull(payload, "model", dict))
            widths = {len(model.weights)}
        else:
            raise ValueError(f"unknown model kind {kind!r}")
        vocab = _vocabulary_from_record(_pull(payload, "vocabulary", dict))
        if widths != {len(vocab)}:
            raise ValueError(f"n_features is not the vocabulary size {len(vocab)}")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return model, vocab
