"""TF-IDF features, class-weighted logistic regression, and PU learning.

One feature path. Callers ``tokenize`` each sentence once and hand the token
lists to ``count_tokens``, which builds one CSR count matrix over global term
ids, assigned in sorted term order. ``fit_vocabulary`` takes its document
frequencies from the column counts of the rows it is given. A feature's
index is its term's rank among the vocabulary's terms in sorted order, so
``featurize`` keeps each row's column order when it maps each counted term
to its index and idf, and divides each row by its norm. Matrices are
``CSR``: three plain numpy arrays, and nothing here loads scipy. Training
and prediction take such a matrix. ``read_table`` gives a dataset's
``SentenceTable`` through a cache file beside it, keyed by the dataset's
SHA-256 and ``TABLE_VERSION``: a JSON header line, int32 arrays and a
CRC-32, every part checked on load.

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
and it stops there or after 1000 Newton steps. A guard also stops it when
every halving of one step fails the line search; no fit on real data has
been seen to reach it. Every objective evaluation goes through
``loss_and_gradient``, once per iterate: a Newton step's Hessian uses the
probabilities of the iterate's own evaluation, and the stopping rule, the
line search and the fit report read its largest gradient component, so a
fit makes one ``CSR.dot`` for each ``CSR.transpose_dot``. Every fitted
model records its Newton step count, the largest gradient component of the
unscaled objective at the end, and whether it converged. The solver has
no random choices and its sparse products add in a fixed order, so
identical inputs give bitwise-identical parameters on any machine with the
same numpy and CPU vector extensions (numpy picks its exp kernel by them),
as long as BLAS runs on one thread: a threaded BLAS splits dot products by
thread count, and the weights then move in the last bits with the number
of cores. This module therefore sets ``OPENBLAS_NUM_THREADS`` to 1 before
numpy loads, unless the environment already sets it. The positive-unlabeled fit trains on soft
targets, one row per sample.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
import os
import zlib
from array import array
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, repeat
from pathlib import Path
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from . import DEFAULT_C, LABEL_CITE_WORTHY, atomic_write, from_json, read_lines, write_json

if TYPE_CHECKING:
    from .pipeline import ParagraphSample

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

# The version of the table a dataset gives, stored in each table file with
# the dataset's hash. Bump it whenever that table changes for the same bytes
# (the tokenizer, the table's arrays or their layout), so that every table
# file written before the change is a miss.
TABLE_VERSION = 1


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
    and ``group``, the code ``groups`` gives its paragraph's (field, split).
    ``rows`` selects; a command indexes the counts and labels with its rows."""

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
    """The kept terms in sorted order, each one's document frequency, and
    the corpus size. A term's feature index is its position in ``terms``."""

    terms: tuple[str, ...]
    df: tuple[int, ...]
    total_docs: int

    def __len__(self) -> int:
        return len(self.terms)


def fit_vocabulary(
    counts: TokenCounts, min_df: int = 1, max_features: int | None = None
) -> Vocabulary:
    """Build a vocabulary from the document frequencies of ``counts``' rows.

    Terms with df < min_df are dropped; with ``max_features`` set, the most
    frequent terms are kept, ties broken lexicographically.
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
    return Vocabulary(terms=tuple(map(counts.terms.__getitem__, kept.tolist())),
                      df=tuple(df[kept].tolist()), total_docs=total_docs)


def featurize(counts: TokenCounts, vocab: Vocabulary) -> CSR:
    """One L2-normalized smooth TF-IDF row per row of ``counts``.

    weight(t) = tf(t) * (ln((1 + N) / (1 + df(t))) + 1), then each row is
    divided by its L2 norm, its squares added one after another in index
    order. Out-of-vocabulary terms are ignored; a document with no
    in-vocabulary term gives an empty row. The matrix is (n_docs, len(vocab)),
    each row sorted by index: a row's columns are in term order, and so are
    the indices they map to.
    """
    # Each column's vocabulary index (-1 out of vocabulary), stored by
    # whole-array assignments: no per-term numpy scalars or tuples. Each
    # vocabulary term's idf takes math.log, the bits that model files and
    # grids hold, once per distinct document frequency, on Python ints: a
    # loaded vocabulary's counts may outgrow int64.
    column = np.fromiter(map(counts.column_of.get, vocab.terms, repeat(-1)),
                         dtype=np.int64, count=len(vocab))
    found = np.flatnonzero(column >= 0)
    total = 1 + vocab.total_docs
    idf_of = {df: math.log(total / (1 + df)) + 1.0 for df in set(vocab.df)}
    idf = np.fromiter(map(idf_of.__getitem__, vocab.df), dtype=float, count=len(vocab))
    index_of = np.full(len(counts.terms), -1, dtype=np.int64)
    index_of[column[found]] = found
    matrix = counts.matrix
    index = index_of[matrix.indices]
    kept = np.flatnonzero(index >= 0)
    rows, index = matrix.row_of_entry[kept], index[kept]
    data = matrix.data[kept] * idf[index]
    # bincount adds each row's squares left to right, the sequential sum the
    # model files depend on; pairwise sums (np.add.reduceat) round differently.
    norms = np.sqrt(np.bincount(rows, weights=data * data, minlength=len(counts)))
    data /= norms[rows]
    return CSR(data, index.astype(_INDEX), _indptr(np.bincount(rows, minlength=len(counts))),
               (len(counts), len(vocab)))


def compute_class_weights(labels: Sequence[int]) -> tuple[float, float]:
    """Inverse-frequency weights w_c = N / (2 * N_c); (1, 1) when balanced."""
    n = len(labels)
    n_pos = int(np.count_nonzero(labels))
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
    # Fit report: Newton steps, the largest gradient component at the end,
    # and whether that met the stopping rule.
    iterations: int
    grad_max: float
    converged: bool


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
) -> tuple[float, np.ndarray, float, np.ndarray]:
    """Sample-weighted negative log-likelihood with L2 penalty ||w||^2 / (2C),
    its analytic gradient over ``weights`` and over ``bias``, and each row's
    probability sigma(z), over the rows of ``X``. Targets ``y`` may be soft,
    in [0, 1]."""
    z = X.dot(weights) + bias
    # -log sigma(z) = logaddexp(0, -z); numerically stable on both tails.
    nll = y * np.logaddexp(0.0, -z) + (1.0 - y) * np.logaddexp(0.0, z)
    loss = float(np.dot(sample_weight, nll) + np.dot(weights, weights) / (2.0 * C))
    sigma = _sigmoid(z)
    residual = sample_weight * (sigma - y)
    return loss, X.transpose_dot(residual) + weights / C, float(residual.sum()), sigma


def _hessian_product(X: CSR, curvature: np.ndarray, C: float):
    """d -> H d, H being the Hessian of ``loss_and_gradient``'s objective
    over [w, b] at a point where each row's ``curvature`` is s * sigma *
    (1 - sigma): [X 1]^T diag(curvature) [X 1] plus I/C on the w block.
    Each product is two CSR products; H is never formed."""

    def times(d: np.ndarray) -> np.ndarray:
        u = curvature * (X.dot(d[:-1]) + d[-1])
        return np.append(X.transpose_dot(u) + d[:-1] / C, u.sum())

    return times


def _newton_direction(hessian_times, gradient: np.ndarray) -> np.ndarray | None:
    """An inexact solution p of H p = -gradient by conjugate gradients
    (Nocedal and Wright, Algorithm 7.1). CG stops once the residual is below
    min(0.5, sqrt(|g|)) |g|, which makes Newton's convergence superlinear,
    on a direction of no curvature, or after len(gradient) steps. None when
    a curvature d.Hd is not finite: every later step would be out of range."""
    norm = math.sqrt(np.dot(gradient, gradient))
    tolerance = min(0.5, math.sqrt(norm)) * norm
    p = np.zeros_like(gradient)
    r, d = gradient, -gradient
    rr = np.dot(r, r)
    for _ in range(len(gradient)):
        hd = hessian_times(d)
        curve = np.dot(d, hd)
        if not math.isfinite(curve):
            return None
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
    before optimizing when a feature value is not finite, and, naming C,
    once the loss, the gradient or a Newton direction is not finite, as
    they overflow at a C too small for the data. The procedure has no
    random choices.
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

    def evaluate(v: np.ndarray) -> tuple[float, np.ndarray, float, np.ndarray]:
        """The scaled objective at ``v``, its gradient, the gradient's largest
        component and each row's probability."""
        loss, grad_w, grad_b, sigma = loss_and_gradient(v[:-1], float(v[-1]), X, y, weight, C)
        g = np.append(grad_w, grad_b) / n
        return loss / n, g, float(np.max(np.abs(g))), sigma

    def out_of_range(what: str) -> TrainingError:
        return TrainingError(f"the {what} is not finite at C={float(C)!r}: "
                             "C is too small for this data")

    v = np.zeros(X.shape[1] + 1)
    iterations = 0
    # The checks below stop the fit at the first value out of range, so
    # numpy need not warn of one.
    with np.errstate(all="ignore"):
        f, g, g_max, sigma = evaluate(v)
        while True:
            for what, value in (("loss", f), ("gradient", g_max)):
                if not math.isfinite(value):
                    raise out_of_range(what)
            if g_max <= _GTOL or iterations == _MAX_ITERATIONS:
                break
            # The scaled objective is the unscaled one with weights s/N and C*N.
            curvature = (weight / n) * sigma * (1.0 - sigma)
            p = _newton_direction(_hessian_product(X, curvature, C * n), g)
            slope = math.nan if p is None else float(np.dot(g, p))
            if not math.isfinite(slope):
                raise out_of_range("Newton direction")
            step = 1.0
            for _ in range(_MAX_HALVINGS):
                v_new = v + step * p
                f_new, g_new, g_max_new, sigma_new = evaluate(v_new)
                # Armijo's test; within rounding of f it cannot tell, and a
                # step that shrinks the gradient is taken instead.
                if (f_new <= f + _ARMIJO * step * slope
                        or (abs(f_new - f) <= 4 * np.finfo(float).eps * abs(f)
                            and g_max_new < g_max)):
                    break
                step /= 2
            else:
                break  # no step along p helps: the fit is at its rounding floor
            v, f, g, g_max, sigma = v_new, f_new, g_new, g_max_new, sigma_new
            iterations += 1
    return LinearModel(weights=v[:-1], bias=float(v[-1]),
                       class_weights=(float(w_pos), float(w_neg)), C=float(C),
                       iterations=iterations, grad_max=g_max * n,
                       converged=g_max <= _GTOL)


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
    g = predict_proba(labeling, X)
    c_estimate = float(g[holdout].mean())
    if c_estimate <= 0.0:
        raise TrainingError("labeling-frequency estimate is zero")
    c_estimate = min(c_estimate, 1.0)

    g = np.clip(g[unl_idx], 1e-12, 1.0 - 1e-12)
    q = np.clip((1.0 - c_estimate) / c_estimate * g / (1.0 - g), 0.0, 1.0)

    targets = np.ones(s.shape[0])
    targets[unl_idx] = q
    final = train_logreg(X, targets, class_weights=(1.0, 1.0), C=C)
    return PUModel(labeling_model=labeling, c_estimate=c_estimate, final_model=final)


_FIT_REPORT = {"iterations": int, "grad_max": _NUMBER, "converged": bool}


def _linear_to_record(model: LinearModel) -> dict:
    return {
        "weights": model.weights.tolist(),
        "bias": model.bias,
        "class_weights": [model.class_weights[0], model.class_weights[1]],
        "C": model.C,
        "n_features": len(model.weights),
        **{key: getattr(model, key) for key in _FIT_REPORT},
    }


def _finite(value: int | float | list, key: str) -> np.ndarray:
    """A number, or a list of numbers, as floats; a ValueError naming
    ``key`` unless every one is finite."""
    try:
        floats = np.asarray(value, dtype=float)
        if np.isfinite(floats).all():
            return floats
    except OverflowError:  # an integer beyond the float range
        pass
    raise ValueError(f"key {key!r} holds a number that is not finite")


def _pull(record: object, key: str, kind: type | tuple[type, ...], items=None):
    """``record[key]``, whose type is ``kind`` (or one of the tuple ``kind``)
    and each item's type one of ``items`` when given. A bool is never a
    number here, and a number must be finite; a list of numbers comes back
    as a float array."""
    value = record.get(key) if isinstance(record, dict) else None
    kinds = kind if type(kind) is tuple else (kind,)
    if type(value) not in kinds or (items is not None and not set(map(type, value)) <= set(items)):
        raise ValueError(f"key {key!r} is missing or mistyped")
    if _NUMBER in (kind, items):
        floats = _finite(value, key)
        return value if items is None else floats
    return value


def _pull_pair(record: object, key: str, items: tuple[type, ...], what: str) -> Sequence:
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
    report = {key: _pull(record, key, kind) for key, kind in _FIT_REPORT.items()}
    return LinearModel(
        weights=weights,
        bias=float(_pull(record, "bias", _NUMBER)),
        class_weights=(float(w_pos), float(w_neg)),
        C=float(_pull(record, "C", _NUMBER)),
        **report,
    )


def _vocabulary_from_record(record: object) -> Vocabulary:
    """The vocabulary ``save_model`` writes: ``total_docs`` at least 1 and
    within the float range, and for each term two integers, its index its
    rank in sorted term order and its document frequency in 1..total_docs,
    which keeps every idf finite. The first bad entry in file order is
    named."""
    raw = _pull(record, "terms", dict)
    total_docs = _pull(record, "total_docs", int)
    _finite(total_docs, "total_docs")
    if total_docs < 1:
        raise ValueError(f"key 'total_docs' must be at least 1, got {total_docs}")
    rank_of = {term: rank for rank, term in enumerate(sorted(raw))}
    dfs = [0] * len(rank_of)
    for term, entry in raw.items():
        # An entry that is not two integers fails _pull_pair, which says how.
        if not (type(entry) is list and len(entry) == 2
                and type(entry[0]) is type(entry[1]) is int):
            _pull_pair(raw, term, (int,), "integers")
        index, df = entry
        if not 1 <= df <= total_docs:
            raise ValueError(f"key {term!r}: document frequency {df} is not in 1..{total_docs}")
        if index != rank_of[term]:
            raise ValueError(f"key {term!r}: index {index} is not the term's rank "
                             f"{rank_of[term]} in sorted order")
        dfs[index] = df
    return Vocabulary(terms=tuple(rank_of), df=tuple(dfs), total_docs=total_docs)


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
        "terms": {term: [index, df]
                  for index, (term, df) in enumerate(zip(vocab.terms, vocab.df))},
    }
    write_json(path, [payload])


def load_model(path: str | Path) -> tuple[LinearModel | PUModel, Vocabulary]:
    """Read a model container and its vocabulary, in the shape ``save_model``
    writes; raise ValueError naming the file when a key (the vocabulary and
    the fit report too) is missing, mistyped, holds a number that is not
    finite, a vocabulary count out of range or an index that is not its
    term's rank, or when weights, n_features and vocabulary disagree, and
    naming the line too when a byte is not UTF-8."""
    text = "".join(line for _, line in read_lines(path))
    try:
        payload = from_json(text)
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


def sentence_table(samples: list[ParagraphSample]) -> SentenceTable:
    """Every sentence of ``samples``, in dataset order, its label and group
    code int32 as a table file stores them. The one place the model
    commands tokenize; the token lists go straight into the count matrix."""
    from .textproc import tokenize

    sentences = [sentence for sample in samples for sentence in sample.sentences]
    groups: dict[tuple[str, str], int] = {}
    group = [groups.setdefault((sample.mag_field, sample.split), len(groups))
             for sample in samples]
    return SentenceTable(
        count_tokens(tokenize(sentence.text) for sentence in sentences),
        np.array([sentence.label == LABEL_CITE_WORTHY for sentence in sentences], dtype=_INDEX),
        np.repeat(np.array(group, dtype=_INDEX), [len(sample.sentences) for sample in samples]),
        groups)


def read_table(path: Path) -> SentenceTable:
    """The sentence table of the whole dataset at ``path``, through a
    read-through cache beside it, ``.<name>.table``, keyed by the SHA-256 of
    the dataset's bytes and ``TABLE_VERSION``. On a miss (no cache, a
    stale or damaged one) the dataset is read with every check of
    ``read_dataset`` and the table written back, unless the file changed
    while it was read; a cache that cannot be written is skipped."""
    def digest() -> bytes:
        with open(path, "rb") as fh:
            return hashlib.file_digest(fh, "sha256").digest()

    cache = path.with_name(f".{path.name}.table")
    key = digest()
    try:
        return load_table(cache, key)
    except (OSError, ValueError):
        pass
    from .pipeline import read_dataset

    table = sentence_table(read_dataset(path))
    # The key must be the hash of the very bytes just parsed.
    if digest() == key:
        try:
            save_table(cache, table, key)
        except OSError:
            pass
    return table


# The arrays of a table file, in file order, and how each item is stored.
_TABLE_ARRAYS = ("data", "indices", "indptr", "label", "group")
_TABLE_ITEM = np.dtype("<i4")


def save_table(path: str | Path, table: SentenceTable, sha256: bytes) -> None:
    """Write ``table``, the table of the dataset whose bytes have the
    SHA-256 digest ``sha256``, through ``atomic_write``: an ASCII JSON line
    (``version``, ``sha256`` in hex, the arrays' ``lengths`` and ``strings``,
    [terms, group fields, group splits]) padded to a multiple of 4 bytes,
    the arrays ``_TABLE_ARRAYS`` as little-endian int32, then the CRC-32 of
    all that in 4 little-endian bytes."""
    matrix = table.counts.matrix
    arrays = [np.ascontiguousarray(array, _TABLE_ITEM) for array in
              (matrix.data, matrix.indices, matrix.indptr, table.label, table.group)]
    header = json.dumps({"version": TABLE_VERSION, "sha256": sha256.hex(),
                         "lengths": [len(array) for array in arrays],
                         "strings": [table.counts.terms, [field for field, _ in table.groups],
                                     [split for _, split in table.groups]]})
    line = header + " " * (-(len(header) + 1) % 4) + "\n"
    crc = 0
    with atomic_write(path, binary=True) as fh:
        for part in [line.encode("ascii"), *arrays]:
            fh.write(part)
            crc = zlib.crc32(part, crc)
        fh.write(crc.to_bytes(4, "little"))


def load_table(path: str | Path, sha256: bytes) -> SentenceTable:
    """The table ``save_table`` wrote to ``path`` for the dataset whose bytes
    have the digest ``sha256``. Raises ValueError naming the file unless
    the CRC-32 matches, the header is at ``TABLE_VERSION`` with that digest
    and claims exactly the int32 items that follow it, and the arrays are
    such a table: a CSR count matrix over sorted, distinct terms with
    columns ascending in each row, 0/1 labels and a group code per row, and
    distinct (field, split) groups. Raises OSError when the file cannot be
    read."""
    raw = Path(path).read_bytes()
    try:
        if len(raw) < 4 or int.from_bytes(raw[-4:], "little") != zlib.crc32(
                memoryview(raw)[:-4]):
            raise ValueError("the CRC-32 does not match")
        start = raw.find(b"\n", 0, len(raw) - 4) + 1
        header = from_json(raw[:start].decode("ascii"))
        version = _pull(header, "version", int)
        if version != TABLE_VERSION:
            raise ValueError(f"table version {version}")
        if _pull(header, "sha256", str) != sha256.hex():
            raise ValueError("the dataset's hash differs")
        # Python ints, before numpy sees a byte: 2**40 items allocate nothing.
        lengths = _pull(header, "lengths", list, (int,))
        if len(lengths) != len(_TABLE_ARRAYS) or min(lengths) < 0 \
                or 4 * sum(lengths) != len(raw) - 4 - start:
            raise ValueError(f"the header claims arrays of {lengths} items")
        items = np.frombuffer(raw, _TABLE_ITEM, count=sum(lengths), offset=start)
        arrays = dict(zip(_TABLE_ARRAYS, np.split(items, list(accumulate(lengths[:-1])))))
        return _checked_table(_pull(header, "strings", list), arrays)
    except ValueError as exc:
        raise ValueError(f"{path}: not a table file for this dataset ({exc!r})") from exc


def _checked_table(lists: list, arrays: dict[str, np.ndarray]) -> SentenceTable:
    if not (len(lists) == 3
            and all(type(strings) is list and set(map(type, strings)) <= {str}
                    for strings in lists)
            and len(lists[1]) == len(lists[2])):
        raise ValueError("strings are not three lists of strings")
    terms, fields, splits = lists
    if not all(map(operator.lt, terms, terms[1:])):
        raise ValueError("terms are not sorted and distinct")
    keys = list(zip(fields, splits))
    groups = dict(zip(keys, range(len(keys))))
    if len(groups) != len(keys):
        raise ValueError("a (field, split) group repeats")
    data, indices, indptr = arrays["data"], arrays["indices"], arrays["indptr"]
    n_rows = len(indptr) - 1
    if n_rows < 0 or indptr[0] != 0 or np.any(np.diff(indptr) < 0) \
            or indptr[-1] != len(indices) or len(data) != len(indices):
        raise ValueError("indptr does not divide the entries into rows")
    matrix = CSR(data, indices, indptr, (n_rows, len(terms)))
    # Row-major positions strictly increase exactly when each row's columns do.
    position = matrix.row_of_entry * len(terms) + indices
    if indices.size and (indices.min() < 0 or indices.max() >= len(terms) or data.min() < 1
                         or np.any(np.diff(position) <= 0)):
        raise ValueError("an entry is out of range or out of order")
    label, group = arrays["label"], arrays["group"]
    if len(label) != n_rows or len(group) != n_rows or np.any((label != 0) & (label != 1)) \
            or group.size and (group.min() < 0 or group.max() >= len(groups)):
        raise ValueError("a label or group code is out of range")
    return SentenceTable(TokenCounts(terms, matrix), label, group, groups)
