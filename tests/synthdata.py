"""Seeded synthetic classification tasks shared by model and acceptance tests.
Feature rows come as a ``model.CSR``, the one matrix the model takes; hand-built
models carry a fit report, as every ``model.LinearModel`` does. Also the
writer of the distance-matrix files that the cross-domain tests read."""

from __future__ import annotations

from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from citecorpus.model import CSR, LinearModel, Vocabulary


def dense_csr(array) -> CSR:
    """The nonzero entries of a 2-D array, as a CSR."""
    dense = np.asarray(array, dtype=float)
    if dense.ndim != 2:
        raise ValueError(f"expected a 2-D array, got {dense.ndim} dimensions")
    rows, columns = np.nonzero(dense)
    indptr = np.concatenate([[0], np.cumsum(np.count_nonzero(dense, axis=1))])
    return CSR(dense[rows, columns], columns.astype(np.int32), indptr.astype(np.int32),
               dense.shape)


def linear_model(weights, bias: float = 0.0) -> LinearModel:
    """A hand-built model with class weights (1, 1), C = 1 and the fit report
    of a fit that converged at its zero start."""
    return LinearModel(weights=np.asarray(weights, dtype=float), bias=bias,
                       class_weights=(1.0, 1.0), C=1.0,
                       iterations=0, grad_max=0.0, converged=True)


def gaussian_blobs(seed: int, n_pos: int, n_neg: int, sep: float, dim: int = 2):
    """Two spherical Gaussian classes centred +/- sep/2 on every axis."""
    rng = np.random.default_rng(seed)
    xp = rng.normal(loc=+sep / 2, scale=1.0, size=(n_pos, dim))
    xn = rng.normal(loc=-sep / 2, scale=1.0, size=(n_neg, dim))
    X = np.vstack([xp, xn])
    y = np.concatenate([np.ones(n_pos, dtype=int), np.zeros(n_neg, dtype=int)])
    perm = rng.permutation(len(y))
    return dense_csr(X[perm]), y[perm]


def imbalanced_blobs(seed: int, n: int = 10000, positive_rate: float = 0.3176,
                     sep: float = 1.6):
    """Overlapping blobs at a fixed positive rate (class-weighting testbed)."""
    n_pos = int(round(n * positive_rate))
    return gaussian_blobs(seed, n_pos, n - n_pos, sep=sep)


def pu_blobs(seed: int, n_pos: int = 800, n_neg: int = 1600,
             hidden_fraction: float = 0.3):
    """A positive-unlabeled task with a known labeling frequency.

    Positives are mostly a tight high-certainty core with a small bridge
    component near a contested region; negatives are mostly far away plus a
    small contesting cluster. A uniform ``hidden_fraction`` of positives is
    moved into the unlabeled group, so the true labeling frequency is
    1 - hidden_fraction.

    Returns (X, y_true, s_observed).
    """
    rng = np.random.default_rng(seed)
    n_bridge = int(0.08 * n_pos)
    n_contest = 120
    xc = rng.normal(loc=3.0, scale=0.4, size=(n_pos - n_bridge, 2))
    xb = rng.normal(loc=1.3, scale=0.7, size=(n_bridge, 2))
    xf = rng.normal(loc=-3.0, scale=1.0, size=(n_neg - n_contest, 2))
    xk = rng.normal(loc=0.6, scale=0.7, size=(n_contest, 2))
    X = np.vstack([xc, xb, xf, xk])
    y = np.concatenate([np.ones(n_pos, dtype=int), np.zeros(n_neg, dtype=int)])
    perm = rng.permutation(len(y))
    X, y = X[perm], y[perm]
    s = y.copy()
    pos = np.flatnonzero(y == 1)
    hidden = rng.choice(pos, size=int(round(hidden_fraction * pos.size)), replace=False)
    s[hidden] = 0
    return dense_csr(X), y, s


def stub_vocabulary(width: int) -> Vocabulary:
    """A vocabulary of ``width`` terms, for saving a model fitted on rows
    that come from no text. The names are zero-padded, so that they sort in
    index order."""
    return Vocabulary(tuple(f"t{i:04d}" for i in range(width)), (1,) * width, total_docs=1)


def write_distance_matrix(
    distances: Mapping[tuple[str, str], float], fields: Sequence[str], path: str | Path
) -> None:
    """Write ``distances`` over ``fields`` in the format
    ``metrics.read_distance_matrix`` reads."""
    rows = ["\t" + "\t".join(fields)]
    rows += ["\t".join([train] + [repr(distances[(train, test)]) for test in fields])
             for train in fields]
    Path(path).write_text("".join(row + "\n" for row in rows), encoding="utf-8")


def recall_of(predictions: np.ndarray, truth: np.ndarray) -> float:
    tp = int(((predictions == 1) & (truth == 1)).sum())
    fn = int(((predictions == 0) & (truth == 1)).sum())
    return tp / (tp + fn)
