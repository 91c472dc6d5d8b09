"""Seeded synthetic classification tasks shared by model and acceptance tests.
Feature rows come as a ``model.CSR``, the one matrix the model takes."""

from __future__ import annotations

import numpy as np

from citecorpus.model import CSR, Vocabulary


def gaussian_blobs(seed: int, n_pos: int, n_neg: int, sep: float, dim: int = 2):
    """Two spherical Gaussian classes centred +/- sep/2 on every axis."""
    rng = np.random.default_rng(seed)
    xp = rng.normal(loc=+sep / 2, scale=1.0, size=(n_pos, dim))
    xn = rng.normal(loc=-sep / 2, scale=1.0, size=(n_neg, dim))
    X = np.vstack([xp, xn])
    y = np.concatenate([np.ones(n_pos, dtype=int), np.zeros(n_neg, dtype=int)])
    perm = rng.permutation(len(y))
    return CSR.from_dense(X[perm]), y[perm]


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
    return CSR.from_dense(X), y, s


def stub_vocabulary(width: int) -> Vocabulary:
    """A vocabulary of ``width`` terms, for saving a model fitted on rows
    that come from no text."""
    return Vocabulary({f"t{i}": (i, 1) for i in range(width)}, total_docs=1)


def recall_of(predictions: np.ndarray, truth: np.ndarray) -> float:
    tp = int(((predictions == 1) & (truth == 1)).sum())
    fn = int(((predictions == 0) & (truth == 1)).sum())
    return tp / (tp + fn)
