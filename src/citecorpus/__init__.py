"""Corpus construction and classical baselines for cite-worthiness detection.

The package turns structured plain-text scientific papers into a cleaned,
paragraph-contextualized dataset of sentences labelled for whether they cite
an external source, and provides TF-IDF / logistic-regression baselines plus
evaluation tooling on top of it.
"""

__version__ = "0.1.0"

# Inverse L2 regularization strength of the logistic-regression baseline; it
# lives here so the CLI can show it without importing the model's numpy/scipy.
DEFAULT_C = 0.1151
