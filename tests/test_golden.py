"""Golden model-side outputs: ``train``, ``train --pu``, ``eval`` and
``cross-domain`` on one fixed corpus, checked against ``golden_model_side.json``.

Pinned exactly, because no host changes them: the dataset's SHA-256 (the
build is pure Python); each vocabulary's terms, document frequencies and
size; a SHA-256 of each featurized matrix's three arrays (``featurize`` runs
no exp kernel); each fit's Newton step count and convergence; a SHA-256 of
each ``predict`` call's 0/1 labels; each command's exit code; and what
``eval`` and ``cross-domain`` print. Each fit's weights and bias move in
their last bits with numpy's exp kernel, which numpy picks by the CPU's
vector extensions, so they are pinned within 1e-12 relative.

The flags are chosen so that ``min_df`` off by one either way changes a
vocabulary: the train split has terms with document frequency 36 and 37,
and each field's train split terms with 14 and 15.

A change that moves a pinned value states the old and new values, and why,
in CHANGES.md. ``PYTHONPATH=src:tests python tests/test_golden.py`` rewrites
the file from the current code.
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from citecorpus import model
from citecorpus.cli import main
from corpusgen import make_corpus_file
from synthdata import write_distance_matrix

GOLDEN = Path(__file__).with_name("golden_model_side.json")
FIELDS = ["Biology", "Chemistry", "Physics"]
WEIGHTS_RTOL = 1e-12


def _commands(dataset, model_path, pu_path, distances):
    data = ["--input", str(dataset)]
    return {
        "train": ["train", *data, "--output", str(model_path), "--seed", "4",
                  "--min-df", "37"],
        "train-pu": ["train", *data, "--output", str(pu_path), "--seed", "4", "--pu",
                     "--max-features", "40"],
        "eval-all": ["eval", "--model", str(model_path), *data, "--split", "all"],
        "eval-test": ["eval", "--model", str(model_path), *data, "--split", "test"],
        "eval-dev-field": ["eval", "--model", str(model_path), *data, "--split", "dev",
                           "--field", "Chemistry"],
        "eval-pu-test": ["eval", "--model", str(pu_path), *data, "--split", "test"],
        "cross-domain": ["cross-domain", *data, "--distances", str(distances),
                         "--min-df", "15"],
    }


# Commands whose stdout is pinned: train's names the model path and prints
# the final gradient, whose digits move with the exp kernel.
PRINTED = ("eval-all", "eval-test", "eval-dev-field", "eval-pu-test", "cross-domain")


def _sha256(*arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array, array.dtype.newbyteorder("<")).tobytes())
    return digest.hexdigest()


def _recorder(monkeypatch, outputs):
    """Record what each model-side step a command calls returns."""
    def wrap(name, record):
        original = getattr(model, name)

        def recorded(*args, **kwargs):
            result = original(*args, **kwargs)
            outputs[name].append(record(result))
            return result
        monkeypatch.setattr(model, name, recorded)

    wrap("fit_vocabulary", lambda vocab: {"terms": list(vocab.terms), "df": list(vocab.df),
                                          "total_docs": vocab.total_docs})
    wrap("featurize", lambda X: _sha256(X.data, X.indices, X.indptr))
    wrap("train_logreg", lambda fit: {"weights": fit.weights.tolist(), "bias": fit.bias,
                                      "iterations": fit.iterations,
                                      "converged": fit.converged})
    wrap("predict", lambda labels: _sha256(labels.astype(np.uint8)))


def run_golden_commands(tmp: Path) -> dict:
    """Build the fixed corpus's dataset and run every pinned command on it."""
    corpus = tmp / "corpus.jsonl"
    make_corpus_file(corpus, n_papers=300, seed=11, adversarial_rate=0.1, fields=FIELDS,
                     paragraphs_per_paper=(1, 3))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["build", "--input", str(corpus), "--output", str(tmp / "out"),
                     "--seed", "3", "--quota", "100"]) == 0
    dataset = tmp / "out" / "dataset.jsonl"
    distances = tmp / "dist.tsv"
    write_distance_matrix({(a, b): float(abs(FIELDS.index(a) - FIELDS.index(b)))
                           for a in FIELDS for b in FIELDS}, FIELDS, distances)
    golden = {"dataset_sha256": hashlib.sha256(dataset.read_bytes()).hexdigest(),
              "commands": {}}
    for name, argv in _commands(dataset, tmp / "model.json", tmp / "pu.json",
                                distances).items():
        outputs = {"fit_vocabulary": [], "featurize": [], "train_logreg": [], "predict": []}
        stdout = io.StringIO()
        with pytest.MonkeyPatch.context() as monkeypatch, contextlib.redirect_stdout(stdout):
            _recorder(monkeypatch, outputs)
            outputs["exit_code"] = main(argv)
        if name in PRINTED:
            outputs["stdout"] = stdout.getvalue()
        golden["commands"][name] = outputs
    return golden


@pytest.fixture(scope="module")
def observed(tmp_path_factory):
    return run_golden_commands(tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


COMMANDS = list(_commands("", "", "", ""))


def test_dataset(observed, golden):
    assert observed["dataset_sha256"] == golden["dataset_sha256"]


@pytest.mark.parametrize("command", COMMANDS)
def test_exit_codes(command, observed, golden):
    assert (observed["commands"][command]["exit_code"]
            == golden["commands"][command]["exit_code"] == 0)


@pytest.mark.parametrize("command", COMMANDS)
def test_vocabularies(command, observed, golden):
    assert (observed["commands"][command]["fit_vocabulary"]
            == golden["commands"][command]["fit_vocabulary"])


@pytest.mark.parametrize("command", COMMANDS)
def test_featurized_matrices(command, observed, golden):
    assert (observed["commands"][command]["featurize"]
            == golden["commands"][command]["featurize"])


@pytest.mark.parametrize("command", COMMANDS)
def test_predicted_labels(command, observed, golden):
    assert (observed["commands"][command]["predict"]
            == golden["commands"][command]["predict"])


@pytest.mark.parametrize("command", PRINTED)
def test_printed_text(command, observed, golden):
    assert observed["commands"][command]["stdout"] == golden["commands"][command]["stdout"]


@pytest.mark.parametrize("command", COMMANDS)
def test_fits(command, observed, golden):
    fits = observed["commands"][command]["train_logreg"]
    pinned = golden["commands"][command]["train_logreg"]
    assert ([(fit["iterations"], fit["converged"]) for fit in fits]
            == [(fit["iterations"], fit["converged"]) for fit in pinned])
    for fit, expected in zip(fits, pinned):
        got = np.append(fit["weights"], fit["bias"])
        want = np.append(expected["weights"], expected["bias"])
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= WEIGHTS_RTOL * np.linalg.norm(want)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        values = run_golden_commands(Path(tmp))
    GOLDEN.write_text(json.dumps(values, indent=1, sort_keys=True) + "\n", encoding="utf-8")
