"""Every data file a command reads, mutated: no input ends a command with a
traceback.

Each test starts from tiny valid inputs, applies one or two drawn mutations
to one file (a JSON value replaced or dropped, a TSV cell replaced, a line
dropped or repeated, bytes inserted; for the corpus, a citation span moved
out of bounds) and runs every command that reads that file. Each run must
return exit code 0, 1 or 2.
"""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citecorpus.cli import main
from citecorpus.metrics import write_distance_matrix
from citecorpus.pipeline import (LABEL_CITE_WORTHY, LABEL_NON_CITE_WORTHY, LabeledSentence,
                                 ParagraphSample, write_dataset)
from corpusgen import make_papers, write_corpus

FIELDS = ["Biology", "Chemistry"]


def _paragraph(field, split):
    # Each field marks its classes with its own words, so a model fitted on
    # one field scores worse on the other and every rho is defined.
    cited, plain = {"Biology": ("reported", "measured"),
                    "Chemistry": ("published", "seen")}[field]
    return ParagraphSample(
        paper_id=f"{field}-{split}", section_title="results", mag_field=field, split=split,
        sentences=(LabeledSentence(f"The assay was {cited}.", LABEL_CITE_WORTHY, 1),
                   LabeledSentence(f"The assay was {plain}.", LABEL_NON_CITE_WORTHY, 0)))


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """Tiny valid inputs for every reading command, each accepted as is."""
    tmp = tmp_path_factory.mktemp("fuzz")
    paths = {name: tmp / name for name in ("corpus.jsonl", "dataset.jsonl", "model.json",
                                           "dist.tsv", "sheet.tsv", "key.jsonl")}
    write_corpus(make_papers(4, seed=3, adversarial_rate=0.3, fields=FIELDS),
                 paths["corpus.jsonl"])
    write_dataset([_paragraph(field, split) for field in FIELDS for split in ("train", "test")],
                  paths["dataset.jsonl"])
    assert main(["train", "--input", str(paths["dataset.jsonl"]),
                 "--output", str(paths["model.json"]), "--seed", "1"]) == 0
    write_distance_matrix({(a, b): float(a != b) for a in FIELDS for b in FIELDS}, FIELDS,
                          paths["dist.tsv"])
    assert main(["audit-export", "--input", str(paths["dataset.jsonl"]),
                 "--baseline-input", str(paths["dataset.jsonl"]), "--n-per-class", "1",
                 "--seed", "1", "--output", str(tmp)]) == 0
    lines = paths["sheet.tsv"].read_text().splitlines()
    paths["sheet.tsv"].write_text("".join(line.rsplit("\t", 2)[0] + "\t1\t0\n" if i else
                                          line + "\n" for i, line in enumerate(lines)))
    assert main(["audit-score", "--sheet", str(paths["sheet.tsv"]),
                 "--key", str(paths["key.jsonl"])]) == 0
    return {name: path.read_text() for name, path in paths.items()}


_WORDS = ["", "train", "test", "dev", "all", "Biology", "Chemistry", "cite-worthy",
          "non-cite-worthy", "ours", "baseline", "1", "0", "-1", "nan", "1e308", "1e-320"]
_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.sampled_from([10**400, -(2**63)])
    | st.floats() | st.sampled_from(_WORDS) | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.sampled_from(_WORDS) | st.text(max_size=3), children, max_size=3),
    max_leaves=4)


def _paths(value, path=()):
    """Every path into a decoded JSON value, the value itself first."""
    yield path
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        return
    for key, child in children:
        yield from _paths(child, path + (key,))


@st.composite
def _mutate_line(draw, line):
    """``line`` with one JSON value replaced or dropped, or one TSV cell replaced."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError:
        cells = line.rstrip("\n").split("\t")
        cells[draw(st.integers(0, len(cells) - 1))] = draw(
            st.sampled_from(_WORDS) | st.text(max_size=5))
        return "\t".join(cells) + "\n"
    path = draw(st.sampled_from(list(_paths(record))))
    if not path:
        return json.dumps(draw(_VALUES)) + "\n"
    parent = record
    for key in path[:-1]:
        parent = parent[key]
    if draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(_VALUES)
    return json.dumps(record) + "\n"


@st.composite
def _mutated(draw, text):
    """``text`` as bytes after one or two mutations."""
    data = text.encode("utf-8")
    for _ in range(draw(st.integers(1, 2))):
        lines = data.decode("utf-8", errors="replace").splitlines(keepends=True) or ["\n"]
        i = draw(st.integers(0, len(lines) - 1))
        how = draw(st.sampled_from(["value", "value", "drop-line", "repeat-line", "bytes"]))
        if how == "value":
            lines[i] = draw(_mutate_line(lines[i]))
        elif how == "drop-line":
            del lines[i]
        elif how == "repeat-line":
            lines.insert(i, lines[i])
        data = "".join(lines).encode("utf-8")
        if how == "bytes":
            at = draw(st.integers(0, len(data)))
            data = data[:at] + draw(st.binary(min_size=1, max_size=3)) + data[at:]
    return data


@st.composite
def _mutated_corpus(draw, text):
    """``text`` with one JSON value replaced or dropped, one citation span
    moved out of its paragraph, or a byte inserted."""
    lines = text.splitlines(keepends=True)
    i = draw(st.integers(0, len(lines) - 1))
    how = draw(st.sampled_from(["value", "span", "byte"]))
    if how == "value":
        lines[i] = draw(_mutate_line(lines[i]))
    elif how == "span":
        record = json.loads(lines[i])
        spans = [span for paragraph in record["body_text"] for span in paragraph["cite_spans"]]
        if spans:
            span = draw(st.sampled_from(spans))
            shift = draw(st.sampled_from([-1000, -1, 1, 1000]))
            span["start"] += shift
            span["end"] += shift
        lines[i] = json.dumps(record) + "\n"
    data = "".join(lines).encode("utf-8")
    if how == "byte":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\x00", b"\n", b"{", b"\""])
                                | st.binary(min_size=1, max_size=1)) + data[at:]
    return data


def _exit_codes(base, name, data, commands):
    """Exit codes of ``commands``, each a function of the input paths, with
    ``name`` holding ``data`` and every other input its valid text."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for file_name, text in base.items():
            paths[file_name] = Path(tmp) / file_name
            paths[file_name].write_text(text)
        paths[name].write_bytes(data)
        out = {"out": Path(tmp) / "out"}
        out["out"].mkdir()
        return [main([str(arg) for arg in command({**paths, **out})]) for command in commands]


CORPUS_COMMANDS = [lambda p: ["build", "--input", p["corpus.jsonl"], "--output", p["out"],
                               "--seed", "1", "--quota", "2", "--workers", "1"]]
DATASET_COMMANDS = [
    lambda p: ["stats", "--input", p["dataset.jsonl"]],
    lambda p: ["stats", "--json", "--input", p["dataset.jsonl"]],
    lambda p: ["train", "--input", p["dataset.jsonl"], "--output", p["out"] / "model.json",
               "--seed", "1"],
    lambda p: ["eval", "--model", p["model.json"], "--input", p["dataset.jsonl"]],
    lambda p: ["audit-export", "--input", p["dataset.jsonl"], "--baseline-input",
               p["dataset.jsonl"], "--n-per-class", "1", "--seed", "1", "--output", p["out"]],
]
MODEL_COMMANDS = [lambda p: ["eval", "--model", p["model.json"], "--input", p["dataset.jsonl"]]]
DISTANCE_COMMANDS = [lambda p: ["cross-domain", "--input", p["dataset.jsonl"], "--distances",
                                p["dist.tsv"], "--output", p["out"] / "grid.json"]]
AUDIT_COMMANDS = [lambda p: ["audit-score", "--sheet", p["sheet.tsv"], "--key", p["key.jsonl"]]]


@pytest.mark.parametrize("name, commands", [
    ("dataset.jsonl", DATASET_COMMANDS),
    ("model.json", MODEL_COMMANDS),
    ("dist.tsv", DISTANCE_COMMANDS),
    ("sheet.tsv", AUDIT_COMMANDS),
    ("key.jsonl", AUDIT_COMMANDS),
    ("corpus.jsonl", CORPUS_COMMANDS),
])
def test_valid_inputs_are_accepted(base, name, commands):
    assert _exit_codes(base, name, base[name].encode("utf-8"), commands) == [0] * len(commands)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_mutated_dataset(base, data):
    mutated = data.draw(_mutated(base["dataset.jsonl"]))
    assert set(_exit_codes(base, "dataset.jsonl", mutated, DATASET_COMMANDS)) <= {0, 1, 2}


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_mutated_model_file(base, data):
    mutated = data.draw(_mutated(base["model.json"]))
    assert set(_exit_codes(base, "model.json", mutated, MODEL_COMMANDS)) <= {0, 1, 2}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_mutated_distance_matrix(base, data):
    mutated = data.draw(_mutated(base["dist.tsv"]))
    assert set(_exit_codes(base, "dist.tsv", mutated, DISTANCE_COMMANDS)) <= {0, 1, 2}


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["sheet.tsv", "key.jsonl"]), st.data())
def test_mutated_audit_sheet_or_key(base, name, data):
    mutated = data.draw(_mutated(base[name]))
    assert set(_exit_codes(base, name, mutated, AUDIT_COMMANDS)) <= {0, 1, 2}


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_mutated_corpus(base, data):
    mutated = data.draw(_mutated_corpus(base["corpus.jsonl"]))
    assert set(_exit_codes(base, "corpus.jsonl", mutated, CORPUS_COMMANDS)) <= {0, 1, 2}
