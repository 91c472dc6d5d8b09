"""Repository structure: no module of the package reads another module's
private name or imports scipy, no build-side command loads numpy, each
citation pattern is written once and compiled only from its constant, and
the test configuration lets a failing property test report its example."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import citecorpus
from citecorpus import textproc
from corpusgen import make_corpus_file

PACKAGE = Path(citecorpus.__file__).parent
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def _root(node):
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def test_no_module_reads_another_modules_private_name():
    reads = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        # Local names bound by imports from the package.
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "citecorpus"):
                reads += [f"{path.name}, line {node.lineno}: imports {alias.name}"
                          for alias in node.names if _private(alias.name)]
                imported.update(alias.asname or alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                imported.update((alias.asname or alias.name).split(".")[0]
                                for alias in node.names
                                if alias.name.split(".")[0] == "citecorpus")
        reads += [f"{path.name}, line {node.lineno}: {ast.unparse(node)}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and _private(node.attr)
                  and _root(node.value) in imported]
    assert reads == []


def test_no_module_imports_scipy():
    # Every command runs on numpy alone; scipy is a test and benchmark
    # oracle, not a dependency of the package.
    imports = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module or ""]
            else:
                names = []
            imports += [f"{path.name}, line {node.lineno}: imports {name}"
                        for name in names if name.split(".")[0] == "scipy"]
    assert imports == []


def test_build_side_commands_load_no_numpy(tmp_path):
    # Only the model commands need numpy, whose import costs each command
    # about 0.1 s. Each command runs in a fresh interpreter.
    code = ("import sys\nfrom citecorpus.cli import main\nstatus = main(sys.argv[1:])\n"
            "print('numpy' in sys.modules)\nsys.exit(status)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))

    def run(*argv):
        result = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                                text=True, env=env, timeout=300)
        assert result.returncode == 0, result.stderr[-2000:]
        assert result.stdout.splitlines()[-1] == "False", argv

    corpus = tmp_path / "corpus.jsonl"
    make_corpus_file(corpus, n_papers=120, seed=401, adversarial_rate=0.25,
                     fields=["Biology", "Chemistry"], paragraphs_per_paper=(2, 3))
    main, baseline, audit = tmp_path / "main", tmp_path / "baseline", tmp_path / "audit"
    for out, workers, *flags in ((main, "1"), (baseline, "2", "--baseline")):
        run("build", "--input", str(corpus), "--output", str(out), "--seed", "9",
            "--quota", "60", "--workers", workers, *flags)
    run("stats", "--input", str(main / "dataset.jsonl"))
    run("audit-export", "--input", str(main / "dataset.jsonl"), "--baseline-input",
        str(baseline / "dataset.jsonl"), "--n-per-class", "8", "--seed", "17",
        "--output", str(audit))
    sheet = audit / "sheet.tsv"
    header, *rows = sheet.read_text(encoding="utf-8").splitlines()
    sheet.write_text("".join(f"{line}\n" for line in [
        header, *(row.rsplit("\t", 2)[0] + "\t1\t0" for row in rows)]), encoding="utf-8")
    run("audit-score", "--sheet", str(sheet), "--key", str(audit / "key.jsonl"))
    run("dump-rules")


CITATION_PATTERNS = ("NUMERIC_CITATION_PATTERN", "AUTHOR_YEAR_CITATION_PATTERN",
                     "HANGING_CITATION_PATTERN")


def test_citation_patterns_are_written_once_and_compiled_from_their_constants():
    # A shortcut in the checks must search with the verbatim pattern, not with
    # a copy or a part of it. Besides ``re.compile(NAME)``, a constant may only
    # be a whole element of a tuple: the rule table of dump-rules.
    written = {name: [] for name in CITATION_PATTERNS}
    compiled = {name: [] for name in CITATION_PATTERNS}
    other_uses = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parent_of = {child: node for node in ast.walk(tree)
                     for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant):
                for name in CITATION_PATTERNS:
                    if node.value == getattr(textproc, name):
                        written[name].append(path.name)
                continue
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if name not in CITATION_PATTERNS or not isinstance(node.ctx, ast.Load):
                continue
            parent = parent_of[node]
            if isinstance(parent, ast.Call) and ast.unparse(parent.func) == "re.compile" \
                    and parent.args == [node] and not parent.keywords:
                compiled[name].append(path.name)
            elif not isinstance(parent, ast.Tuple):
                other_uses.append(f"{path.name}, line {node.lineno}: {ast.unparse(parent)}")
    assert written == {name: ["textproc.py"] for name in CITATION_PATTERNS}
    assert compiled == {name: ["textproc.py"] for name in CITATION_PATTERNS}
    assert other_uses == []


def test_a_failing_property_test_prints_its_example(tmp_path):
    # Under the project's warning filters, hypothesis's explain phase must not
    # turn a failing property test into an INTERNALERROR that hides the example.
    (tmp_path / "test_property.py").write_text(
        "from hypothesis import given, strategies as st\n\n"
        "@given(st.integers())\n"
        "def test_small(n):\n"
        "    assert n < 10\n")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert result.returncode == 1, (result.stdout + result.stderr)[-2000:]
    assert "Falsifying example: test_small(" in result.stdout
