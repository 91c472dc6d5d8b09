"""Repository structure: no module of the package reads another module's
private name or imports scipy, each citation pattern is written once and
compiled only from its constant, and the test configuration lets a failing
property test report its example."""

import ast
import subprocess
import sys
from pathlib import Path

import citecorpus
from citecorpus import textproc

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
