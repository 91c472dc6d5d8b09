"""Repository structure: no module of the package reads another module's
private name or imports scipy, every JSON input goes through one decoder
and is type-checked by exact type, every exception class the package
defines is caught by name somewhere in it, only ``model`` names the table
file, only ``pipeline`` imports ``ingest``, no build-side command loads
numpy, no model command with a table cache loads a build-side module, a
model command refuses a bad file before it loads numpy, each
citation pattern is written once and compiled only from its constant, both
process entries are ``cli.run``, the one place that ends the process, and
the test configuration lets a failing property test report its example."""

import ast
import builtins
import os
import subprocess
import sys
import tomllib
from pathlib import Path

import citecorpus
from citecorpus import textproc
from citecorpus.cli import main
from corpusgen import make_corpus_file
from synthdata import write_distance_matrix

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


def test_json_is_decoded_only_by_the_root_decoder():
    # The root's from_json refuses JSON nested too deeply as invalid JSON; a
    # reader that called the json module itself would end in a RecursionError.
    uses = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parent_of = {child: node for node in ast.walk(tree)
                     for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "json":
                uses.append(f"{path.name}, line {node.lineno}: {ast.unparse(node)}")
            if not (isinstance(node, ast.Attribute) and node.attr in ("load", "loads")
                    and _root(node.value) == "json"):
                continue
            scope = node
            while not isinstance(scope, (ast.FunctionDef, ast.Module)):
                scope = parent_of[scope]
            uses.append(f"{path.name}, {getattr(scope, 'name', 'module')}: {ast.unparse(node)}")
    assert uses == ["__init__.py, from_json: json.loads"]


# The types a decoded JSON number or bool has; ``isinstance`` would count a
# bool as an int.
EXACT_TYPES = {"int", "float", "bool", "_NUMBER"}


def test_isinstance_names_its_classes_and_no_json_number_type():
    # from_json is the only decoder, so a decoded value has its exact type;
    # a check of a number's or a bool's type compares type(value).
    uses = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Call) and ast.unparse(node.func) == "isinstance"):
                continue
            classes = node.args[1] if len(node.args) == 2 else None
            names = classes.elts if isinstance(classes, ast.Tuple) else [classes]
            if not all(isinstance(name, ast.Name) and name.id not in EXACT_TYPES
                       for name in names):
                uses.append(f"{path.name}, line {node.lineno}: {ast.unparse(node)}")
    assert uses == []


def test_only_the_build_pipeline_imports_ingest():
    # The root holds the line reader, so no model or audit command needs the
    # corpus parser.
    importers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or "", *(alias.name for alias in node.names)]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            if any(name.split(".")[-1] == "ingest" for name in names):
                importers.add(path.name)
    assert importers == {"pipeline.py"}


def _name(node):
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def test_every_exception_class_is_caught_by_name():
    # A type that no handler names tells a caller nothing its builtin base
    # does not, so the code raises the base instead.
    bases, where, caught = {}, {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = [_name(base) for base in node.bases]
                where[node.name] = f"{path.name}, line {node.lineno}"
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                caught.update(map(_name, types))

    def is_exception(name):
        builtin = getattr(builtins, name or "", None)
        if isinstance(builtin, type):
            return issubclass(builtin, BaseException)
        return any(map(is_exception, bases.get(name, ())))

    exceptions = {name for name in bases if is_exception(name)}
    assert {"UsageError", "TrainingError", "MalformedRecordError"} <= exceptions
    assert [f"{where[name]}: {name}" for name in sorted(exceptions - caught)] == []


TABLE_NAMES = {"TABLE_VERSION", "save_table", "load_table"}


def test_only_model_names_the_table_file():
    # The table file's name, key, version and format live in one module;
    # every other module asks model.read_table for a dataset's table.
    uses = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "model.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = {getattr(node, "id", None), getattr(node, "attr", None)}
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(alias.name for alias in node.names)
            if names & TABLE_NAMES or (isinstance(node, ast.Constant)
                                       and ".table" in str(node.value)):
                uses.append(f"{path.name}, line {node.lineno}: {ast.unparse(node)[:60]}")
    assert uses == []


def _run_fresh(watched, *argv, status=0):
    """Run the command ``argv`` in a fresh interpreter, which must exit with
    ``status``. Returns its stdout and the modules of ``watched`` that it
    loaded."""
    code = ("import sys\nfrom citecorpus.cli import main\nstatus = main(sys.argv[2:])\n"
            "print([name for name in sys.argv[1].split(',') if name in sys.modules])\n"
            "sys.exit(status)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", code, ",".join(watched), *argv],
                            capture_output=True, text=True, env=env, timeout=300)
    assert result.returncode == status, result.stderr[-2000:]
    *out, loaded = result.stdout.splitlines()
    return out, ast.literal_eval(loaded)


def test_build_side_commands_load_no_numpy(tmp_path):
    # Only the model commands need numpy, whose import costs each command
    # about 0.1 s. Each command runs in a fresh interpreter.
    def run(*argv, watched=("numpy",)):
        assert _run_fresh(watched, *argv)[1] == [], argv

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
    # Scoring reads the sheet and the key through the root's line reader.
    run("audit-score", "--sheet", str(sheet), "--key", str(audit / "key.jsonl"),
        watched=("numpy", "citecorpus.ingest"))
    run("dump-rules")


BUILD_SIDE = ["citecorpus.ingest", "citecorpus.pipeline", "citecorpus.textproc",
              "citecorpus.audit"]


def test_model_commands_with_a_table_cache_load_no_build_side_module(tmp_path):
    # A warm model command reads its sentences from the table cache, so it
    # needs neither the corpus parser, the pipeline nor the tokenizer. Each
    # command runs in a fresh interpreter.
    corpus, out = tmp_path / "corpus.jsonl", tmp_path / "out"
    make_corpus_file(corpus, n_papers=120, seed=401, adversarial_rate=0.25,
                     fields=["Biology", "Chemistry"], paragraphs_per_paper=(2, 3))
    assert main(["build", "--input", str(corpus), "--output", str(out), "--seed", "9",
                 "--quota", "60"]) == 0
    dataset, model = out / "dataset.jsonl", tmp_path / "model.json"
    distances = tmp_path / "distances.tsv"
    fields = ["Biology", "Chemistry"]
    write_distance_matrix({(a, b): float(a != b) for a in fields for b in fields}, fields,
                          distances)
    train = ["train", "--input", str(dataset), "--output", str(model), "--seed", "4"]
    evaluate = ["eval", "--model", str(model), "--input", str(dataset), "--split", "all"]
    # The first model command reads the dataset and writes the cache.
    assert "citecorpus.pipeline" in _run_fresh(BUILD_SIDE, *train)[1]
    for argv in (train, [*train, "--pu", "--output", str(tmp_path / "pu.json")],
                 ["cross-domain", "--input", str(dataset), "--distances", str(distances)]):
        assert _run_fresh(BUILD_SIDE, *argv)[1] == [], argv
    warm, loaded = _run_fresh(BUILD_SIDE, *evaluate)
    assert loaded == []
    (out / ".dataset.jsonl.table").unlink()
    cold, loaded = _run_fresh(BUILD_SIDE, *evaluate)
    assert (cold, loaded) == (warm, ["citecorpus.ingest", "citecorpus.pipeline",
                                     "citecorpus.textproc"])


def test_a_model_command_checks_its_files_before_loading_numpy(tmp_path):
    # Every path option is checked before the command imports its layers,
    # so a usage error costs no numpy import. Each command runs in a fresh
    # interpreter.
    present, missing = tmp_path / "present.jsonl", str(tmp_path / "missing.jsonl")
    present.write_text("{}\n")
    for argv in (["train", "--input", missing, "--output", str(tmp_path / "m.json"),
                  "--seed", "1"],
                 ["eval", "--model", str(present), "--input", missing],
                 ["cross-domain", "--input", missing, "--distances", str(present)],
                 ["train", "--input", str(present), "--output", str(present), "--seed", "1"]):
        assert _run_fresh(["numpy", "citecorpus.model"], *argv, status=2)[1] == [], argv


def test_the_module_entry_and_the_console_script_are_one_function():
    tree = ast.parse((PACKAGE / "__main__.py").read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name: f"citecorpus.{node.module}:{alias.name}"
                for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    called = [imported[ast.unparse(node.func)] for node in ast.walk(tree)
              if isinstance(node, ast.Call)]
    scripts = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]["scripts"]
    assert called == list(scripts.values()) == ["citecorpus.cli:run"]


def _is_main_check(node):
    return isinstance(node, ast.Compare) and {ast.unparse(node.left), *map(
        ast.unparse, node.comparators)} == {"__name__", "'__main__'"}


def test_only_cli_run_ends_the_process_and_only_main_py_is_a_script():
    # cli.run skips the interpreter's teardown once output is flushed; any
    # other way in or out would end commands differently.
    exits, scripts = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and ast.unparse(node) == "os._exit":
                exits.append(path.name)
            elif isinstance(node, ast.If) and _is_main_check(node.test):
                scripts.append(path.name)
    assert (exits, scripts) == (["cli.py"], ["__main__.py"])


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
