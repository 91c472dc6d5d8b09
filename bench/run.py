"""citecorpus benchmark: seeded inputs, three workloads, checked outputs.

Usage, from the root of a checkout::

    python3 bench/run.py --workload build --seed 1 --seconds 20 --trace 0

The benchmark generates its inputs from ``--seed`` (``bench/corpus.py``),
then runs the workload's commands through the citecorpus CLI in ``src/``,
one process per command, in passes, until ``--seconds`` have been spent. It
checks every output and prints each metric with its unit and sample count.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones named in
``BENCHMARK.json``. With ``--trace 1`` the benchmark alternates untraced
passes with passes whose commands run under ``bench/tracer.py`` and reports
the per-layer metrics. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import corpus
import tracer

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
# Share of the smallest field's accepted paragraphs taken as the per-field
# quota, so balancing really discards paragraphs.
QUOTA_SHARE = 0.65
# Accepted paragraphs per generated paper, measured on the generator's
# output; the quota is fixed by the sizes, not by the seed.
ACCEPTED_PER_PAPER = 2.25
BUILD_PAPERS = 2500
DATASET_PAPERS = 2000
AUDIT_PER_CLASS = 200
# The trained model must sit within this relative distance of the optimum
# of its own objective, found again here by L-BFGS from its weights. The
# 500-epoch trainer ends 1.7e-10 to 3.0e-10 above it on seeds 1-30 and
# 101-120; the same trainer stopped after 450 epochs ends 9.8e-10 (seed 20)
# and 1.4e-9 (seed 1) above it.
OBJECTIVE_GAP_LIMIT = 7e-10
# Test-split F1 floors. Predicting every sentence cite-worthy scores about
# 0.57 here; the PU model, trained to recover unlabeled positives, scores
# near that, so its floor only rules out a degenerate model.
TEST_F1_FLOOR = {"train": 0.6, "train-pu": 0.4}
REFERENCE_LOOP = 200_000
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@dataclass
class Run:
    """One command run: what it was and what the benchmark saw."""

    label: str
    argv: list[str]
    wall: float
    cpu: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str
    reference: float
    spans: dict | None = None

    @property
    def wall_ref(self) -> float:
        """Wall time in units of the reference loop timed around the command."""
        return self.wall / self.reference


def reference_seconds() -> float:
    """Time a fixed pure-Python loop.

    The shared machine this benchmark was tuned on has phases, some seconds
    to half a minute long, in which all code runs about 40% slower. Timing
    this loop just before and just after a command tells which phase the
    command ran in; a command's wall time divided by it is steady across
    phases. (Timing it while the command runs does worse: the loop then
    competes with the command for the cores.)
    """
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOP):
        total += i * i % 7
    return time.perf_counter() - start


def run_command(label: str, argv: list[str], outdir: Path, spans: Path | None = None) -> Run:
    """Run one citecorpus command in a fresh process; time it and read its
    peak RSS and CPU time from ``wait4``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    if spans is None:
        cmd = [sys.executable, "-m", "citecorpus", *argv]
    else:
        cmd = [sys.executable, str(BENCH / "tracer.py"), "--out", str(spans),
               "--label", label, "--", *argv]
    out_path, err_path = outdir / f"{label}.stdout", outdir / f"{label}.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        before = reference_seconds()
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        after = reference_seconds()
    proc.returncode = os.waitstatus_to_exitcode(status)
    record = None
    if spans is not None and spans.exists():
        record = json.loads(spans.read_text(encoding="utf-8"))
    return Run(label=label, argv=argv, wall=wall, cpu=usage.ru_utime + usage.ru_stime,
               rss_mb=usage.ru_maxrss / 1024.0, code=proc.returncode,
               stdout=out_path.read_text(encoding="utf-8", errors="replace"),
               stderr=err_path.read_text(encoding="utf-8", errors="replace"),
               reference=(before + after) / 2, spans=record)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def dataset_sentences(path: Path, split: str = "all") -> tuple[list[str], list[int]]:
    texts, labels = [], []
    for record in read_jsonl(path):
        if split != "all" and record["split"] != split:
            continue
        for sample in record["samples"]:
            texts.append(sample["text"])
            labels.append(1 if sample["label"] == "cite-worthy" else 0)
    return texts, labels


class Checks:
    """Output checks; each failure is charged to the command that made the output."""

    def __init__(self):
        self.failures: list[tuple[str, str]] = []

    def expect(self, ok: bool, label: str, message: str) -> bool:
        if not ok:
            self.failures.append((label, message))
        return ok

    def ran(self, run: Run) -> bool:
        return self.expect(run.code == 0, run.label,
                           f"exit {run.code}: {run.stderr.strip()[-500:]}")


# -------------------------------------------------------------- program I/O --

class FrozenPatterns:
    """The three citation patterns, as ``dump-rules`` prints them."""

    HEADERS = ("citation-format pattern [numeric]:", "citation-format pattern [author-year]:",
               "hanging-citation pattern:")

    def __init__(self, dump: str):
        lines = dump.splitlines()
        self.compiled = [re.compile(lines[lines.index(header) + 1]) for header in self.HEADERS]

    def residue(self, text: str) -> bool:
        return any(p.search(text) for p in self.compiled)


class SavedModel:
    """A model file read with the documented container format, and TF-IDF
    features computed the documented way, independently of ``citecorpus``."""

    TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

    def __init__(self, path: Path):
        payload = json.loads(path.read_text(encoding="utf-8"))
        self.kind = payload["kind"]
        record = payload["final_model"] if self.kind == "pu" else payload["model"]
        import numpy as np
        self.weights = np.asarray(record["weights"], dtype=float)
        self.bias = float(record["bias"])
        self.class_weights = tuple(record["class_weights"])
        self.C = float(record["C"])
        vocab = payload["vocabulary"]
        self.terms = {term: (int(i), int(df)) for term, (i, df) in vocab["terms"].items()}
        self.total_docs = int(vocab["total_docs"])

    def features(self, texts: list[str]):
        import numpy as np
        import scipy.sparse as sp
        indptr, indices, data = [0], [], []
        for text in texts:
            counts: dict[str, int] = {}
            for token in self.TOKEN_RE.findall(text.lower()):
                counts[token] = counts.get(token, 0) + 1
            pairs = []
            for term, tf in counts.items():
                entry = self.terms.get(term)
                if entry is not None:
                    idf = math.log((1 + self.total_docs) / (1 + entry[1])) + 1.0
                    pairs.append((entry[0], tf * idf))
            pairs.sort()
            norm = math.sqrt(sum(w * w for _, w in pairs))
            indices.extend(i for i, _ in pairs)
            data.extend(w / norm for _, w in pairs)
            indptr.append(len(indices))
        return sp.csr_matrix((np.asarray(data, dtype=float), np.asarray(indices, dtype=np.int32),
                              np.asarray(indptr, dtype=np.int32)),
                             shape=(len(texts), len(self.weights)))

    def predict(self, X):
        from scipy.special import expit
        return (expit(X @ self.weights + self.bias) >= 0.5).astype(int)

    def objective(self, X, labels, weights=None, bias=None):
        """Class-weighted NLL + ||w||^2/(2C), over N, and its gradient."""
        import numpy as np
        from scipy.special import expit
        w = self.weights if weights is None else weights
        b = self.bias if bias is None else bias
        y = np.asarray(labels, dtype=float)
        sample_weight = np.where(y == 1.0, self.class_weights[0], self.class_weights[1])
        z = X @ w + b
        nll = y * np.logaddexp(0.0, -z) + (1.0 - y) * np.logaddexp(0.0, z)
        n = len(y)
        loss = float(np.dot(sample_weight, nll) + np.dot(w, w) / (2.0 * self.C))
        residual = sample_weight * (expit(z) - y)
        grad = np.append(np.asarray(X.T @ residual).ravel() + w / self.C, residual.sum())
        return loss / n, grad / n


def prf(predictions, golds) -> tuple[float, float, float]:
    tp = sum(1 for p, g in zip(predictions, golds) if p == 1 and g == 1)
    fp = sum(1 for p, g in zip(predictions, golds) if p == 1 and g != 1)
    fn = sum(1 for p, g in zip(predictions, golds) if p != 1 and g == 1)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def render_prf(p: float, r: float, f: float) -> str:
    return f"precision {100 * p:.2f}  recall {100 * r:.2f}  f1 {100 * f:.2f}"


# ------------------------------------------------------------------ workloads --

def check_manifest(checks: Checks, label: str, manifest_path: Path, data: corpus.Corpus,
                   quota: int) -> None:
    counts = json.loads(manifest_path.read_text(encoding="utf-8"))["counts"]
    expected = {
        "malformed_lines": data.malformed_lines,
        "papers_total": data.papers,
        "papers_eligible": data.eligible,
        "paragraphs_accepted": data.accepted,
        "paragraphs_rejected": len(data.rejections),
        "paragraphs_selected": sum(min(quota, n) for n in data.accepted_by_field.values()),
    }
    for key, value in expected.items():
        checks.expect(counts.get(key) == value, label,
                      f"manifest {key} = {counts.get(key)}, generator expects {value}")


def check_no_residue(checks: Checks, label: str, dataset: Path,
                     patterns: FrozenPatterns) -> None:
    texts, _ = dataset_sentences(dataset)
    hits = [t for t in texts if patterns.residue(t)]
    checks.expect(not hits, label, f"{len(hits)} sentences match a frozen pattern, "
                                   f"first: {hits[:1]}")


class Workload:
    """Set-up, one pass of commands, checks and metrics of one workload."""

    name = ""
    papers = DATASET_PAPERS
    builds_dataset = True

    def __init__(self, work: Path, seed: int, scale: float):
        self.work = work
        self.seed = seed
        self.scale = scale
        self.inputs: dict[str, dict] = {}
        self.setup_runs: list[Run] = []
        self.setup_times: list[float] = []

    def setup(self, checks: Checks, patterns: FrozenPatterns) -> None:
        """Generate the inputs and, when the workload needs one, build its
        dataset from them."""
        self.n_papers = max(200, int(self.papers * self.scale))
        self.quota = round(QUOTA_SHARE * ACCEPTED_PER_PAPER * self.n_papers
                           / len(corpus.FIELDS))
        self.corpus, self.digest = self._set_up(self.work, checks)
        self.dataset = self.work / "dataset" / "dataset.jsonl"
        self.inputs["corpus"] = {**self.corpus.record(), "quota": self.quota}
        if self.builds_dataset and self.dataset.exists():
            check_no_residue(checks, "setup-build", self.dataset, patterns)
            self.inputs["dataset"] = {"path": self.dataset.name,
                                      "bytes": self.dataset.stat().st_size,
                                      "sha256": sha256(self.dataset)}

    def repeat_setup(self, checks: Checks) -> None:
        """Set up once more, elsewhere, for another ``setup_s`` sample; the
        inputs must come out the same."""
        again = self.work / "setup-again"
        shutil.rmtree(again, ignore_errors=True)
        again.mkdir()
        _, digest = self._set_up(again, checks)
        checks.expect(digest == self.digest, "setup", "set-up repetitions made different inputs")

    def _set_up(self, where: Path, checks: Checks) -> tuple[corpus.Corpus, str]:
        start = time.perf_counter()
        data = corpus.generate(where / "corpus.jsonl", self.n_papers, f"{self.name}|{self.seed}")
        digest = data.sha256
        if self.builds_dataset:
            out = where / "dataset"
            run = run_command("setup-build", self.build_argv(out, corpus_path=data.path), where)
            self.setup_runs.append(run)
            if checks.ran(run):
                check_manifest(checks, "setup-build", out / "manifest.json", data, self.quota)
                digest += sha256(out / "dataset.jsonl")
        self.setup_times.append(time.perf_counter() - start)
        return data, digest

    def commands(self, passdir: Path) -> list[tuple[str, list[str]]]:
        raise NotImplementedError

    def between(self, label: str, passdir: Path, patterns: FrozenPatterns) -> None:
        """Benchmark work between two commands of a pass (not timed)."""

    def outputs(self, passdir: Path) -> dict[str, Path]:
        """Outputs that must be byte-identical from pass to pass, by command."""
        raise NotImplementedError

    def check(self, checks: Checks, passdir: Path, runs: dict[str, Run],
              patterns: FrozenPatterns) -> dict[str, tuple[float, str]]:
        """Full output checks on one pass; returns exact quality figures."""
        raise NotImplementedError

    def metrics(self, passes: list[dict[str, Run]]) -> list[tuple[str, str, list[float]]]:
        """The workload's own end-to-end metrics, one value per pass."""
        raise NotImplementedError

    def build_argv(self, out: Path, *extra: str, corpus_path: Path | None = None) -> list[str]:
        return ["build", "--input", str(corpus_path or self.corpus.path), "--output", str(out),
                "--seed", str(self.seed), "--quota", str(self.quota), *extra]


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


class BuildWorkload(Workload):
    """Nearly all work in ingest/textproc/pipeline; almost none in model."""

    name = "build"
    papers = BUILD_PAPERS
    builds_dataset = False

    def commands(self, passdir: Path) -> list[tuple[str, list[str]]]:
        return [
            ("build-w1", self.build_argv(passdir / "w1", "--workers", "1")),
            ("build-wN", self.build_argv(passdir / "wN", "--workers", str(nproc()))),
            ("build-baseline", self.build_argv(passdir / "baseline", "--baseline")),
            ("audit-export", ["audit-export", "--input", str(passdir / "w1" / "dataset.jsonl"),
                              "--baseline-input", str(passdir / "baseline" / "dataset.jsonl"),
                              "--n-per-class", str(AUDIT_PER_CLASS), "--seed", str(self.seed),
                              "--output", str(passdir / "audit")]),
            ("audit-score", ["audit-score", "--sheet", str(passdir / "audit" / "filled.tsv"),
                             "--key", str(passdir / "audit" / "key.jsonl")]),
        ]

    def between(self, label: str, passdir: Path, patterns: FrozenPatterns) -> None:
        if label == "audit-export" and (passdir / "audit" / "sheet.tsv").exists():
            fill_sheet(passdir / "audit" / "sheet.tsv", passdir / "audit" / "filled.tsv",
                       patterns)

    def outputs(self, passdir: Path) -> dict[str, Path]:
        files = {}
        for label, sub in (("build-w1", "w1"), ("build-wN", "wN"),
                           ("build-baseline", "baseline")):
            for name in ("dataset.jsonl", "rejections.jsonl", "manifest.json"):
                files[f"{label}/{name}"] = passdir / sub / name
        files["audit-export/sheet.tsv"] = passdir / "audit" / "sheet.tsv"
        files["audit-export/key.jsonl"] = passdir / "audit" / "key.jsonl"
        return files

    def check(self, checks, passdir, runs, patterns):
        w1, wn = passdir / "w1", passdir / "wN"
        if runs["build-w1"].code == 0:
            check_manifest(checks, "build-w1", w1 / "manifest.json", self.corpus, self.quota)
            check_no_residue(checks, "build-w1", w1 / "dataset.jsonl", patterns)
            rejected = [(r["paper_id"], r["paragraph_index"], r["code"])
                        for r in read_jsonl(w1 / "rejections.jsonl")]
            checks.expect(rejected == self.corpus.rejections, "build-w1",
                          "rejections.jsonl differs from the generator's planted defects")
            codes = {code for _, _, code in rejected}
            checks.expect(codes == set(corpus.REJECTION_CODES), "build-w1",
                          f"rejection codes missing: {set(corpus.REJECTION_CODES) - codes}")
        if runs["build-w1"].code == 0 and runs["build-wN"].code == 0:
            for name in ("dataset.jsonl", "rejections.jsonl", "manifest.json"):
                checks.expect((w1 / name).read_bytes() == (wn / name).read_bytes(), "build-wN",
                              f"{name} differs between --workers 1 and --workers {nproc()}")
        if runs["audit-score"].code == 0:
            expected = expected_audit_score(passdir / "audit" / "filled.tsv",
                                            passdir / "audit" / "key.jsonl")
            printed = {line.split()[0]: line.split()[1:] for line in
                       runs["audit-score"].stdout.splitlines()[1:] if line.strip()}
            checks.expect(printed == expected, "audit-score",
                          f"audit score {printed} differs from expected {expected}")
        return {}

    def metrics(self, passes):
        lines = self.corpus.lines
        return [
            ("build_papers_per_s", "papers/s", [lines / p["build-w1"].wall for p in passes]),
            ("build_parallel_papers_per_s", "papers/s",
             [lines / p["build-wN"].wall for p in passes]),
            ("baseline_build_papers_per_s", "papers/s",
             [lines / p["build-baseline"].wall for p in passes]),
            ("build_peak_rss_mb", "MB", [p["build-w1"].rss_mb for p in passes]),
            ("audit_s", "s", [p["audit-export"].wall + p["audit-score"].wall for p in passes]),
        ]


def fill_sheet(sheet: Path, filled: Path, patterns: FrozenPatterns) -> None:
    """Annotate a sheet deterministically: extraction is correct when the
    sentence is well formed, markers are removed when no frozen pattern
    matches."""
    rows = sheet.read_text(encoding="utf-8").splitlines()
    out = [rows[0]]
    for row in rows[1:]:
        cells = row.split("\t")
        sentence = cells[1]
        ok = len(sentence) > 20 and sentence[:1].isupper() and sentence[-1:] in ".!?"
        cells[4] = "1" if ok else "0"
        cells[5] = "0" if patterns.residue(sentence) else "1"
        out.append("\t".join(cells))
    filled.write_text("\n".join(out) + "\n", encoding="utf-8")


def expected_audit_score(filled: Path, key: Path) -> dict[str, list[str]]:
    method = {r["item_id"]: r["method"] for r in read_jsonl(key)}
    tally: dict[str, list[int]] = {}
    for row in filled.read_text(encoding="utf-8").splitlines()[1:]:
        cells = row.split("\t")
        t = tally.setdefault(method[cells[0]], [0, 0, 0])
        t[0] += 1
        t[1] += int(cells[4])
        t[2] += int(cells[5])
    return {m: [f"{100.0 * ok / n:.2f}", f"{100.0 * clean / n:.2f}"]
            for m, (n, ok, clean) in tally.items()}


class TrainEvalWorkload(Workload):
    """The optimizer dominates; featurize is second; no ingest/textproc work."""

    name = "train-eval"

    def commands(self, passdir):
        return [
            ("train", ["train", "--input", str(self.dataset), "--output",
                       str(passdir / "model.json"), "--seed", str(self.seed)]),
            ("train-pu", ["train", "--input", str(self.dataset), "--output",
                          str(passdir / "pu.json"), "--seed", str(self.seed), "--pu"]),
            ("eval", ["eval", "--model", str(passdir / "model.json"), "--input",
                      str(self.dataset), "--split", "all"]),
        ]

    def outputs(self, passdir):
        return {"train/model.json": passdir / "model.json",
                "train-pu/pu.json": passdir / "pu.json"}

    def check(self, checks, passdir, runs, patterns):
        import numpy as np
        from scipy.optimize import minimize
        figures: dict[str, tuple[float, str]] = {}
        test_texts, test_golds = dataset_sentences(self.dataset, "test")
        models = {}
        for label, path in (("train", passdir / "model.json"), ("train-pu", passdir / "pu.json")):
            if runs[label].code != 0:
                continue
            try:
                model = models[label] = SavedModel(path)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                checks.expect(False, label, f"model file does not load: {exc}")
                continue
            f1 = prf(model.predict(model.features(test_texts)), test_golds)[2]
            checks.expect(f1 >= TEST_F1_FLOOR[label], label,
                          f"test F1 {f1:.4f} is below the floor {TEST_F1_FLOOR[label]}")
            figures[f"{label}.test_f1"] = (f1, "ratio")
            if label != "train":
                continue
            texts, labels = dataset_sentences(self.dataset, "train")
            X = model.features(texts)
            objective, grad = model.objective(X, labels)
            start = np.append(model.weights, model.bias)
            best = minimize(lambda v: model.objective(X, labels, v[:-1], v[-1]), start, jac=True,
                            method="L-BFGS-B", options={"maxiter": 2000, "gtol": 1e-12,
                                                        "ftol": 1e-15})
            optimum = min(float(best.fun), objective)
            gap = (objective - optimum) / abs(optimum)
            checks.expect(gap <= OBJECTIVE_GAP_LIMIT, "train",
                          f"objective {objective:.12g} is {gap:.3g} above the optimum "
                          f"{optimum:.12g} (limit {OBJECTIVE_GAP_LIMIT})")
            figures["train_objective"] = (objective, "nll/sentence")
            figures["train_objective_gap"] = (gap, "ratio")
            figures["train_grad_max"] = (float(np.max(np.abs(grad))) * len(labels), "grad")
            figures["model.file_bytes"] = (path.stat().st_size, "bytes")
        if runs["eval"].code == 0 and "train" in models:
            texts, golds = dataset_sentences(self.dataset)
            expected = render_prf(*prf(models["train"].predict(models["train"].features(texts)),
                                       golds))
            printed = runs["eval"].stdout.strip().splitlines()[-1:]
            checks.expect(printed == [expected], "eval",
                          f"eval printed {printed}, recomputed {expected!r}")
        return figures

    def metrics(self, passes):
        n_eval = len(dataset_sentences(self.dataset)[0])
        return [
            ("train_s", "s", [p["train"].wall for p in passes]),
            ("train_pu_s", "s", [p["train-pu"].wall for p in passes]),
            ("train_peak_rss_mb", "MB", [p["train-pu"].rss_mb for p in passes]),
            ("eval_sentences_per_s", "sentences/s", [n_eval / p["eval"].wall for p in passes]),
        ]


class CrossDomainWorkload(Workload):
    """Ten small fits and a hundred featurize passes over the same texts."""

    name = "cross-domain"

    def setup(self, checks, patterns):
        super().setup(checks, patterns)
        self.distances = corpus.write_distances(self.work / "distances.tsv", self.seed)
        self.inputs["distances"] = {"path": self.distances.name,
                                    "sha256": sha256(self.distances)}

    def commands(self, passdir):
        return [("cross-domain", ["cross-domain", "--input", str(self.dataset), "--distances",
                                  str(self.distances), "--seed", str(self.seed), "--output",
                                  str(passdir / "grid.json")])]

    def outputs(self, passdir):
        return {"cross-domain/grid.json": passdir / "grid.json"}

    def check(self, checks, passdir, runs, patterns):
        if runs["cross-domain"].code != 0:
            return {}
        grid = json.loads((passdir / "grid.json").read_text(encoding="utf-8"))
        fields = grid.get("fields", [])
        checks.expect(sorted(fields) == sorted(corpus.FIELDS), "cross-domain",
                      f"grid fields {fields}")
        cells = [grid["f1"].get(a, {}).get(b) for a in corpus.FIELDS for b in corpus.FIELDS]
        finite = [c for c in cells if isinstance(c, (int, float)) and math.isfinite(c)
                  and 0.0 <= c <= 100.0]
        checks.expect(len(finite) == 100, "cross-domain",
                      f"grid has {len(finite)} finite F1 cells, expected 100")
        for key in ("sigma", "rho"):
            values = [grid[key].get(f) for f in corpus.FIELDS]
            checks.expect(all(isinstance(v, (int, float)) and math.isfinite(v) for v in values),
                          "cross-domain", f"grid {key} is not finite for every field")
        return {}

    def metrics(self, passes):
        return [("cross_domain_s", "s", [p["cross-domain"].wall for p in passes])]


WORKLOADS = {w.name: w for w in (BuildWorkload, TrainEvalWorkload, CrossDomainWorkload)}


# ---------------------------------------------------------------- the run --

def environment(seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass

    def version(name):
        try:
            return importlib.metadata.version(name)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {"nproc": nproc(), "cpu_model": cpu, "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "threads": {var: os.environ.get(var) for var in THREAD_VARS}, "seed": seed}


def run_pass(workload: Workload, passdir: Path, patterns: FrozenPatterns, traced: bool
             ) -> dict[str, Run]:
    passdir.mkdir(parents=True)
    runs = {}
    for label, argv in workload.commands(passdir):
        spans = passdir / f"{label}.spans.json" if traced else None
        runs[label] = run_command(label, argv, passdir, spans)
        workload.between(label, passdir, patterns)
    return runs


def summary(values: list[float]) -> str:
    if not values:
        return "n=0"
    return (f"median of n={len(values)}; min {min(values):.6g}, max {max(values):.6g}")


def main() -> int:
    parser = argparse.ArgumentParser(description="citecorpus benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="time spent in measured passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply input sizes (1 = the sizes BENCHMARK.json is tuned for)")
    args = parser.parse_args()

    if not (SRC / "citecorpus" / "cli.py").is_file():
        print(f"error: no citecorpus sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    results = ROOT / ".bench_out"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results.mkdir(exist_ok=True)
    try:
        return measure(args, work, results)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, work: Path, results: Path) -> int:
    env = environment(args.seed)
    print("environment " + json.dumps(env, sort_keys=True))
    checks = Checks()
    # Read the frozen patterns the output checks use; this also warms the
    # file cache for the interpreter, numpy and scipy before any timing.
    rules = run_command("dump-rules", ["dump-rules"], work)
    try:
        patterns = FrozenPatterns(rules.stdout)
    except (ValueError, re.error) as exc:
        print(f"error: cannot read the frozen patterns from dump-rules: {exc}\n"
              f"{rules.stderr[-2000:]}", file=sys.stderr)
        return 1
    workload = WORKLOADS[args.workload](work, args.seed, args.scale)
    workload.setup(checks, patterns)
    print("inputs " + json.dumps(workload.inputs, sort_keys=True))
    problems = corpus.self_check(workload.corpus)
    if problems is None:
        print("generator self-check skipped: the program no longer has the functions it calls")
    else:
        checks.expect(not problems, "setup", f"generator self-check: {problems[:3]}")

    # The other set-up repetitions are spread over the measuring window, so
    # one slow phase of a shared machine does not set all of them; their
    # time is not counted in the window.
    repeats_left = 0 if args.trace else SETUP_REPEATS - 1
    passes: list[tuple[Path, bool, dict[str, Run]]] = []
    measured = 0.0
    while True:
        t0 = time.perf_counter()
        for is_traced in (False, True)[:1 + args.trace]:
            passdir = work / f"pass{len(passes)}"
            passes.append((passdir, is_traced, run_pass(workload, passdir, patterns, is_traced)))
        cost = time.perf_counter() - t0
        measured += cost
        if repeats_left and measured >= args.seconds * (SETUP_REPEATS - repeats_left) \
                / SETUP_REPEATS:
            workload.repeat_setup(checks)
            repeats_left -= 1
        if measured + cost > args.seconds:
            break
    for _ in range(repeats_left):
        workload.repeat_setup(checks)

    # Full checks on the first pass; every other pass must reproduce its
    # outputs byte for byte.
    # The set-up operations: generating the inputs, each set-up build, dump-rules.
    attempted = 1 + len(workload.setup_runs) + 1
    failed = len({label for label, _ in checks.failures})
    figures: dict[str, tuple[float, str]] = {}
    reference: dict[str, str] = {}
    for k, (passdir, _, runs) in enumerate(passes):
        pass_checks = Checks()
        for run in runs.values():
            pass_checks.ran(run)
        if k == 0:
            try:
                figures.update(workload.check(pass_checks, passdir, runs, patterns))
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                # An output so malformed that checking it raised.
                pass_checks.expect(False, "outputs", f"{type(exc).__name__}: {exc}")
            reference = {key: sha256(p) for key, p in workload.outputs(passdir).items()
                         if p.exists()}
        else:
            for key, path in workload.outputs(passdir).items():
                pass_checks.expect(path.exists() and sha256(path) == reference.get(key),
                                   key.split("/")[0], f"{key} differs from the first pass")
        attempted += len(runs)
        failed += len({label for label, _ in pass_checks.failures})
        checks.failures.extend((f"{passdir.name} {label}", message)
                               for label, message in pass_checks.failures)
    plain = [runs for _, is_traced, runs in passes if not is_traced]
    traced = [runs for _, is_traced, runs in passes if is_traced]
    for label, message in checks.failures:
        print(f"FAILED {label}: {message}")

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "inputs": workload.inputs,
              "attempted": attempted, "failed": failed,
              "failures": [list(f) for f in checks.failures], "figures": figures}
    print(f"metric failed_ops_share = {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} commands)")
    for name, (value, unit) in sorted(figures.items()):
        print(f"figure {name} = {value:.12g} {unit} (exact, from the first pass)")

    if args.trace:
        metrics = traced_metrics(workload, plain, traced, figures, report, results, args)
    else:
        metrics = plain_metrics(workload, plain, report)
    report["metrics"] = metrics
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n",
                                encoding="utf-8")
    correct = not checks.failures
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def command_medians(passes: list[dict[str, Run]], attr: str) -> dict[str, float]:
    """Median of one measurement per command over the passes. Commands are
    shorter than the slow phases of a shared machine, so the median of each
    command is steadier than the median of whole passes."""
    return {label: _median([getattr(p[label], attr) for p in passes]) for label in passes[0]}


def plain_metrics(workload: Workload, passes: list[dict[str, Run]], report: dict) -> dict:
    own = workload.metrics(passes)
    own.append(("setup_s", "s", workload.setup_times))
    for name, unit, values in own:
        print(f"metric {name} = {_median(values):.6g} {unit} ({summary(values)})")
    walls = command_medians(passes, "wall")
    cpus = command_medians(passes, "cpu")
    refs = command_medians(passes, "wall_ref")
    for label in walls:
        print(f"command {label}: wall {walls[label]:.4f} s, cpu {cpus[label]:.4f} s, "
              f"{refs[label]:.2f} ref ({summary([p[label].wall for p in passes])})")
    print(f"wall_s = {sum(walls.values()):.6g} s (one pass, sum of command medians; "
          f"reference loop median {_median([r.reference for p in passes for r in p.values()]):.4f} s)")
    report["workload_metrics"] = {name: {"unit": unit, "values": values}
                                  for name, unit, values in own}
    report["commands"] = {label: [{"wall": p[label].wall, "reference": p[label].reference,
                                   "cpu": p[label].cpu, "rss_mb": p[label].rss_mb}
                                  for p in passes] for label in passes[0]}
    generic = {
        "setup_s": (_median(workload.setup_times), "s"),
        "wall_ref": (sum(refs.values()), "ref"),
        "peak_rss_mb": (max(command_medians(passes, "rss_mb").values()), "MB"),
    }
    for name, (value, unit) in generic.items():
        n = len(workload.setup_times) if name == "setup_s" else len(passes)
        print(f"end-to-end {name} = {value:.6g} {unit} (n={n})")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in generic.items()}


def traced_metrics(workload, plain, traced, figures, report, results, args) -> dict:
    per_pass = []
    spans = []
    missing: set[str] = set()
    for runs in traced:
        traces = []
        for run in runs.values():
            if run.spans is None:
                missing.add(f"{run.label}: no spans written")
                continue
            traces.append(tracer.CommandTrace(run.spans, run.wall))
            missing.update(run.spans["missing"])
            spans.append({"label": run.label, "wall": run.wall, **run.spans})
        per_pass.append(tracer.per_layer(traces))
    overhead = (sum(command_medians(traced, "wall").values())
                - sum(command_medians(plain, "wall").values()))
    layer = {}
    for name, (_, unit) in per_pass[0].items():
        layer[name] = (_median([p[name][0] for p in per_pass]), unit)
    layer["trace.overhead_s"] = (overhead, "s")
    layer["model.grad_max"] = figures.get("train_grad_max", (0.0, "grad"))
    layer["model.file_bytes"] = figures.get("model.file_bytes", (0, "bytes"))
    for problem in sorted(missing):
        print(f"MISSING {problem}")
    for name, (value, unit) in layer.items():
        print(f"layer {name} = {value:.6g} {unit} (median of n={len(per_pass)} traced passes)")
    report["missing"] = sorted(missing)
    (results / f"{args.workload}-seed{args.seed}-spans.json").write_text(
        json.dumps(spans) + "\n", encoding="utf-8")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in layer.items()}


if __name__ == "__main__":
    sys.exit(main())
