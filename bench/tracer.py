"""Span recorders for the traced run, and the per-layer metrics derived from them.

Run as a program, this file executes one citecorpus command in-process::

    python3 bench/tracer.py --out spans.json -- build --input corpus.jsonl ...

It imports ``citecorpus`` from ``src/``, replaces each function named in
``WRAPPED`` by a recorder at every module attribute that binds it (so
``pipeline.split_sentences`` is wrapped as well as
``textproc.split_sentences``), calls ``citecorpus.cli.main(argv)`` and writes
the recorded spans when the command ends. Nothing under ``src/`` changes.

Functions called once per command are recorded as spans: name, start, end,
parent. Functions called per line, paragraph or sentence are aggregated into
a call count, a total time and a self time under their parent span. A
function listed in ``WRAPPED`` that the program no longer has is reported as
missing. Recording is off in forked pool workers, so a parallel build records
parent-side spans only.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import os
import sys
import time
from pathlib import Path

from corpus import REJECTION_CODES

SPAN = "span"
AGG = "agg"

TEXTPROC_CHECKS = ("find_numeric_citations", "find_author_year_citations",
                   "matches_citation_format", "citation_at_sentence_end",
                   "remove_citation_spans", "strip_hanging_punctuation",
                   "has_hanging_citation_marker", "is_well_formed")


def _count_paper(result, counters):
    samples, rejections = result
    counters["pipeline.accepted"] = counters.get("pipeline.accepted", 0) + len(samples)
    for rec in rejections:
        key = f"pipeline.rejected.{rec.reason.code}"
        counters[key] = counters.get(key, 0) + 1


def _add(key, value_of):
    def hook(result, counters):
        counters[key] = counters.get(key, 0) + value_of(result)
    return hook


def _keep_max(key, value_of):
    def hook(result, counters):
        counters[key] = max(counters.get(key, 0), value_of(result))
    return hook


# (module, function, kind, hook on the result). The hook turns a result into
# counters; a hook that no longer fits the result marks its counters missing.
WRAPPED = (
    ("ingest", "read_corpus_path", AGG, None),
    ("ingest", "parse_record", AGG, None),
    ("ingest", "paper_eligible", AGG, _add("ingest.eligible", bool)),
    ("textproc", "split_sentences", AGG, _add("textproc.sentences", len)),
    *(("textproc", name, AGG, None) for name in TEXTPROC_CHECKS),
    ("pipeline", "process_paper", AGG, _count_paper),
    ("pipeline", "collect_samples", SPAN, None),
    ("pipeline", "balanced_sample", SPAN, _add("pipeline.selected", len)),
    ("pipeline", "split_dataset", SPAN, None),
    ("pipeline", "write_dataset", SPAN, None),
    ("pipeline", "write_rejections", SPAN, None),
    ("pipeline", "read_dataset", SPAN, None),
    ("metrics", "dataset_stats", SPAN, None),
    ("model", "fit_vocabulary", AGG, _keep_max("model.vocab_size", len)),
    ("model", "featurize", AGG, None),
    ("model", "stack_features", AGG, _keep_max("model.nnz", lambda m: m.nnz)),
    ("model", "train_logreg", AGG, None),
    ("model", "loss_and_gradient", AGG, None),
    ("model", "train_pu", AGG, None),
    ("model", "predict", AGG, None),
    ("model", "save_model", AGG, None),
    ("model", "load_model", AGG, None),
    ("audit", "sample_for_audit", SPAN, None),
    ("audit", "score_audit", SPAN, None),
)


class Recorder:
    """Holds spans, aggregates and counters in memory for one process."""

    def __init__(self, label: str):
        self.label = label
        self.enabled = True
        self.spans: list[dict] = []
        self.aggregates: dict[tuple[int, str], dict] = {}
        self.counters: dict[str, int] = {}
        self.missing: list[str] = []
        # Stack of [name, span id or None, start, time spent in children].
        self.stack: list[list] = []
        # Time inside wrapped calls that no other wrapped call encloses.
        self.top_level = 0.0
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.enabled = False

    def _enclosing_span(self) -> int | None:
        for frame in reversed(self.stack):
            if frame[1] is not None:
                return frame[1]
        return None

    def enter(self, name: str, kind: str) -> list:
        span_id = None
        if kind == SPAN:
            span_id = len(self.spans)
            self.spans.append({"id": span_id, "name": name, "parent": self._enclosing_span(),
                               "workload": self.label})
        frame = [name, span_id, time.perf_counter(), 0.0]
        self.stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = time.perf_counter()
        self.stack.pop()
        name, span_id, start, child_time = frame
        duration = end - start
        if self.stack:
            self.stack[-1][3] += duration
        else:
            self.top_level += duration
        if span_id is not None:
            self.spans[span_id].update(start=start, end=end, self=duration - child_time)
            return
        parent = self._enclosing_span()
        agg = self.aggregates.get((parent, name))
        if agg is None:
            agg = self.aggregates[parent, name] = {
                "name": name, "parent": parent, "count": 0, "total": 0.0, "self": 0.0,
                "start": start}
        agg["count"] += 1
        agg["total"] += duration
        agg["self"] += duration - child_time
        agg["end"] = end

    def count(self, hook, result) -> None:
        try:
            hook(result, self.counters)
        except (AttributeError, TypeError, ValueError) as exc:
            problem = f"counter hook on {type(result).__name__}: {exc}"
            if problem not in self.missing:
                self.missing.append(problem)

    def wrap(self, name: str, kind: str, hook, func):
        recorder = self

        if inspect.isgeneratorfunction(func):
            @functools.wraps(func)
            def generator_wrapper(*args, **kwargs):
                inner = func(*args, **kwargs)
                while True:
                    if not recorder.enabled:
                        yield from inner
                        return
                    frame = recorder.enter(name, kind)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        recorder.exit(frame)
                    recorder.counters[f"{name}.items"] = (
                        recorder.counters.get(f"{name}.items", 0) + 1)
                    yield item
            return generator_wrapper

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not recorder.enabled:
                return func(*args, **kwargs)
            frame = recorder.enter(name, kind)
            try:
                result = func(*args, **kwargs)
            finally:
                recorder.exit(frame)
            if hook is not None:
                recorder.count(hook, result)
            return result
        return wrapper

    def install(self, package) -> None:
        """Wrap every function in ``WRAPPED`` wherever the package binds it."""
        modules = [m for n, m in sys.modules.items()
                   if n == package.__name__ or n.startswith(package.__name__ + ".")]
        for module_name, func_name, kind, hook in WRAPPED:
            module = sys.modules.get(f"{package.__name__}.{module_name}")
            func = getattr(module, func_name, None) if module is not None else None
            if not callable(func):
                self.missing.append(f"{module_name}.{func_name}")
                continue
            _rebind(modules, func, self.wrap(f"{module_name}.{func_name}", kind, hook, func))
        self._count_diagnostics(modules, getattr(sys.modules.get(f"{package.__name__}.ingest"),
                                                 "read_corpus_path", None))

    def _count_diagnostics(self, modules: list, reader) -> None:
        """Count diagnostics where every corpus read reports them: the
        ``on_malformed`` callback handed to ``read_corpus_path``."""
        if reader is None:
            return

        @functools.wraps(reader)
        def counting_reader(*args, **kwargs):
            callback = kwargs.get("on_malformed")
            if callback is not None:
                kwargs["on_malformed"] = self._counted("ingest.diagnostics", callback)
            return reader(*args, **kwargs)

        _rebind(modules, reader, counting_reader)

    def _counted(self, key: str, callback):
        def counted(*args):
            self.counters[key] = self.counters.get(key, 0) + 1
            return callback(*args)
        return counted

    def record(self) -> dict:
        return {"label": self.label, "spans": self.spans,
                "aggregates": list(self.aggregates.values()), "counters": self.counters,
                "top_level": self.top_level, "missing": self.missing}


def _rebind(modules: list, old, new) -> None:
    """Point every module attribute bound to ``old`` at ``new``."""
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="where to write the spans (JSON)")
    parser.add_argument("--label", default="", help="command label stored with the spans")
    parser.add_argument("argv", nargs=argparse.REMAINDER,
                        help="citecorpus arguments, after --")
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    start = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import citecorpus
    # Import every layer, so that each is in sys.modules when wrapping starts.
    from citecorpus import audit, cli, ingest, metrics, model, pipeline, textproc  # noqa: F401

    recorder = Recorder(args.label)
    recorder.install(citecorpus)
    imported = time.perf_counter()
    try:
        code = cli.main(argv)
    finally:
        end = time.perf_counter()
        record = recorder.record()
        record.update(start=start, imported=imported, end=end)
        Path(args.out).write_text(json.dumps(record), encoding="utf-8")
    return code


# ---------------------------------------------------------------- metrics --

class CommandTrace:
    """The spans of one traced command, with the wall time the benchmark saw."""

    def __init__(self, record: dict, wall: float):
        self.label = record["label"]
        self.spans = record["spans"]
        self.aggregates = record["aggregates"]
        self.counters = record["counters"]
        self.missing = record["missing"]
        self.top_level = record["top_level"]
        self.wall = wall

    def total(self, name: str) -> float:
        return (sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)
                + sum(a["total"] for a in self.aggregates if a["name"] == name))

    def self_time(self, name: str) -> float:
        return (sum(s["self"] for s in self.spans if s["name"] == name)
                + sum(a["self"] for a in self.aggregates if a["name"] == name))

    def calls(self, name: str) -> int:
        return (sum(1 for s in self.spans if s["name"] == name)
                + sum(a["count"] for a in self.aggregates if a["name"] == name))


def _first(traces: list[CommandTrace], label: str) -> CommandTrace | None:
    return next((t for t in traces if t.label == label), None)


def _sum(traces, fn):
    return sum(fn(t) for t in traces)


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(traces: list[CommandTrace]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass.

    Times are summed over the pass's commands unless a metric names one
    command; counts of the build funnel come from the serial main build
    (``build-w1``), the one whose paragraph work runs in the traced process.
    """
    w1 = _first(traces, "build-w1")
    wn = _first(traces, "build-wN")
    baseline = _first(traces, "build-baseline")

    def on(trace, fn):
        return fn(trace) if trace is not None else 0.0

    def counter(trace, key):
        return trace.counters.get(key, 0) if trace is not None else 0

    accepted = counter(w1, "pipeline.accepted")
    rejected = {code: counter(w1, f"pipeline.rejected.{code}") for code in REJECTION_CODES}
    processed = accepted + sum(rejected.values())
    fits = _sum(traces, lambda t: t.calls("model.train_logreg"))
    w1_collect = on(w1, lambda t: t.total("pipeline.collect_samples"))
    wn_collect = on(wn, lambda t: t.total("pipeline.collect_samples"))

    return {
        "ingest.read_s": (_sum(traces, lambda t: t.total("ingest.read_corpus_path")), "s"),
        "ingest.records": (counter(w1, "ingest.read_corpus_path.items"), "count"),
        "ingest.diagnostics": (counter(w1, "ingest.diagnostics"), "count"),
        "ingest.eligible": (counter(w1, "ingest.eligible"), "count"),
        "textproc.split_sentences_s": (
            _sum(traces, lambda t: t.total("textproc.split_sentences")), "s"),
        "textproc.sentences": (counter(w1, "textproc.sentences"), "count"),
        "textproc.checks_s": (_sum(traces, lambda t: sum(
            t.total(f"textproc.{name}") for name in TEXTPROC_CHECKS)), "s"),
        "pipeline.process_paper_self_s": (
            on(w1, lambda t: t.self_time("pipeline.process_paper")), "s"),
        "pipeline.process_paper_baseline_self_s": (
            on(baseline, lambda t: t.self_time("pipeline.process_paper")), "s"),
        "pipeline.collect_samples_w1_s": (w1_collect, "s"),
        "pipeline.collect_samples_wN_s": (wn_collect, "s"),
        "pipeline.pool_speedup": (_ratio(w1_collect, wn_collect), "x"),
        "pipeline.balance_split_s": (_sum(traces, lambda t: t.total("pipeline.balanced_sample")
                                          + t.total("pipeline.split_dataset")), "s"),
        "pipeline.write_s": (_sum(traces, lambda t: t.total("pipeline.write_dataset")
                                  + t.total("pipeline.write_rejections")), "s"),
        "pipeline.read_dataset_s": (_sum(traces, lambda t: t.total("pipeline.read_dataset")),
                                    "s"),
        "pipeline.accept_ratio": (_ratio(accepted, processed), "ratio"),
        "pipeline.selected_ratio": (_ratio(counter(w1, "pipeline.selected"), accepted),
                                    "ratio"),
        **{f"pipeline.rejected.{code}": (n, "count") for code, n in rejected.items()},
        "metrics.dataset_stats_s": (_sum(traces, lambda t: t.total("metrics.dataset_stats")),
                                    "s"),
        "model.fit_vocabulary_s": (_sum(traces, lambda t: t.total("model.fit_vocabulary")), "s"),
        "model.featurize_s": (_sum(traces, lambda t: t.total("model.featurize")), "s"),
        "model.featurize_calls": (_sum(traces, lambda t: t.calls("model.featurize")), "count"),
        "model.stack_features_s": (_sum(traces, lambda t: t.total("model.stack_features")), "s"),
        "model.train_logreg_s": (_sum(traces, lambda t: t.total("model.train_logreg")), "s"),
        "model.loss_evals": (_ratio(_sum(traces, lambda t: t.calls("model.loss_and_gradient")),
                                    fits), "count/fit"),
        "model.train_pu_s": (_sum(traces, lambda t: t.total("model.train_pu")), "s"),
        "model.predict_s": (_sum(traces, lambda t: t.total("model.predict")), "s"),
        "model.save_s": (_sum(traces, lambda t: t.total("model.save_model")), "s"),
        "model.load_s": (_sum(traces, lambda t: t.total("model.load_model")), "s"),
        "model.vocab_size": (max((t.counters.get("model.vocab_size", 0) for t in traces),
                                 default=0), "count"),
        "model.nnz": (max((t.counters.get("model.nnz", 0) for t in traces), default=0),
                      "count"),
        "audit.sample_for_audit_s": (_sum(traces, lambda t: t.total("audit.sample_for_audit")),
                                     "s"),
        "audit.score_audit_s": (_sum(traces, lambda t: t.total("audit.score_audit")), "s"),
        "cli.self_s": (_sum(traces, lambda t: t.wall - t.top_level), "s"),
    }


if __name__ == "__main__":
    sys.exit(main())
