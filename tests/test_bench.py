"""The benchmark's corpus generator agrees with the program it measures.

``bench/corpus.py`` checks each generated corpus by running the program's
paragraph code over it. That check returns None (skipped) when the program
loses a function it calls, so a rename would silently turn it off; here it
must run and find nothing."""

import importlib.util
import sys
from pathlib import Path

BENCH_CORPUS = Path(__file__).resolve().parents[1] / "bench" / "corpus.py"


def _bench_corpus():
    spec = importlib.util.spec_from_file_location("bench_corpus", BENCH_CORPUS)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up while they are made.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_generated_corpus_passes_the_generators_self_check(tmp_path):
    bench_corpus = _bench_corpus()
    corpus = bench_corpus.generate(tmp_path / "corpus.jsonl", n_papers=200, seed=1)
    assert corpus.rejections and corpus.accepted
    assert bench_corpus.self_check(corpus) == []
