"""Command-line entry point orchestrating the corpus and model tooling.

Commands: build, stats, audit-export, audit-score, train, eval,
cross-domain, dump-rules. Every source of randomness flows from the explicit
--seed flag, and build outputs contain no wall-clock or host information, so
reruns with the same config are byte-identical.

Exit codes: 0 success, 1 validation or data error, 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import sys
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING

from . import DEFAULT_C, __version__, atomic_write, audit, metrics, textproc
from .ingest import read_lines
from .pipeline import (
    LABEL_CITE_WORTHY,
    PERMISSIBLE_SECTION_TITLES,
    SPLIT_TEST,
    SPLIT_TRAIN,
    SPLITS,
    ParagraphSample,
    balanced_sample,
    collect_samples,
    read_dataset,
    split_dataset,
    write_dataset,
    write_rejections,
)
from .textproc import tokenize

if TYPE_CHECKING:
    from .model import LinearModel, PUModel, TokenCounts

logger = logging.getLogger("citecorpus")

DATASET_FILENAME = "dataset.jsonl"
MANIFEST_FILENAME = "manifest.json"
REJECTIONS_FILENAME = "rejections.jsonl"
SHEET_FILENAME = "sheet.tsv"
KEY_FILENAME = "key.jsonl"


class UsageError(ValueError):
    """Bad invocation: missing files, unusable flags. Exit code 2."""


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    config_path = Path(path)
    if not config_path.exists():
        raise UsageError(f"config file not found: {path}")
    try:
        text = "".join(line for _, line in read_lines(path))
    except ValueError as exc:
        raise UsageError(f"config file {exc}") from exc
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {path} is not valid JSON: {exc.msg}") from exc
    if not isinstance(config, dict):
        raise UsageError(f"config file {path} must hold an object")
    return config


SPLIT_CHOICES = (*SPLITS, "all")

_KINDS = {int: "an integer", float: "a number", bool: "true or false", str: "a string"}


def _resolve(args: argparse.Namespace, config: dict, name: str, kind: type | None = None,
             default=None, required=False):
    """Flag value if given, else config value, else default; a null config
    value counts as absent. A config value goes through ``kind``: ``int()``
    or ``float()``, or it must already be a bool or a str. A value that does
    not is a usage error naming the file and the key."""
    value = getattr(args, name, None)
    if value is None:
        value = config.get(name)
        if value is not None and kind is not None:
            try:
                if kind in (bool, str) and not isinstance(value, kind):
                    raise TypeError
                value = kind(value)
            except (TypeError, ValueError):
                raise UsageError(f"config file {args.config}: key {name!r} must be "
                                 f"{_KINDS[kind]}, got {value!r}") from None
    if value is None:
        value = default
    if required and value is None:
        flag = "--" + name.replace("_", "-")
        raise UsageError(f"{flag} is required (flag or config file)")
    return value


def _resolve_split(args: argparse.Namespace, config: dict, default: str) -> str:
    """``_resolve`` for ``split``; argparse checks the flag, this the config."""
    split = _resolve(args, config, "split", str, default=default)
    if split not in SPLIT_CHOICES:
        raise UsageError(f"config file {args.config}: key 'split' must be one of "
                         f"{', '.join(SPLIT_CHOICES)}, got {split!r}")
    return split


def _require_file(path: str, what: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"{what} not found: {path}")
    return p


def _parse_ratios(raw) -> tuple[float, float, float]:
    try:
        parts = [float(x) for x in (raw if isinstance(raw, list) else str(raw).split(","))]
    except (TypeError, ValueError) as exc:
        raise UsageError(f"--ratios must be three comma-separated numbers, got {raw!r}") from exc
    if len(parts) != 3:
        raise UsageError(f"--ratios must name three values, got {raw!r}")
    return parts[0], parts[1], parts[2]


def _select_sentences(
    samples: list[ParagraphSample], split: str, fields: set[str] | None = None
) -> tuple[TokenCounts, list[int], list[tuple[str, str]]]:
    """Token counts, 0/1 labels and (field, split) of the sentences in
    ``split`` ("all" for every split) whose field is in ``fields`` (None for
    every field), in dataset order. The one place the model commands
    tokenize; the token lists go straight into the count matrix."""
    from .model import count_tokens

    labels: list[int] = []
    origins: list[tuple[str, str]] = []

    def token_lists():
        for sample in samples:
            if split != "all" and sample.split != split:
                continue
            if fields is not None and sample.mag_field not in fields:
                continue
            origin = (sample.mag_field, sample.split)
            for sentence in sample.sentences:
                labels.append(1 if sentence.label == LABEL_CITE_WORTHY else 0)
                origins.append(origin)
                yield tokenize(sentence.text)

    return count_tokens(token_lists()), labels, origins


def _score(model: LinearModel, X, golds: list[int]) -> metrics.PRF:
    """Predict the rows of ``X`` and score them against ``golds``."""
    from .model import predict

    return metrics.precision_recall_f1(list(predict(model, X)), golds, positive_class=1)


def cmd_build(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    inputs = _resolve(args, config, "input", required=True)
    if isinstance(inputs, str):
        inputs = [inputs]
    if not (isinstance(inputs, list) and all(isinstance(p, str) for p in inputs)):
        raise UsageError(f"config file {args.config}: key 'input' must be a string "
                         f"or a list of strings, got {inputs!r}")
    output_dir = Path(_resolve(args, config, "output", str, required=True))
    seed = _resolve(args, config, "seed", int, required=True)
    quota = _resolve(args, config, "quota", int, default=1000)
    ratios = _parse_ratios(_resolve(args, config, "ratios", default="0.8,0.1,0.1"))
    workers = _resolve(args, config, "workers", int, default=1)
    if workers < 1:
        raise UsageError(f"--workers must be at least 1, got {workers}")
    baseline = _resolve(args, config, "baseline", bool, default=False)

    input_paths = [_require_file(p, "input corpus") for p in inputs]
    output_dir.mkdir(parents=True, exist_ok=True)
    # The manifest is written last and marks a complete build, so an earlier
    # build's manifest goes before anything else is replaced.
    (output_dir / MANIFEST_FILENAME).unlink(missing_ok=True)

    collected = collect_samples(input_paths, baseline=baseline, workers=workers)
    for diag in collected.diagnostics:
        logger.warning("malformed input %s, line %d: %s", diag.source, diag.line, diag.message)

    selected = balanced_sample(collected.samples, quota, seed)
    selected = split_dataset(selected, ratios, seed)

    write_dataset(selected, output_dir / DATASET_FILENAME)
    write_rejections(collected.rejections, output_dir / REJECTIONS_FILENAME)

    manifest = {
        "format_version": 1,
        "tool_version": __version__,
        "baseline": baseline,
        "seed": seed,
        "quota": quota,
        "ratios": list(ratios),
        "inputs": [str(p) for p in inputs],
        "counts": {
            "malformed_lines": len(collected.diagnostics),
            "papers_total": collected.papers_total,
            "papers_eligible": collected.papers_eligible,
            "paragraphs_accepted": len(collected.samples),
            "paragraphs_rejected": len(collected.rejections),
            "paragraphs_selected": len(selected),
            "sentences_selected": sum(s.sentence_count() for s in selected),
        },
        "rule_checksums": {
            "numeric_citation_pattern": _sha256(textproc.NUMERIC_CITATION_PATTERN),
            "author_year_citation_pattern": _sha256(textproc.AUTHOR_YEAR_CITATION_PATTERN),
            "hanging_citation_pattern": _sha256(textproc.HANGING_CITATION_PATTERN),
            "section_titles": _sha256("\n".join(PERMISSIBLE_SECTION_TITLES)),
        },
    }
    with atomic_write(output_dir / MANIFEST_FILENAME) as fh:
        json.dump(manifest, fh, ensure_ascii=False, sort_keys=True, indent=2)
        fh.write("\n")

    print(metrics.dataset_stats(selected).render_text())
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    path = _require_file(args.input, "dataset")
    report = metrics.dataset_stats(read_dataset(path))
    if args.json:
        print(json.dumps(asdict(report), ensure_ascii=False, sort_keys=True, indent=2))
    else:
        print(report.render_text())
    return 0


def cmd_audit_export(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    main_path = _require_file(_resolve(args, config, "input", str, required=True), "dataset")
    baseline_path = _require_file(
        _resolve(args, config, "baseline_input", str, required=True), "baseline dataset")
    n_per_class = _resolve(args, config, "n_per_class", int, default=500)
    seed = _resolve(args, config, "seed", int, required=True)
    output_dir = Path(_resolve(args, config, "output", str, required=True))
    output_dir.mkdir(parents=True, exist_ok=True)

    items = audit.sample_for_audit(
        read_dataset(main_path),
        read_dataset(baseline_path),
        n_per_class=n_per_class,
        seed=seed,
        sheet_path=output_dir / SHEET_FILENAME,
        key_path=output_dir / KEY_FILENAME,
    )
    print(f"wrote {len(items)} audit rows to {output_dir / SHEET_FILENAME}")
    print(f"method/label key (do not show the annotator): {output_dir / KEY_FILENAME}")
    return 0


def cmd_audit_score(args: argparse.Namespace) -> int:
    sheet = _require_file(args.sheet, "annotated sheet")
    key = _require_file(args.key, "key file")
    result = audit.score_audit(sheet, key)
    print(result.render_text())
    return 0


def _warn_unconverged(name: str, model: LinearModel) -> None:
    if not model.converged:
        logger.warning("%s did not converge in %d iterations (max|grad| %.3g)",
                       name, model.iterations, model.grad_max)


def _report_fit(name: str, model: LinearModel) -> None:
    state = "converged" if model.converged else "not converged"
    print(f"{name}: {model.iterations} iterations, max|grad| {model.grad_max:.3g}, {state}")
    _warn_unconverged(name, model)


def cmd_train(args: argparse.Namespace) -> int:
    from .model import (compute_class_weights, featurize, fit_vocabulary, save_model,
                        train_logreg, train_pu)

    config = _load_config(args.config)
    dataset_path = _require_file(_resolve(args, config, "input", str, required=True), "dataset")
    model_path = Path(_resolve(args, config, "output", str, required=True))
    seed = _resolve(args, config, "seed", int, required=True)
    c_value = _resolve(args, config, "c_value", float, default=DEFAULT_C)
    use_pu = _resolve(args, config, "pu", bool, default=False)
    split = _resolve_split(args, config, SPLIT_TRAIN)
    min_df = _resolve(args, config, "min_df", int, default=1)
    max_features = _resolve(args, config, "max_features", int)

    # The parsed samples are freed once counted, and the counts once
    # featurized: the fit is when the process holds the most memory.
    counts, labels, _ = _select_sentences(read_dataset(dataset_path), split)
    if not labels:
        raise ValueError(f"dataset has no sentences in split {split!r}")

    vocab = fit_vocabulary(counts, min_df=min_df, max_features=max_features)
    X = featurize(counts, vocab)
    del counts
    if use_pu:
        model: LinearModel | PUModel = train_pu(X, labels, seed=seed, C=c_value)
        print(f"labeling-frequency estimate: {model.c_estimate:.4f}")
        _report_fit("labeling fit", model.labeling_model)
        _report_fit("final fit", model.final_model)
    else:
        class_weights = compute_class_weights(labels)
        model = train_logreg(X, labels, class_weights, C=c_value)
        print(f"class weights: ({class_weights[0]:.4f}, {class_weights[1]:.4f})")
        _report_fit("fit", model)
    save_model(model_path, model, vocab)
    print(f"trained on {len(labels)} sentences (split={split}); model saved to {model_path}")
    return 0


def _scoring_model(model: LinearModel | PUModel) -> LinearModel:
    from .model import PUModel

    return model.final_model if isinstance(model, PUModel) else model


def cmd_eval(args: argparse.Namespace) -> int:
    from .model import featurize, load_model

    config = _load_config(args.config)
    model_path = _require_file(_resolve(args, config, "model", str, required=True), "model file")
    dataset_path = _require_file(_resolve(args, config, "input", str, required=True), "dataset")
    split = _resolve_split(args, config, SPLIT_TEST)
    field = _resolve(args, config, "field", str)

    model, vocab = load_model(model_path)
    if vocab is None:
        raise ValueError(f"{model_path} carries no vocabulary; cannot featurize text")
    counts, golds, _ = _select_sentences(read_dataset(dataset_path), split,
                                         None if field is None else {field})
    if not golds:
        raise ValueError(f"no sentences selected (split={split!r}, field={field!r})")
    print(_score(_scoring_model(model), featurize(counts, vocab), golds).render_text())
    return 0


def cmd_cross_domain(args: argparse.Namespace) -> int:
    from .model import compute_class_weights, featurize, fit_vocabulary, train_logreg

    config = _load_config(args.config)
    dataset_path = _require_file(_resolve(args, config, "input", str, required=True), "dataset")
    distances_path = _require_file(
        _resolve(args, config, "distances", str, required=True), "distance matrix")
    c_value = _resolve(args, config, "c_value", float, default=DEFAULT_C)
    min_df = _resolve(args, config, "min_df", int, default=1)
    fields_arg = _resolve(args, config, "fields", str)
    output = _resolve(args, config, "output", str)

    distances = metrics.read_distance_matrix(distances_path)
    if fields_arg:
        fields = list(dict.fromkeys(f.strip() for f in str(fields_arg).split(",") if f.strip()))
    else:
        fields = sorted({train for train, _ in distances})
    if len(fields) < 2:
        raise ValueError(f"the cross-domain grid needs two or more fields, got {fields}")
    metrics.require_pairs(distances, fields, "distance matrix")
    # Count each sentence once; every vocabulary below maps the same matrix.
    # In-domain cells score the held-out test split, out-of-domain cells the
    # entire other field.
    counts, labels, origins = _select_sentences(read_dataset(dataset_path), "all", set(fields))
    import numpy as np  # after .model, which sets the BLAS thread count

    labels = np.asarray(labels)
    row_field = np.array([field for field, _ in origins])
    row_split = np.array([split for _, split in origins])

    def rows(field: str, split: str) -> np.ndarray:
        in_field = row_field == field
        found = np.flatnonzero(in_field if split == "all" else in_field & (row_split == split))
        if not found.size:
            raise ValueError(f"field {field!r} has no train sentences" if split == SPLIT_TRAIN
                             else f"field {field!r} has no sentences for split {split!r}")
        return found

    # Every field's rows, checked before the first fit.
    selected = {(field, split): rows(field, split)
                for field in fields for split in ("all", SPLIT_TRAIN, SPLIT_TEST)}
    f1_by_pair: dict[tuple[str, str], float] = {}
    for train_field in fields:
        train_rows = selected[train_field, SPLIT_TRAIN]
        train_labels = labels[train_rows].tolist()
        vocab = fit_vocabulary(counts.rows(train_rows), min_df=min_df)
        # Rows are featurized independently, so one pass over every sentence
        # serves the fit and all of its test cells.
        X = featurize(counts, vocab)
        model = train_logreg(X[train_rows], train_labels,
                             compute_class_weights(train_labels), C=c_value)
        _warn_unconverged(f"fit on {train_field}", model)
        for test_field in fields:
            eval_rows = selected[test_field, SPLIT_TEST if test_field == train_field else "all"]
            f1_by_pair[train_field, test_field] = 100.0 * _score(
                model, X[eval_rows], labels[eval_rows].tolist()).f1

    grid = metrics.domain_grid(f1_by_pair, distances, fields=fields)
    print(grid.render_text())
    if output:
        with atomic_write(output) as fh:
            fh.write(metrics.grid_to_json(grid) + "\n")
        print(f"grid written to {output}")
    return 0


def cmd_dump_rules(_args: argparse.Namespace) -> int:
    print(f"section-titles ({len(PERMISSIBLE_SECTION_TITLES)}):")
    for title in PERMISSIBLE_SECTION_TITLES:
        print(title)
    print()
    print("citation-format pattern [numeric]:")
    print(textproc.NUMERIC_CITATION_PATTERN)
    print()
    print("citation-format pattern [author-year]:")
    print(textproc.AUTHOR_YEAR_CITATION_PATTERN)
    print()
    print("hanging-citation pattern:")
    print(textproc.HANGING_CITATION_PATTERN)
    print()
    print(f"sentence-split abbreviations ({len(textproc.ABBREVIATIONS)}):")
    for abbreviation in textproc.ABBREVIATIONS:
        print(abbreviation)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="citecorpus",
        description="Build and evaluate cite-worthiness datasets from structured papers.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="run the full extraction pipeline")
    p.add_argument("--input", action="append", help="corpus file (repeatable)")
    p.add_argument("--output", help="output directory")
    p.add_argument("--seed", type=int)
    p.add_argument("--quota", type=int, help="paragraphs per field (default 1000)")
    p.add_argument("--ratios", help="train,dev,test sentence shares (default 0.8,0.1,0.1)")
    p.add_argument("--workers", type=int, help="parallel paper workers (default 1)")
    p.add_argument("--baseline", action="store_true", default=None,
                   help="naive span-removal variant (audit comparison only)")
    p.add_argument("--config", help="JSON file supplying flags; flags override it")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("stats", help="print dataset statistics")
    p.add_argument("--input", required=True)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("audit-export", help="export a blinded annotation sheet")
    p.add_argument("--input", help="main-pipeline dataset")
    p.add_argument("--baseline-input", dest="baseline_input", help="baseline dataset")
    p.add_argument("--n-per-class", dest="n_per_class", type=int,
                   help="sentences per (method, class) stratum (default 500)")
    p.add_argument("--seed", type=int)
    p.add_argument("--output", help="output directory")
    p.add_argument("--config")
    p.set_defaults(func=cmd_audit_export)

    p = sub.add_parser("audit-score", help="score an annotated sheet")
    p.add_argument("--sheet", required=True)
    p.add_argument("--key", required=True)
    p.set_defaults(func=cmd_audit_score)

    p = sub.add_parser("train", help="train a classifier on a dataset")
    p.add_argument("--input", help="dataset file")
    p.add_argument("--output", help="model file to write")
    p.add_argument("--seed", type=int)
    p.add_argument("--c-value", dest="c_value", type=float,
                   help=f"inverse regularization strength (default {DEFAULT_C})")
    p.add_argument("--pu", action="store_true", default=None,
                   help="positive-unlabeled training")
    p.add_argument("--split", choices=SPLIT_CHOICES)
    p.add_argument("--min-df", dest="min_df", type=int)
    p.add_argument("--max-features", dest="max_features", type=int)
    p.add_argument("--config")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a model on a dataset")
    p.add_argument("--model")
    p.add_argument("--input")
    p.add_argument("--split", choices=SPLIT_CHOICES)
    p.add_argument("--field", help="restrict to one subject field")
    p.add_argument("--config")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("cross-domain", help="train/test grid across fields")
    p.add_argument("--input")
    p.add_argument("--distances", help="labeled distance-matrix file")
    p.add_argument("--fields", help="comma-separated field subset")
    p.add_argument("--seed", type=int, help="ignored: the grid has no random choices")
    p.add_argument("--c-value", dest="c_value", type=float)
    p.add_argument("--min-df", dest="min_df", type=int)
    p.add_argument("--output", help="write the grid as JSON here")
    p.add_argument("--config")
    p.set_defaults(func=cmd_cross_domain)

    p = sub.add_parser("dump-rules", help="print the embedded rules verbatim")
    p.set_defaults(func=cmd_dump_rules)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
