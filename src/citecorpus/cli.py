"""Command-line entry point orchestrating the corpus and model tooling.

Commands: build, stats, audit-export, audit-score, train, eval,
cross-domain, dump-rules. Every source of randomness flows from the explicit
--seed flag, and build outputs contain no wall-clock or host information, so
reruns with the same config are byte-identical.

Exit codes: 0 success, 1 validation or data error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING

from . import DEFAULT_C, __version__, audit, metrics, textproc, to_json, write_json
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
    ratios_are_valid,
    read_dataset,
    split_dataset,
    write_dataset,
    write_rejections,
)
from .textproc import tokenize

if TYPE_CHECKING:
    from .model import LinearModel, PUModel, SentenceTable

logger = logging.getLogger("citecorpus")

DATASET_FILENAME = "dataset.jsonl"
MANIFEST_FILENAME = "manifest.json"
REJECTIONS_FILENAME = "rejections.jsonl"
SHEET_FILENAME = "sheet.tsv"
KEY_FILENAME = "key.jsonl"


class UsageError(ValueError):
    """Bad invocation: missing files, unusable flags. Exit code 2."""


# The embedded rules, in ``dump-rules`` order: (manifest checksum key,
# ``dump-rules`` heading, lines). A rule's checksum is the SHA-256 of its
# lines joined by newlines.
RULES = (
    ("section_titles", f"section-titles ({len(PERMISSIBLE_SECTION_TITLES)}):",
     PERMISSIBLE_SECTION_TITLES),
    ("numeric_citation_pattern", "citation-format pattern [numeric]:",
     (textproc.NUMERIC_CITATION_PATTERN,)),
    ("author_year_citation_pattern", "citation-format pattern [author-year]:",
     (textproc.AUTHOR_YEAR_CITATION_PATTERN,)),
    ("hanging_citation_pattern", "hanging-citation pattern:",
     (textproc.HANGING_CITATION_PATTERN,)),
    ("sentence_split_abbreviations",
     f"sentence-split abbreviations ({len(textproc.ABBREVIATIONS)}):", textproc.ABBREVIATIONS),
)


def _load_config(args: argparse.Namespace) -> dict:
    """The object in the ``--config`` file, or {} without one. A key that
    names no option of the command is a usage error."""
    path = args.config
    if path is None:
        return {}
    _require_file(path, "config file")
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
    for key in config:
        if key not in args.options:
            raise UsageError(f"config file {path}: key {key!r} is not an option of "
                             f"{args.command} ({', '.join(sorted(args.options))})")
    return config


SPLIT_CHOICES = (*SPLITS, "all")


def _integer(value) -> int:
    """``int()``, except that a bool, a fraction or a non-finite number is
    not an integer."""
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise ValueError
    return int(value)


def _number(value) -> float:
    if isinstance(value, bool):
        raise ValueError
    return float(value)


def _accept(test):
    """A converter that passes a value for which ``test`` holds."""
    def convert(value):
        if not test(value):
            raise ValueError
        return value
    return convert


def _ratios(value) -> tuple[float, ...]:
    parts = value.split(",") if isinstance(value, str) else value
    if not isinstance(parts, list) or len(parts) != 3:
        raise ValueError
    return tuple(_number(part) for part in parts)


def _paths(value) -> list[str]:
    paths = [value] if isinstance(value, str) else value
    if not (isinstance(paths, list) and paths and all(isinstance(p, str) for p in paths)):
        raise ValueError
    return paths


# Option kinds: (description, converter). A converter takes a flag string or
# a config value alike and raises TypeError, ValueError or OverflowError on
# a value that is not of its kind.
INTEGER = ("an integer", _integer)
NUMBER = ("a number", _number)
SWITCH = ("true or false", _accept(lambda value: isinstance(value, bool)))
TEXT = ("a string", _accept(lambda value: isinstance(value, str)))
PATHS = ("a string or a non-empty list of strings", _paths)
SPLIT = (f"one of {', '.join(SPLIT_CHOICES)}", _accept(lambda value: value in SPLIT_CHOICES))
RATIOS = ("three comma-separated numbers", _ratios)

# The ceiling on --workers, so that a mistyped value cannot start thousands of
# processes at once: one process per core, but never below the 8 that the
# acceptance tests run on any host.
MAX_WORKERS = max(8, os.cpu_count() or 1)

# Range checks: (description, predicate on the converted value).
POSITIVE = ("finite and greater than 0", lambda value: math.isfinite(value) and value > 0)
SHARES = ("three finite, non-negative numbers that sum to 1", ratios_are_valid)
WORKERS = (f"from 1 to {MAX_WORKERS}", lambda value: 1 <= value <= MAX_WORKERS)


def _at_least(minimum: int) -> tuple:
    return f"at least {minimum}", lambda value: value >= minimum


def _command(sub, name: str, func, help: str) -> argparse.ArgumentParser:
    """A subcommand whose options ``_option`` declares and a config file may supply."""
    parser = sub.add_parser(name, help=help)
    parser.set_defaults(func=func, options={})
    parser.add_argument("--config", help="JSON file supplying flags; flags override it")
    return parser


def _option(parser: argparse.ArgumentParser, name: str, kind: tuple, default=None,
            required: bool = False, check: tuple | None = None, help: str | None = None):
    """Declare option ``name``: its flag, and the kind, default, requirement
    and range check that ``_resolve_options`` applies to it."""
    parser.get_default("options")[name] = (kind, default, required, check)
    if default is not None and kind is not SWITCH:
        help = f"{help} (default {default})" if help else f"default {default}"
    parser.add_argument("--" + name.replace("_", "-"), default=None, help=help,
                        action={SWITCH: "store_true", PATHS: "append"}.get(kind, "store"))


def _resolve_options(args: argparse.Namespace) -> None:
    """Set each declared option to its flag value, else its config value (a
    null counts as absent), else its default. Flag strings and config values
    go through the same kind converter and range check. A value not of the
    kind is a usage error naming the flag, or the file and key; a value out
    of range names the flag."""
    config = _load_config(args)
    for name, (kind, default, required, check) in args.options.items():
        flag = "--" + name.replace("_", "-")
        value, source = getattr(args, name), flag
        if value is None and config.get(name) is not None:
            value, source = config[name], f"config file {args.config}: key {name!r}"
        if value is None:
            value = default
        if value is None:
            if required:
                raise UsageError(f"{flag} is required (flag or config file)")
            continue
        try:
            converted = kind[1](value)
        except (TypeError, ValueError, OverflowError):
            raise UsageError(f"{source} must be {kind[0]}, got {value!r}") from None
        if check is not None and not check[1](converted):
            raise UsageError(f"{flag} must be {check[0]}, got {value}")
        setattr(args, name, converted)


def _require_file(path: str, what: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"{what} not found: {path}")
    return p


def _require_output(path: str, what: str) -> Path:
    """The file to write, checked before any work: not a directory, and in
    a directory that exists."""
    p = Path(path)
    if p.is_dir():
        raise UsageError(f"{what} is a directory: {path}")
    if not p.parent.is_dir():
        raise UsageError(f"{what} is in a directory that does not exist: {path}")
    return p


def _select_sentences(
    samples: list[ParagraphSample], split: str, fields: set[str] | None = None
) -> SentenceTable:
    """The sentences in ``split`` ("all" for every split) whose field is in
    ``fields`` (None for every field), in dataset order. The one place the
    model commands tokenize; the token lists go straight into the count
    matrix."""
    from .model import SentenceTable, count_tokens
    import numpy as np  # after .model, which sets the BLAS thread count

    chosen = [sample for sample in samples
              if (split == "all" or sample.split == split)
              and (fields is None or sample.mag_field in fields)]
    sentences = [sentence for sample in chosen for sentence in sample.sentences]
    groups: dict[tuple[str, str], int] = {}
    group = [groups.setdefault((sample.mag_field, sample.split), len(groups)) for sample in chosen]
    return SentenceTable(
        count_tokens(tokenize(sentence.text) for sentence in sentences),
        np.array([sentence.label == LABEL_CITE_WORTHY for sentence in sentences], dtype=int),
        np.repeat(group, [len(sample.sentences) for sample in chosen]), groups)


def cmd_build(args: argparse.Namespace) -> int:
    import hashlib

    input_paths = [_require_file(p, "input corpus") for p in args.input]
    # One file read twice repeats every paper in it; a link or another
    # spelling of the path is the same file.
    given_as: dict[tuple[int, int], str] = {}
    for given, path in zip(args.input, input_paths):
        stat = path.stat()
        file = (stat.st_dev, stat.st_ino)
        if file in given_as:
            raise UsageError(f"--input {given_as[file]} and --input {given} name the same file")
        given_as[file] = given
    output_dir = Path(args.output)
    output_dir.mkdir(parents=True, exist_ok=True)
    # The manifest is written last and marks a complete build, so an earlier
    # build's manifest goes before anything else is replaced.
    (output_dir / MANIFEST_FILENAME).unlink(missing_ok=True)

    collected = collect_samples(input_paths, baseline=args.baseline, workers=args.workers)
    for diag in collected.diagnostics:
        logger.warning("malformed input %s, line %d: %s", diag.source, diag.line, diag.message)

    selected = balanced_sample(collected.samples, args.quota, args.seed)
    selected = split_dataset(selected, args.ratios, args.seed)

    write_dataset(selected, output_dir / DATASET_FILENAME)
    write_rejections(collected.rejections, output_dir / REJECTIONS_FILENAME)

    manifest = {
        "format_version": 1,
        "tool_version": __version__,
        "baseline": args.baseline,
        "seed": args.seed,
        "quota": args.quota,
        "ratios": list(args.ratios),
        "inputs": args.input,
        "counts": {
            "malformed_lines": len(collected.diagnostics),
            "papers_total": len(collected.read_at),
            "papers_eligible": collected.papers_eligible,
            "paragraphs_accepted": len(collected.samples),
            "paragraphs_rejected": len(collected.rejections),
            "paragraphs_selected": len(selected),
            "sentences_selected": sum(s.sentence_count() for s in selected),
        },
        "rule_checksums": {key: hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
                           for key, _, lines in RULES},
    }
    write_json(output_dir / MANIFEST_FILENAME, [manifest], indent=2)

    print(metrics.dataset_stats(selected).render_text())
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    path = _require_file(args.input, "dataset")
    report = metrics.dataset_stats(read_dataset(path))
    if args.json:
        print(to_json(asdict(report), indent=2))
    else:
        print(report.render_text())
    return 0


def cmd_audit_export(args: argparse.Namespace) -> int:
    main_path = _require_file(args.input, "dataset")
    baseline_path = _require_file(args.baseline_input, "baseline dataset")
    output_dir = Path(args.output)
    output_dir.mkdir(parents=True, exist_ok=True)

    items = audit.sample_for_audit(
        read_dataset(main_path),
        read_dataset(baseline_path),
        n_per_class=args.n_per_class,
        seed=args.seed,
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

    dataset_path = _require_file(args.input, "dataset")
    model_path, split = _require_output(args.output, "model file"), args.split
    # The parsed samples are freed once counted, and the counts once
    # featurized: the fit is when the process holds the most memory.
    table = _select_sentences(read_dataset(dataset_path), split)
    labels = table.label[table.rows(split=split)]
    vocab = fit_vocabulary(table.counts, min_df=args.min_df, max_features=args.max_features)
    X = featurize(table.counts, vocab)
    del table
    if args.pu:
        model: LinearModel | PUModel = train_pu(X, labels, seed=args.seed, C=args.c_value)
        print(f"labeling-frequency estimate: {model.c_estimate:.4f}")
        _report_fit("labeling fit", model.labeling_model)
        _report_fit("final fit", model.final_model)
    else:
        class_weights = compute_class_weights(labels)
        model = train_logreg(X, labels, class_weights, C=args.c_value)
        print(f"class weights: ({class_weights[0]:.4f}, {class_weights[1]:.4f})")
        _report_fit("fit", model)
    save_model(model_path, model, vocab)
    print(f"trained on {len(labels)} sentences (split={split}); model saved to {model_path}")
    return 0


def _scoring_model(model: LinearModel | PUModel) -> LinearModel:
    from .model import PUModel

    return model.final_model if isinstance(model, PUModel) else model


def cmd_eval(args: argparse.Namespace) -> int:
    from .model import featurize, load_model, predict

    model_path = _require_file(args.model, "model file")
    dataset_path = _require_file(args.input, "dataset")
    split, field = args.split, args.field

    model, vocab = load_model(model_path)
    table = _select_sentences(read_dataset(dataset_path), split,
                              None if field is None else {field})
    golds = table.label[table.rows(field, split)]
    predicted = predict(_scoring_model(model), featurize(table.counts, vocab))
    print(metrics.precision_recall_f1(predicted, golds).render_text())
    return 0


def cmd_cross_domain(args: argparse.Namespace) -> int:
    from .model import (TrainingError, compute_class_weights, featurize, fit_vocabulary,
                        predict, train_logreg)

    dataset_path = _require_file(args.input, "dataset")
    distances_path = _require_file(args.distances, "distance matrix")
    if args.output:
        _require_output(args.output, "grid file")

    distances = metrics.read_distance_matrix(distances_path)
    if args.fields:
        fields = list(dict.fromkeys(f.strip() for f in args.fields.split(",") if f.strip()))
    else:
        fields = sorted({train for train, _ in distances})
    if len(fields) < 2:
        raise ValueError(f"the cross-domain grid needs two or more fields, got {fields}")
    metrics.require_pairs(distances, fields, "distance matrix")
    # Count each sentence once; every vocabulary below maps the same matrix.
    # In-domain cells score the held-out test split, out-of-domain cells the
    # entire other field.
    table = _select_sentences(read_dataset(dataset_path), "all", set(fields))
    # Every field's rows, class weights and distance column, checked before
    # the first fit.
    selected = {(field, split): table.rows(field, split)
                for field in fields for split in ("all", SPLIT_TRAIN, SPLIT_TEST)}
    class_weights = {}
    for field in fields:
        try:
            class_weights[field] = compute_class_weights(table.label[selected[field, SPLIT_TRAIN]])
        except TrainingError as exc:
            raise TrainingError(f"field {field!r}, split {SPLIT_TRAIN!r}: {exc}") from exc
    for test_field in fields:
        column = [distances[train_field, test_field] for train_field in fields]
        if len(set(column)) == 1:
            raise ValueError(f"{distances_path}: every distance to test field {test_field!r} "
                             "is the same, so its rho is undefined")
    f1_by_pair: dict[tuple[str, str], float] = {}
    for train_field in fields:
        train_rows = selected[train_field, SPLIT_TRAIN]
        train_labels = table.label[train_rows]
        vocab = fit_vocabulary(table.counts.rows(train_rows), min_df=args.min_df)
        # Rows are featurized and predicted independently, so one pass over
        # every sentence serves the fit and all of its test cells.
        X = featurize(table.counts, vocab)
        model = train_logreg(X[train_rows], train_labels, class_weights[train_field],
                             C=args.c_value)
        _warn_unconverged(f"fit on {train_field}", model)
        predicted = predict(model, X)
        for test_field in fields:
            eval_rows = selected[test_field, SPLIT_TEST if test_field == train_field else "all"]
            f1_by_pair[train_field, test_field] = 100.0 * metrics.precision_recall_f1(
                predicted[eval_rows], table.label[eval_rows]).f1

    grid = metrics.domain_grid(f1_by_pair, distances, fields=fields)
    print(grid.render_text())
    if args.output:
        write_json(args.output, [asdict(grid)], indent=2)
        print(f"grid written to {args.output}")
    return 0


def cmd_dump_rules(_args: argparse.Namespace) -> int:
    print("\n\n".join("\n".join((heading, *lines)) for _, heading, lines in RULES))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="citecorpus",
        description="Build and evaluate cite-worthiness datasets from structured papers.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(sub, "build", cmd_build, "run the full extraction pipeline")
    _option(p, "input", PATHS, required=True, help="corpus file (repeatable)")
    _option(p, "output", TEXT, required=True, help="output directory")
    _option(p, "seed", INTEGER, required=True)
    _option(p, "quota", INTEGER, 1000, check=_at_least(0), help="paragraphs per field")
    _option(p, "ratios", RATIOS, "0.8,0.1,0.1", check=SHARES,
            help="train,dev,test sentence shares")
    _option(p, "workers", INTEGER, 1, check=WORKERS,
            help=f"parallel paper workers, at most {MAX_WORKERS}")
    _option(p, "baseline", SWITCH, False,
            help="naive span-removal variant (audit comparison only)")

    p = sub.add_parser("stats", help="print dataset statistics")
    p.add_argument("--input", required=True)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_stats)

    p = _command(sub, "audit-export", cmd_audit_export, "export a blinded annotation sheet")
    _option(p, "input", TEXT, required=True, help="main-pipeline dataset")
    _option(p, "baseline_input", TEXT, required=True, help="baseline dataset")
    _option(p, "n_per_class", INTEGER, 500, check=_at_least(0),
            help="sentences per (method, class) stratum")
    _option(p, "seed", INTEGER, required=True)
    _option(p, "output", TEXT, required=True, help="output directory")

    p = sub.add_parser("audit-score", help="score an annotated sheet")
    p.add_argument("--sheet", required=True)
    p.add_argument("--key", required=True)
    p.set_defaults(func=cmd_audit_score)

    p = _command(sub, "train", cmd_train, "train a classifier on a dataset")
    _option(p, "input", TEXT, required=True, help="dataset file")
    _option(p, "output", TEXT, required=True, help="model file to write")
    _option(p, "seed", INTEGER, required=True, check=_at_least(0))
    _option(p, "c_value", NUMBER, DEFAULT_C, check=POSITIVE,
            help="inverse regularization strength")
    _option(p, "pu", SWITCH, False, help="positive-unlabeled training")
    _option(p, "split", SPLIT, SPLIT_TRAIN, help="train, dev, test or all")
    _option(p, "min_df", INTEGER, 1, check=_at_least(1))
    _option(p, "max_features", INTEGER, check=_at_least(1))

    p = _command(sub, "eval", cmd_eval, "evaluate a model on a dataset")
    _option(p, "model", TEXT, required=True)
    _option(p, "input", TEXT, required=True)
    _option(p, "split", SPLIT, SPLIT_TEST, help="train, dev, test or all")
    _option(p, "field", TEXT, help="restrict to one subject field")

    p = _command(sub, "cross-domain", cmd_cross_domain, "train/test grid across fields")
    _option(p, "input", TEXT, required=True)
    _option(p, "distances", TEXT, required=True, help="labeled distance-matrix file")
    _option(p, "fields", TEXT, help="comma-separated field subset")
    _option(p, "seed", INTEGER, help="ignored: the grid has no random choices")
    _option(p, "c_value", NUMBER, DEFAULT_C, check=POSITIVE)
    _option(p, "min_df", INTEGER, 1, check=_at_least(1))
    _option(p, "output", TEXT, help="write the grid as JSON here")

    p = sub.add_parser("dump-rules", help="print the embedded rules verbatim")
    p.set_defaults(func=cmd_dump_rules)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        if "options" in args:
            _resolve_options(args)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
