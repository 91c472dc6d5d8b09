"""Command-line entry point orchestrating the corpus and model tooling.

Commands: build, stats, audit-export, audit-score, train, eval,
cross-domain, dump-rules. Every source of randomness flows from the explicit
--seed flag, and build outputs contain no wall-clock or host information, so
reruns with the same config are byte-identical.

Exit codes: 0 success, 1 validation or data error, 2 usage error.

Each command imports the layers it runs when it starts, so a model command
whose dataset has a table cache loads neither the corpus parser, the build
pipeline nor the text processing, and no build-side command loads numpy.
The model commands get their sentences from ``model.read_table``, which
owns the table cache; ``cross-domain`` keeps only the sentences of the
fields its grid scores. Each path option is declared with its file role,
and every such file is checked before the command starts, so a usage error
about a file loads none of the layers.

``main`` runs one command in the calling process and returns its exit code;
``run``, the process entry, ends the process after it.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING, NoReturn

from . import (DEFAULT_C, SPLIT_TEST, SPLIT_TRAIN, SPLITS, __version__, from_json,
               ratios_are_valid, read_lines, to_json, write_json)

if TYPE_CHECKING:
    from .model import LinearModel, PUModel

logger = logging.getLogger("citecorpus")

DATASET_FILENAME = "dataset.jsonl"
MANIFEST_FILENAME = "manifest.json"
REJECTIONS_FILENAME = "rejections.jsonl"
SHEET_FILENAME = "sheet.tsv"
KEY_FILENAME = "key.jsonl"


class UsageError(ValueError):
    """Bad invocation: missing files, unusable flags. Exit code 2."""


def _load_config(args: argparse.Namespace) -> dict:
    """The object in the ``--config`` file, or {} without one. A key that
    names no option of the command is a usage error."""
    path = args.config
    if path is None:
        return {}
    _check_paths([("--config", path, "config file", READS)])
    try:
        text = "".join(line for _, line in read_lines(path))
    except ValueError as exc:
        raise UsageError(f"config file {exc}") from exc
    try:
        config = from_json(text)
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
    if type(value) is bool or type(value) is float and not value.is_integer():
        raise ValueError
    return int(value)


def _number(value) -> float:
    if type(value) is bool:
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
SWITCH = ("true or false", _accept(lambda value: type(value) is bool))
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


# File roles of a path option: a file the command reads, a file it writes,
# or, as the tuple of their names, the files it writes into a directory.
READS = "reads"
WRITES = "writes"


def _command(sub, name: str, func, help: str) -> argparse.ArgumentParser:
    """A subcommand whose options ``_option`` declares and a config file may supply."""
    parser = sub.add_parser(name, help=help)
    parser.set_defaults(func=func, options={})
    parser.add_argument("--config", help="JSON file supplying flags; flags override it")
    return parser


def _option(parser: argparse.ArgumentParser, name: str, kind: tuple, default=None,
            required: bool = False, check: tuple | None = None, help: str | None = None,
            file: tuple[str, str | tuple[str, ...]] | None = None):
    """Declare option ``name``: its flag, and the kind, default, requirement
    and range check that ``_resolve_options`` applies to it. A path option
    gives ``file``, what its file is called in messages and its role."""
    parser.get_default("options")[name] = (kind, default, required, check, file)
    if default is not None and kind is not SWITCH:
        help = f"{help} (default {default})" if help else f"default {default}"
    parser.add_argument("--" + name.replace("_", "-"), default=None, help=help,
                        action={SWITCH: "store_true", PATHS: "append"}.get(kind, "store"))


def _resolve_options(args: argparse.Namespace) -> None:
    """Set each declared option to its flag value, else its config value (a
    null counts as absent), else its default. Flag strings and config values
    go through the same kind converter and range check. A value not of the
    kind, or a string holding a NUL, is a usage error naming the flag, or
    the file and key; a value out of range names the flag. Then the files
    of the path options are checked, in the order they are declared."""
    config = _load_config(args)
    files = []
    for name, (kind, default, required, check, file) in args.options.items():
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
        # No path holds a NUL, and argv cannot: only a config file supplies one.
        texts = converted if kind is PATHS else [converted] if kind is TEXT else []
        if any("\0" in text for text in texts):
            raise UsageError(f"{source} must not hold a NUL character, got {value!r}")
        if check is not None and not check[1](converted):
            raise UsageError(f"{flag} must be {check[0]}, got {value}")
        setattr(args, name, converted)
        if file is not None:
            files += [(flag, path, *file) for path in texts]
    _check_paths(files)


def _check_paths(files: list[tuple[str, str, str, str | tuple[str, ...]]]) -> None:
    """Check each (flag, path, what, role) in turn, then refuse two files
    that are one. A file to read must be a regular file: not a directory,
    and not a pipe, which the table cache and the same-file check cannot
    rely on. A file to write must not be or name a directory (a path ending
    in a separator, ``.`` or ``..`` does, and ``Path`` drops a trailing
    separator) and must be in one that exists. A directory to write into
    must be one or be makeable: no file above it."""
    named = []
    for flag, path, what, role in files:
        p = Path(path)
        if role == READS:
            if not p.is_file():
                problem = ("is a directory" if p.is_dir() else
                           "is not a regular file" if p.exists() else "not found")
                raise UsageError(f"{what} {problem}: {path}")
            named.append((f"{flag} {path}", p))
            continue
        if role == WRITES:
            if p.is_dir():
                raise UsageError(f"{what} is a directory: {path}")
            if os.path.basename(path) in ("", os.curdir, os.pardir):
                raise UsageError(f"{what} names a directory: {path}")
            named.append((f"{flag} {path}", p))
            missing = not p.parent.is_dir()
        else:
            if p.exists() and not p.is_dir():
                raise UsageError(f"{what} is not a directory: {path}")
            named += [(f"{what} {p / name}", p / name) for name in role]
            missing = not p.exists()
        if missing:
            above = next(parent for parent in p.parents if parent.exists())
            if not above.is_dir():
                raise UsageError(f"{what} is under {above}, which is not a directory: {path}")
            if role == WRITES:
                raise UsageError(f"{what} is in a directory that does not exist: {path}")
    _require_distinct(named)


def _require_distinct(named: list[tuple[str, Path]]) -> None:
    """Refuse two of the (name, path) pairs that are one file, before any
    file is written or removed: a file read twice repeats its records, and
    an output that is an input replaces it. A link or another spelling of
    the path is the same file; a path that does not exist is no file yet."""
    existing = [(name, path) for name, path in named if path.exists()]
    for later, (name, path) in enumerate(existing):
        for earlier_name, earlier in existing[:later]:
            if path.samefile(earlier):
                raise UsageError(f"{earlier_name} and {name} name the same file")


def cmd_build(args: argparse.Namespace) -> int:
    import hashlib

    from . import metrics
    from .pipeline import (RULES, balanced_sample, collect_samples, split_dataset,
                           write_dataset, write_rejections)

    output_dir = Path(args.output)
    output_dir.mkdir(parents=True, exist_ok=True)
    # The manifest is written last and marks a complete build, so an earlier
    # build's manifest goes before anything else is replaced.
    (output_dir / MANIFEST_FILENAME).unlink(missing_ok=True)

    collected = collect_samples(map(Path, args.input), baseline=args.baseline,
                                workers=args.workers)
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
            "sentences_selected": sum(len(s.sentences) for s in selected),
        },
        "rule_checksums": {key: hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
                           for key, _, lines in RULES},
    }
    write_json(output_dir / MANIFEST_FILENAME, [manifest], indent=2)

    print(metrics.dataset_stats(selected).render_text())
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    _check_paths([("--input", args.input, "dataset", READS)])
    from . import metrics
    from .pipeline import read_dataset

    report = metrics.dataset_stats(read_dataset(Path(args.input)))
    if args.json:
        print(to_json(asdict(report), indent=2))
    else:
        print(report.render_text())
    return 0


def cmd_audit_export(args: argparse.Namespace) -> int:
    from . import audit
    from .pipeline import read_dataset

    output_dir = Path(args.output)
    output_dir.mkdir(parents=True, exist_ok=True)

    items = audit.sample_for_audit(
        read_dataset(Path(args.input)),
        read_dataset(Path(args.baseline_input)),
        n_per_class=args.n_per_class,
        seed=args.seed,
        sheet_path=output_dir / SHEET_FILENAME,
        key_path=output_dir / KEY_FILENAME,
    )
    print(f"wrote {len(items)} audit rows to {output_dir / SHEET_FILENAME}")
    print(f"method/label key (do not show the annotator): {output_dir / KEY_FILENAME}")
    return 0


def cmd_audit_score(args: argparse.Namespace) -> int:
    _check_paths([("--sheet", args.sheet, "annotated sheet", READS),
                  ("--key", args.key, "key file", READS)])
    from . import audit

    result = audit.score_audit(Path(args.sheet), Path(args.key))
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
    from .model import (compute_class_weights, featurize, fit_vocabulary, read_table,
                        save_model, train_logreg, train_pu)

    model_path, split = Path(args.output), args.split
    # The whole table is freed once its rows are taken, and their counts
    # once featurized: the fit is when the process holds the most memory.
    table = read_table(Path(args.input))
    rows = table.rows(split=split)
    counts, labels = table.counts.rows(rows), table.label[rows]
    del table
    vocab = fit_vocabulary(counts, min_df=args.min_df, max_features=args.max_features)
    X = featurize(counts, vocab)
    del counts
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


def cmd_eval(args: argparse.Namespace) -> int:
    from . import metrics
    from .model import PUModel, featurize, load_model, predict, read_table

    model, vocab = load_model(Path(args.model))
    if isinstance(model, PUModel):
        model = model.final_model
    table = read_table(Path(args.input))
    rows = table.rows(args.field, args.split)
    counts, golds = table.counts.rows(rows), table.label[rows]
    del table
    predicted = predict(model, featurize(counts, vocab))
    print(metrics.precision_recall_f1(predicted, golds).render_text())
    return 0


def cmd_cross_domain(args: argparse.Namespace) -> int:
    from . import metrics
    from .model import (TrainingError, compute_class_weights, featurize, fit_vocabulary,
                        predict, read_table, train_logreg)
    import numpy as np  # after .model, which sets the BLAS thread count

    distances_path = Path(args.distances)
    distances = metrics.read_distance_matrix(distances_path)
    if args.fields:
        fields = list(dict.fromkeys(f.strip() for f in args.fields.split(",") if f.strip()))
    else:
        fields = sorted({train for train, _ in distances})
    if len(fields) < 2:
        raise ValueError(f"the cross-domain grid needs two or more fields, got {fields}")
    try:
        metrics.require_pairs(distances, fields, "distance matrix")
    except ValueError as exc:
        raise ValueError(f"{distances_path}: {exc}") from exc
    # Count each sentence once; every vocabulary below maps the same matrix.
    # In-domain cells score the held-out test split, out-of-domain cells the
    # entire other field.
    table = read_table(Path(args.input))
    # Every field's rows, class weights, vocabulary and distance column,
    # checked before the first fit.
    selected = {(field, split): table.rows(field, split)
                for field in fields for split in ("all", SPLIT_TRAIN, SPLIT_TEST)}
    class_weights, vocabularies = {}, {}
    for field in fields:
        train_rows = selected[field, SPLIT_TRAIN]
        try:
            class_weights[field] = compute_class_weights(table.label[train_rows])
            vocabularies[field] = fit_vocabulary(table.counts.rows(train_rows),
                                                 min_df=args.min_df)
        except TrainingError as exc:
            raise TrainingError(f"field {field!r}, split {SPLIT_TRAIN!r}: {exc}") from exc
    for test_field in fields:
        column = [distances[train_field, test_field] for train_field in fields]
        if len(set(column)) == 1:
            raise ValueError(f"{distances_path}: every distance to test field {test_field!r} "
                             "is the same, so its rho is undefined")
    # Only the grid's fields are featurized: their rows are copied out once
    # and each selection renumbered.
    keep = np.sort(np.concatenate([selected[field, "all"] for field in fields]))
    counts, labels = table.counts.rows(keep), table.label[keep]
    selected = {key: np.searchsorted(keep, rows) for key, rows in selected.items()}
    del table
    f1_by_pair: dict[tuple[str, str], float] = {}
    for train_field in fields:
        train_rows = selected[train_field, SPLIT_TRAIN]
        # Rows are featurized and predicted independently, so one pass over
        # the grid's sentences serves the fit and all of its test cells.
        X = featurize(counts, vocabularies[train_field])
        try:
            model = train_logreg(X[train_rows], labels[train_rows], class_weights[train_field],
                                 C=args.c_value)
        except TrainingError as exc:
            raise TrainingError(f"field {train_field!r}, split {SPLIT_TRAIN!r}: {exc}") from exc
        _warn_unconverged(f"fit on {train_field}", model)
        predicted = predict(model, X)
        for test_field in fields:
            eval_rows = selected[test_field, SPLIT_TEST if test_field == train_field else "all"]
            f1_by_pair[train_field, test_field] = 100.0 * metrics.precision_recall_f1(
                predicted[eval_rows], labels[eval_rows]).f1

    grid = metrics.domain_grid(f1_by_pair, distances, fields=fields)
    print(grid.render_text())
    if args.output:
        write_json(args.output, [asdict(grid)], indent=2)
        print(f"grid written to {args.output}")
    return 0


def cmd_dump_rules(_args: argparse.Namespace) -> int:
    from .pipeline import RULES

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
    _option(p, "input", PATHS, required=True, help="corpus file (repeatable)",
            file=("input corpus", READS))
    _option(p, "output", TEXT, required=True, help="output directory",
            file=("output", (DATASET_FILENAME, REJECTIONS_FILENAME, MANIFEST_FILENAME)))
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
    # A sheet that compares a dataset with itself audits nothing.
    _option(p, "input", TEXT, required=True, help="main-pipeline dataset",
            file=("dataset", READS))
    _option(p, "baseline_input", TEXT, required=True, help="baseline dataset",
            file=("baseline dataset", READS))
    _option(p, "n_per_class", INTEGER, 500, check=_at_least(0),
            help="sentences per (method, class) stratum")
    _option(p, "seed", INTEGER, required=True)
    _option(p, "output", TEXT, required=True, help="output directory",
            file=("output", (SHEET_FILENAME, KEY_FILENAME)))

    p = sub.add_parser("audit-score", help="score an annotated sheet")
    p.add_argument("--sheet", required=True)
    p.add_argument("--key", required=True)
    p.set_defaults(func=cmd_audit_score)

    p = _command(sub, "train", cmd_train, "train a classifier on a dataset")
    _option(p, "input", TEXT, required=True, help="dataset file", file=("dataset", READS))
    _option(p, "output", TEXT, required=True, help="model file to write",
            file=("model file", WRITES))
    _option(p, "seed", INTEGER, required=True, check=_at_least(0))
    _option(p, "c_value", NUMBER, DEFAULT_C, check=POSITIVE,
            help="inverse regularization strength")
    _option(p, "pu", SWITCH, False, help="positive-unlabeled training")
    _option(p, "split", SPLIT, SPLIT_TRAIN, help="train, dev, test or all")
    _option(p, "min_df", INTEGER, 1, check=_at_least(1))
    _option(p, "max_features", INTEGER, check=_at_least(1))

    p = _command(sub, "eval", cmd_eval, "evaluate a model on a dataset")
    _option(p, "model", TEXT, required=True, file=("model file", READS))
    _option(p, "input", TEXT, required=True, file=("dataset", READS))
    _option(p, "split", SPLIT, SPLIT_TEST, help="train, dev, test or all")
    _option(p, "field", TEXT, help="restrict to one subject field")

    p = _command(sub, "cross-domain", cmd_cross_domain, "train/test grid across fields")
    _option(p, "input", TEXT, required=True, file=("dataset", READS))
    _option(p, "distances", TEXT, required=True, help="labeled distance-matrix file",
            file=("distance matrix", READS))
    _option(p, "fields", TEXT, help="comma-separated field subset")
    _option(p, "seed", INTEGER, help="ignored: the grid has no random choices")
    _option(p, "c_value", NUMBER, DEFAULT_C, check=POSITIVE)
    _option(p, "min_df", INTEGER, 1, check=_at_least(1))
    _option(p, "output", TEXT, help="write the grid as JSON here",
            file=("grid file", WRITES))

    p = sub.add_parser("dump-rules", help="print the embedded rules verbatim")
    p.set_defaults(func=cmd_dump_rules)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    # No command makes reference cycles in bulk: reference counting frees its
    # garbage as it goes, and the cyclic collector would only rescan the
    # growing result lists again and again.
    enabled = gc.isenabled()
    gc.disable()
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
    finally:
        if enabled:
            gc.enable()


def run() -> NoReturn:
    """The process entry of ``python -m citecorpus`` and of the ``citecorpus``
    script: run ``main``, flush ``sys.stdout`` and ``sys.stderr``, and end the
    process with ``os._exit``, skipping the interpreter's teardown. That
    teardown, a last cyclic collection over numpy's and the command's
    objects and then the freeing of every module and array, writes nothing
    and took 25-37 ms of a model command (medians of 12 runs on 2 vCPUs).

    Nothing is lost by skipping it: ``atomic_write`` and ``save_model``
    rename their outputs before ``main`` returns, the ``build`` pool is shut
    down and its workers joined inside its ``with`` block, and the logging
    handlers flush on every record. An exception that escapes ``main``, and
    a flush that fails (a closed pipe), end through the normal interpreter
    exit, with the traceback, message and exit code that it gives."""
    code = main()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except (OSError, ValueError):
        sys.exit(code)
    os._exit(code)
