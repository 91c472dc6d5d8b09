"""Evaluation and reporting: P/R/F1, dataset statistics, purity, correlation.

Every function but ``read_distance_matrix``, which reads a file, is pure
and thread-safe. Percent-style quantities are stored in [0, 1] (PRF) or
[0, 100] (purity) as documented per type; the text renderers multiply
where the conventional presentation is x100.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from . import LABEL_CITE_WORTHY, SPLIT_UNASSIGNED, SPLITS, read_lines

if TYPE_CHECKING:
    from .pipeline import ParagraphSample


@dataclass(frozen=True)
class PRF:
    precision: float
    recall: float
    f1: float

    def render_text(self) -> str:
        return (f"precision {100 * self.precision:.2f}  "
                f"recall {100 * self.recall:.2f}  "
                f"f1 {100 * self.f1:.2f}")


def precision_recall_f1(predicted, golds) -> PRF:
    """P/R/F1 of the 0/1 numpy array ``predicted`` against the 0/1 numpy
    array ``golds``; zero denominators yield 0."""
    import numpy as np

    if len(predicted) != len(golds):
        raise ValueError(f"{len(predicted)} predictions vs {len(golds)} golds")
    tp = np.count_nonzero(predicted & golds)
    fp, fn = np.count_nonzero(predicted) - tp, np.count_nonzero(golds) - tp
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return PRF(precision=precision, recall=recall, f1=f1)


@dataclass
class StatsReport:
    total_sentences: int
    total_tokens: int
    split_sentences: dict[str, int]
    cite_worthy: int
    cite_worthy_pct: float
    non_cite_worthy: int
    non_cite_worthy_pct: float
    min_char_length: int
    max_char_length: int
    mean_char_length: float
    median_char_length: int
    field_sentences: dict[str, int]
    empty: bool = False

    def render_text(self) -> str:
        rows = [
            ("Total sentences", f"{self.total_sentences:,}"),
            ("Total number of tokens", f"{self.total_tokens:,}"),
        ]
        for split in (*SPLITS, SPLIT_UNASSIGNED):
            count = self.split_sentences.get(split, 0)
            if split == SPLIT_UNASSIGNED and count == 0:
                continue
            rows.append((f"{split.capitalize()} sentences", f"{count:,}"))
        rows += [
            ("Total cite-worthy", f"{self.cite_worthy:,} ({self.cite_worthy_pct:.2f}%)"),
            ("Total non-cite-worthy",
             f"{self.non_cite_worthy:,} ({self.non_cite_worthy_pct:.2f}%)"),
            ("Min char length", f"{self.min_char_length:,}"),
            ("Max char length", f"{self.max_char_length:,}"),
            ("Average char length", f"{self.mean_char_length:.1f}"),
            ("Median char length", f"{self.median_char_length:,}"),
        ]
        for name in sorted(self.field_sentences):
            rows.append((f"Sentences [{name}]", f"{self.field_sentences[name]:,}"))
        if self.empty:
            rows.append(("Note", "dataset is empty; length stats reported as 0"))
        width = max(len(name) for name, _ in rows)
        return "\n".join(f"{name:<{width}}  {value}" for name, value in rows)


def dataset_stats(samples: Iterable[ParagraphSample]) -> StatsReport:
    """Compute the statistics table for a dataset."""
    from .textproc import tokenize

    lengths: list[int] = []
    tokens = 0
    split_counts: Counter[str] = Counter()
    field_counts: Counter[str] = Counter()
    cite = 0
    for sample in samples:
        split_counts[sample.split] += len(sample.sentences)
        field_counts[sample.mag_field] += len(sample.sentences)
        for sentence in sample.sentences:
            lengths.append(len(sentence.text))
            tokens += len(tokenize(sentence.text))
            cite += sentence.label == LABEL_CITE_WORTHY

    total = len(lengths)
    non_cite = total - cite
    lengths = sorted(lengths) or [0]
    n = max(total, 1)
    return StatsReport(
        total_sentences=total,
        total_tokens=tokens,
        split_sentences=dict(split_counts),
        cite_worthy=cite,
        cite_worthy_pct=100.0 * cite / n,
        non_cite_worthy=non_cite,
        non_cite_worthy_pct=100.0 * non_cite / n,
        min_char_length=lengths[0],
        max_char_length=lengths[-1],
        mean_char_length=sum(lengths) / n,
        # Lower middle for even counts.
        median_char_length=lengths[(n - 1) // 2],
        field_sentences=dict(field_counts),
        empty=total == 0,
    )


def cluster_purity(assignments: Sequence, gold_domains: Sequence) -> float:
    """Purity percentage: majority-domain mass over all clusters."""
    if len(assignments) != len(gold_domains):
        raise ValueError(f"{len(assignments)} assignments vs {len(gold_domains)} domains")
    if not assignments:
        raise ValueError("empty inputs")
    per_cluster: dict = {}
    for cluster, domain in zip(assignments, gold_domains):
        per_cluster.setdefault(cluster, Counter())[domain] += 1
    majority = sum(max(counts.values()) for counts in per_cluster.values())
    return 100.0 * majority / len(assignments)


def _centered(values: Sequence[float]) -> tuple[list[float], float, int]:
    """Scale the values by 2**-k, with k such that the largest magnitude
    lies in [0.5, 1), and return each scaled value's deviation from their
    mean, the sum of the squared deviations, and k. Scaling by a power of
    two is exact, and no square of a scaled deviation leaves the float range."""
    k = math.frexp(max(map(abs, values)))[1]
    scaled = [math.ldexp(v, -k) for v in values]
    mean = sum(scaled) / len(scaled)
    deviations = [v - mean for v in scaled]
    return deviations, sum(d * d for d in deviations), k


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Sample Pearson correlation coefficient, clipped into [-1, 1] against
    rounding; a ValueError when it is undefined."""
    if len(xs) != len(ys):
        raise ValueError(f"{len(xs)} xs vs {len(ys)} ys")
    if len(xs) < 2:
        raise ValueError("need at least two points")
    dx, var_x, _ = _centered(xs)
    dy, var_y, _ = _centered(ys)
    if var_x == 0.0 or var_y == 0.0:
        raise ValueError("correlation undefined: an argument has zero variance")
    rho = sum(a * b for a, b in zip(dx, dy)) / math.sqrt(var_x * var_y)
    return max(-1.0, min(1.0, rho))


@dataclass
class DomainGrid:
    """Square train-by-test F1 grid with per-test-field spread and
    distance correlation.

    ``rho`` is the signed Pearson correlation between a test field's F1
    column and the supplied train-to-test distances.
    """

    fields: list[str]
    f1: dict[str, dict[str, float]] = field(default_factory=dict)
    sigma: dict[str, float] = field(default_factory=dict)
    rho: dict[str, float] = field(default_factory=dict)

    def render_text(self) -> str:
        longest = max(len(f) for f in self.fields)
        width, label = max(6, longest) + 2, max(12, longest + 2)
        header = f"{'Train/Test':<{label}}" + "".join(f"{f:>{width}}" for f in self.fields)
        lines = [header]
        for train in self.fields:
            cells = "".join(f"{self.f1[train][test]:>{width}.2f}" for test in self.fields)
            lines.append(f"{train:<{label}}" + cells)
        lines.append(f"{'sigma':<{label}}" + "".join(
            f"{self.sigma[test]:>{width}.2f}" for test in self.fields))
        lines.append(f"{'rho':<{label}}" + "".join(
            f"{self.rho[test]:>{width}.2f}" for test in self.fields))
        return "\n".join(lines)


def population_std(values: Sequence[float]) -> float:
    _, squares, k = _centered(values)
    return math.ldexp(math.sqrt(squares / len(values)), k)


def require_pairs(
    table: Mapping[tuple[str, str], float], fields: Sequence[str], what: str
) -> None:
    """Raise ValueError listing the (train, test) pairs of ``fields`` that
    ``table``, the ``what`` of the grid, lacks."""
    missing = [(tr, te) for tr in fields for te in fields if (tr, te) not in table]
    if missing:
        raise ValueError(f"incomplete {what}; missing pairs: {missing}")


def domain_grid(
    f1_by_pair: Mapping[tuple[str, str], float],
    distances: Mapping[tuple[str, str], float],
    fields: Sequence[str],
) -> DomainGrid:
    """Aggregate per-(train, test) F1 results into a DomainGrid.

    sigma per test field is the population standard deviation over train
    fields; rho per test field correlates the F1 column with the matching
    distance column. Missing grid or distance entries are an error listing
    the absent pairs.
    """
    fields = list(fields)
    require_pairs(f1_by_pair, fields, "F1 grid")
    require_pairs(distances, fields, "distance matrix")

    grid = DomainGrid(fields=fields)
    for train in fields:
        grid.f1[train] = {test: f1_by_pair[(train, test)] for test in fields}
    for test in fields:
        column = [f1_by_pair[(train, test)] for train in fields]
        grid.sigma[test] = population_std(column)
        grid.rho[test] = pearson(column, [distances[(train, test)] for train in fields])
    return grid


def read_distance_matrix(path: str | Path) -> dict[tuple[str, str], float]:
    """Read a labeled distance matrix.

    Format: tab-separated; first line is an empty cell followed by the test
    field names, each following line is a train field name followed by its
    distances in header order. A cell that is not a finite number, or a
    field name that is empty or that the header or the rows repeat, is a
    ValueError naming the file and line.
    """
    lines = [(lineno, line.rstrip("\n")) for lineno, line in read_lines(path) if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty distance matrix")
    header_lineno, header = lines[0][0], lines[0][1].split("\t")
    test_fields = [cell.strip() for cell in header[1:]]
    if not test_fields:
        raise ValueError(f"{path}: header names no fields")
    for i, name in enumerate(test_fields):
        if not name:
            raise ValueError(f"{path}, line {header_lineno}: header cell {i + 2} is empty")
        if name in test_fields[:i]:
            raise ValueError(f"{path}, line {header_lineno}: field {name!r} is repeated")
    distances: dict[tuple[str, str], float] = {}
    for lineno, line in lines[1:]:
        cells = line.split("\t")
        if len(cells) != len(test_fields) + 1:
            raise ValueError(
                f"{path}, line {lineno}: expected {len(test_fields) + 1} cells, got {len(cells)}")
        train = cells[0].strip()
        if not train:
            raise ValueError(f"{path}, line {lineno}: row name is empty")
        if (train, test_fields[0]) in distances:
            raise ValueError(f"{path}, line {lineno}: row {train!r} is repeated")
        for test_name, cell in zip(test_fields, cells[1:]):
            try:
                value = float(cell)
            except ValueError as exc:
                raise ValueError(f"{path}, line {lineno}: bad number {cell!r}") from exc
            if not math.isfinite(value):
                raise ValueError(f"{path}, line {lineno}: {cell!r} is not a finite number")
            distances[(train, test_name)] = value
    return distances
