"""Ranking and thresholded metrics, selective reports, paired bootstrap tests.

roc_auc is the Mann-Whitney statistic P(score_pos > score_neg) + 0.5 P(tie),
computed with midranks so ties contribute exactly one half. pr_auc is average
precision in step form (recall increment times precision per descending score
level, tied scores processed as one block), not a trapezoidal interpolation.
F1 and accuracy threshold scores at 0.5, ties predicting class 1.

Each metric is a kernel over per-record counts. The ranking metrics sort the
scores once into tie blocks (descending score levels) and note the blocks
that hold a positive record (`_Ranking`). An evaluation gathers the counts
into score order and takes one integer prefix sum over all records and one
over the positive records; the rest runs over the positive blocks alone, as
a block without a positive adds nothing to either AUC. pr_auc sums recall
gain times precision block by block with a left-to-right cumsum, and
roc_auc takes each block's midrank from its bounds. F1 and accuracy are
count-weighted sums of the per-record confusion columns. The public
functions read their inputs as the tables read cells (`_as_arrays`) and run
the kernels with unit counts, as a selective report does on a Dataset's
checked columns; bootstrap_significance runs the same kernels with each
resample's multiplicities, so a resample costs no sort and no copy.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import repeat
from typing import Sequence

import numpy as np

from .calibrate import Decision, Decisions, _confidence_correct
from .errors import (
    DegenerateLabelsError,
    DomainError,
    EmptyInputError,
    IdMismatchError,
    ResampleCapError,
    UnpairedIdsError,
    _shown,
    check_int,
)
from .records import Dataset, _coded, _columns, _floats, _raise_first, _value_fault
from .rng import substream


def _as_arrays(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    """Two columns of one length read as the tables read cells: scores within [0, 1] (`_floats`), labels 0 or 1."""
    _columns(DomainError, scores=scores, labels=labels)
    s, y = _floats(scores), _coded(labels, {0: 0, 1: 1}, -1)
    _raise_first([
        _value_fault(~((s >= 0.0) & (s <= 1.0)), "scores[{}]", "a number within [0, 1]", scores),
        _value_fault(y < 0, "labels[{}]", "0 or 1", labels),
    ], len(s))
    return s, y


def _tie_blocks(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The records in descending score order, and where each tie block starts and ends in it.

    Records with equal scores share a block: block k is
    order[starts[k]:ends[k]]. One stable argsort.
    """
    order = np.argsort(scores, kind="stable")[::-1]
    ordered = scores[order]
    bounds = np.flatnonzero(ordered[1:] != ordered[:-1]) + 1
    return order, np.append(0, bounds), np.append(bounds, len(scores))


class _Ranking:
    """One score column's tie blocks, sorted once, scored from per-record counts.

    counts is each record's multiplicity: all ones for the sample itself, a
    bootstrap draw's bincount for a resample. Every total is an exact integer.
    """

    def __init__(self, scores: np.ndarray, labels: np.ndarray):
        self.order, starts, ends = _tie_blocks(scores)
        is_positive = labels[self.order] == 1
        self.positive_order = self.order[is_positive]
        positives_before = np.append(0, np.cumsum(is_positive))  # positive records ahead of each rank
        holds_positive = positives_before[ends] > positives_before[starts]
        self.starts, self.ends = starts[holds_positive], ends[holds_positive]  # the positive blocks
        # positive records through each positive block, after a leading 0
        self.positive_bounds = np.append(0, positives_before[self.ends])

    def _totals(self, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Records drawn ahead of each rank, and positives drawn through each positive block, both after a leading 0."""
        records = np.zeros(len(self.order) + 1, np.int64)
        np.cumsum(counts[self.order], out=records[1:])
        positives = np.zeros(len(self.positive_order) + 1, np.int64)
        np.cumsum(counts[self.positive_order], out=positives[1:])
        return records, positives[self.positive_bounds]

    def pr_auc(self, counts: np.ndarray) -> float:
        """Average precision: each block's recall gain times the precision at its end."""
        records, positives = self._totals(counts)
        n_pos = positives[-1]
        if n_pos == 0:
            raise DegenerateLabelsError("pr_auc needs at least one positive record")
        # with no record drawn through a block, no positive is either: 0 / 1 stands for 0 / 0
        precision = positives[1:] / np.maximum(records[self.ends], 1)
        # cumsum adds left to right, down the score levels, as a walk over the
        # blocks would (np.sum would pair terms); a block without a drawn
        # positive adds an exact +0.0, so leaving such blocks out changes nothing
        return float(np.cumsum(np.diff(positives) / n_pos * precision)[-1])

    def roc_auc(self, counts: np.ndarray) -> float:
        """Mann-Whitney AUC from the midrank of each block."""
        records, positives = self._totals(counts)
        n_pos = int(positives[-1])
        n_neg = int(records[-1]) - n_pos
        if n_pos == 0 or n_neg == 0:
            raise DegenerateLabelsError(
                f"roc_auc needs both classes, got {n_pos} positive / {n_neg} negative"
            )
        # 1-based ascending ranks; a block's midrank is a half-integer, so the
        # rank sum of the positives is exact in any summation order
        start, end = records[self.starts], records[self.ends]
        midranks = (n_pos + n_neg) - end + (end - start + 1) / 2.0
        numerator = float(np.diff(positives) @ midranks) - n_pos * (n_pos + 1) / 2.0
        return numerator / (n_pos * n_neg)


def _confusion_columns(scores: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-record 0/1 rows: correct, true positive, false positive, false negative."""
    _, correct = _confidence_correct(scores, labels)
    return np.array(
        [correct, correct & (labels == 1), ~correct & (labels == 0), ~correct & (labels == 1)],
        dtype=np.int64,
    )


def _counted_f1_accuracy(columns: np.ndarray, counts: np.ndarray) -> tuple[float, float]:
    total = int(counts.sum())
    if total == 0:
        raise EmptyInputError("f1_accuracy needs at least one record")
    correct, tp, fp, fn = map(int, columns @ counts)
    denom = 2 * tp + fp + fn
    f1 = (2 * tp / denom) if denom > 0 else 0.0
    return f1, correct / total


def _kernel(metric: str, scores: np.ndarray, labels: np.ndarray):
    """The metric on these records as a function of per-record counts.

    The score sort (or the confusion columns) is done here, once, so a call
    costs a few passes over the counts and no sort.
    """
    if metric in ("f1", "accuracy"):
        columns = _confusion_columns(scores, labels)
        pick = ("f1", "accuracy").index(metric)
        return lambda counts: _counted_f1_accuracy(columns, counts)[pick]
    ranking = _Ranking(scores, labels)
    return ranking.pr_auc if metric == "pr_auc" else ranking.roc_auc


def roc_auc(scores, labels) -> float:
    """Probability a positive outranks a negative, ties counting one half."""
    s, y = _as_arrays(scores, labels)
    return _kernel("roc_auc", s, y)(np.ones(len(s), np.int64))


def pr_auc(scores, labels) -> float:
    """Average precision over descending score levels, ties as one block."""
    s, y = _as_arrays(scores, labels)
    return _kernel("pr_auc", s, y)(np.ones(len(s), np.int64))


def f1_accuracy(scores, labels) -> tuple[float, float]:
    """(F1, accuracy) thresholding scores at 0.5; F1 is 0 when 0/0."""
    s, y = _as_arrays(scores, labels)
    return _counted_f1_accuracy(_confusion_columns(s, y), np.ones(len(s), np.int64))


@dataclass(frozen=True)
class SelectiveReport:
    """Metric suite over the retained subset of a test set.

    Metric fields are None when undefined (nothing retained, or the retained
    subset has only one class where a metric needs both).
    """

    pr_auc: float | None
    f1: float | None
    roc_auc: float | None
    accuracy: float | None
    retain_rate: float
    n_total: int
    n_retained: int
    group_breakdown: dict[str, "SelectiveReport"] | None = None


@dataclass(frozen=True)
class SignificanceResult:
    """Paired bootstrap comparison of one metric between two score sets."""

    metric: str
    delta: float
    p_value: float
    resamples: int


def _subset_report(scores: np.ndarray, labels: np.ndarray, kept: np.ndarray) -> SelectiveReport:
    n_total = len(scores)
    n_retained = int(kept.sum())
    if n_retained == 0:
        return SelectiveReport(
            pr_auc=None, f1=None, roc_auc=None, accuracy=None,
            retain_rate=0.0, n_total=n_total, n_retained=0,
        )
    # the Dataset's columns are checked, so the kernels score them as they are, one sort for both AUCs
    s, y, ones = scores[kept], labels[kept], np.ones(n_retained, np.int64)
    ranking = _Ranking(s, y)
    aucs = {}
    for name, score in (("pr_auc", ranking.pr_auc), ("roc_auc", ranking.roc_auc)):
        try:
            aucs[name] = score(ones)
        except DegenerateLabelsError:
            aucs[name] = None
    f1, accuracy = _counted_f1_accuracy(_confusion_columns(s, y), ones)
    return SelectiveReport(
        **aucs, f1=f1, accuracy=accuracy,
        retain_rate=n_retained / n_total, n_total=n_total, n_retained=n_retained,
    )


def _positions(ids: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    """Where each of `wanted` stands in `ids`, -1 where it is missing.

    When the two columns are equal in order, as a dataset's ids and the
    decisions `apply_certificate` makes from it are, that is every position
    in turn, and no id map is built.
    """
    if np.array_equal(ids, wanted):
        return np.arange(len(ids))
    position = dict(zip(ids.tolist(), range(len(ids))))
    return np.fromiter(map(position.get, wanted.tolist(), repeat(-1)), np.intp, len(wanted))


def selective_report(
    data: Dataset,
    decisions: Decisions | Sequence[Decision] | None = None,
    by_group: bool = False,
) -> SelectiveReport:
    """Metrics over the records a decision list retains.

    decisions must cover exactly the ids of `data`; pass None to score the
    whole set with no abstention (retain_rate 1). Ranking metrics use the raw
    scores of retained records. With by_group, the same block is computed per
    group value over that group's records (ungrouped records appear only in
    the overall block).
    """
    scores, labels = data.scores, data.labels
    if decisions is None:
        kept = np.ones(len(data), dtype=bool)
    else:
        decisions = Decisions.of(decisions)
        index = _positions(decisions.ids, data.ids)
        if len(decisions) != len(data) or (index < 0).any():
            raise IdMismatchError("decision ids do not match the dataset ids")
        kept = decisions.retained[index]
    report = _subset_report(scores, labels, kept)
    if not by_group:
        return report
    groups = data.groups
    breakdown: dict[str, SelectiveReport] = {}
    for name in sorted(set(groups.tolist()) - {None}):
        in_group = groups == name
        breakdown[name] = _subset_report(scores[in_group], labels[in_group], kept[in_group])
    return replace(report, group_breakdown=breakdown)


_METRICS = ("accuracy", "f1", "pr_auc", "roc_auc")

MAX_REDRAWS = 100


def bootstrap_significance(
    a: Dataset,
    b: Dataset,
    metric: str,
    resamples: int = 10_000,
    seed: int = 0,
) -> SignificanceResult:
    """One-sided paired bootstrap: is `a` better than `b` on this metric?

    Both datasets must cover the same ids with the same labels; records are
    paired by id and each resample draws ids with replacement, applying the
    same draw to both sides. The p-value is the fraction of resamples where
    metric(a*) <= metric(b*). Resample i uses its own seed substream, so the
    result depends only on (data, metric, resamples, seed); a resample that
    leaves the metric undefined is redrawn from the same substream, capped at
    MAX_REDRAWS attempts.

    A resample holds copies of the original records only, so each side's
    scores are sorted into tie blocks (or turned into confusion columns)
    once, up front. A draw is then scored from its multiplicities, the
    bincount of the drawn positions, by the same kernels the plain metric
    functions run with unit counts: for an AUC, one prefix sum over the
    records in score order and the rest over the blocks that hold a
    positive. The values are the ones scoring the resampled copies would
    give, bit for bit, as every total is an exact integer.
    """
    if metric not in _METRICS:
        raise DomainError(f"metric must be one of {list(_METRICS)}, got {_shown(metric)}")
    resamples = check_int("resamples", resamples, 100)
    seed = check_int("seed", seed, float("-inf"))
    # each dataset's ids are unique, so the two share one id set when every id of a is in b and no more
    b_order = _positions(b.ids, a.ids)
    if len(a) != len(b) or (b_order < 0).any():
        raise UnpairedIdsError("datasets must share one id set for a paired comparison")
    labels = a.labels
    mismatch = np.flatnonzero(b.labels[b_order] != labels)
    if mismatch.size:
        raise UnpairedIdsError(f"labels differ for id {_shown(a.ids[mismatch[0]])}")
    kernel_a = _kernel(metric, a.scores, labels)
    kernel_b = _kernel(metric, b.scores[b_order], labels)

    n = len(labels)
    delta = kernel_a(np.ones(n, np.int64)) - kernel_b(np.ones(n, np.int64))
    hits = 0
    for i in range(resamples):
        rng = substream(seed, i)
        for _ in range(MAX_REDRAWS):
            counts = np.bincount(rng.integers(0, n, size=n), minlength=n)
            try:
                m_a = kernel_a(counts)
                m_b = kernel_b(counts)
            except (DegenerateLabelsError, EmptyInputError):
                continue
            break
        else:
            raise ResampleCapError(
                f"resample {i} stayed undefined for {metric} after {MAX_REDRAWS} redraws"
            )
        if m_a <= m_b:
            hits += 1
    return SignificanceResult(
        metric=metric, delta=delta, p_value=hits / resamples, resamples=resamples
    )


def report_to_doc(report: SelectiveReport, metadata: dict | None = None) -> dict:
    """Report as a JSON-ready dict: metric row first, then metadata, then groups."""
    doc: dict[str, object] = {name: value for name, value in vars(report).items() if name != "group_breakdown"}
    if metadata:
        doc.update(metadata)
    if report.group_breakdown is not None:
        doc["groups"] = {
            name: report_to_doc(sub) for name, sub in report.group_breakdown.items()
        }
    return doc
