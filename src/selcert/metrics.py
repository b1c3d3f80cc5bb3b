"""Ranking and thresholded metrics, selective reports, paired bootstrap tests.

roc_auc is the Mann-Whitney statistic P(score_pos > score_neg) + 0.5 P(tie),
counted exactly, so ties contribute exactly one half. pr_auc is average
precision in step form (recall increment times precision per descending score
level, tied scores processed as one block), not a trapezoidal interpolation.
F1 and accuracy threshold scores at 0.5, ties predicting class 1.

Each metric is a kernel over per-record counts. The ranking metrics sort the
scores once into tie blocks (descending score levels) and note the blocks
that hold a positive record (`_Ranking`). An evaluation gathers the counts
into score order and takes one integer prefix sum over the positive records
and one over the negative records; the rest runs over the positive blocks
alone, as a block without a positive adds nothing to either AUC. pr_auc
sums recall gain times precision block by block with a left-to-right
cumsum, and roc_auc counts, for each positive block, the negatives drawn
ahead of it and within it. F1 and accuracy are count-weighted sums of the
per-record confusion columns. The public functions read their inputs as the
tables read cells (`_as_arrays`) and run the kernels with unit counts, as a
selective report does on a Dataset's checked columns; bootstrap_significance
runs the same kernels with each resample's multiplicities, so a resample
costs no sort and no copy.

A kernel takes one draw's counts, of shape (n,), or a stack of draws, of
shape (B, n): it gathers and sums along the last axis, so each row scores
as its draw alone would, bit for bit. One draw gives a float and raises
where the metric is undefined; a stack gives one value per row, NaN where
undefined. bootstrap_significance scores its draws a chunk at a time, at
most `_CHUNK_RECORDS` drawn records to a chunk, so each side's kernel runs
once per chunk; the result never depends on the chunking.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import repeat
from typing import Callable

import numpy as np

from .calibrate import Decisions, _confidence_correct
from .errors import (
    DegenerateLabelsError,
    DomainError,
    EmptyInputError,
    IdMismatchError,
    ResampleCapError,
    UnpairedIdsError,
    _shown,
)
from .records import Dataset, _coded, _columns, _floats, _raise_first, _value_fault, check_int
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
    A 1-d counts vector gives a float and raises where the metric is
    undefined; a (B, n) stack of draws gives B values, NaN where undefined.
    """

    def __init__(self, scores: np.ndarray, labels: np.ndarray):
        order, starts, ends = _tie_blocks(scores)
        is_positive = labels[order] == 1
        self.positive_order, self.negative_order = order[is_positive], order[~is_positive]
        positives_before = np.append(0, np.cumsum(is_positive))  # positive records ahead of each rank
        negatives_before = np.arange(len(order) + 1) - positives_before
        holds_positive = positives_before[ends] > positives_before[starts]
        starts, ends = starts[holds_positive], ends[holds_positive]  # the positive blocks
        # positive records through each positive block, after a leading 0
        self.positive_bounds = np.append(0, positives_before[ends])
        # negative records ahead of each positive block's start and of its end
        self.negatives_at_start, self.negatives_at_end = negatives_before[starts], negatives_before[ends]

    def _totals(self, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Positives drawn through each positive block and negatives drawn ahead of each negative, after a leading 0."""
        positives = np.zeros(counts.shape[:-1] + (len(self.positive_order) + 1,), np.int64)
        np.cumsum(counts.take(self.positive_order, axis=-1), axis=-1, out=positives[..., 1:])
        negatives = np.zeros(counts.shape[:-1] + (len(self.negative_order) + 1,), np.int64)
        np.cumsum(counts.take(self.negative_order, axis=-1), axis=-1, out=negatives[..., 1:])
        return positives.take(self.positive_bounds, axis=-1), negatives

    def pr_auc(self, counts: np.ndarray) -> float | np.ndarray:
        """Average precision: each block's recall gain times the precision at its end."""
        positives, negatives = self._totals(counts)
        n_pos, through = positives[..., -1:], positives[..., 1:]
        # the records drawn through a block are its positives and the negatives
        # ahead of its end; with none drawn, no positive is either: 0 / 1 stands for 0 / 0
        precision = through / np.maximum(through + negatives.take(self.negatives_at_end, axis=-1), 1)
        gains = np.diff(positives, axis=-1) / np.maximum(n_pos, 1) * precision
        # cumsum adds left to right, down the score levels, as a walk over the
        # blocks would (np.sum would pair terms); a block without a drawn
        # positive adds an exact +0.0, so leaving such blocks out changes
        # nothing. The leading 0 is the sum over no positive block.
        average = np.zeros(gains.shape[:-1] + (gains.shape[-1] + 1,))
        np.cumsum(gains, axis=-1, out=average[..., 1:])
        return _defined(average[..., -1], n_pos[..., 0] == 0,
                        lambda: DegenerateLabelsError("pr_auc needs at least one positive record"))

    def roc_auc(self, counts: np.ndarray) -> float | np.ndarray:
        """Mann-Whitney AUC from the negatives drawn ahead of each positive block and within it."""
        positives, negatives = self._totals(counts)
        n_pos, n_neg = positives[..., -1], negatives[..., -1]
        # a positive of a block outranks the negatives drawn from the block's
        # end on and ties those drawn within it: with s and e the negatives
        # ahead of the block's start and end, it scores n_neg - (s + e) / 2.
        # Twice the sum over the positives is an exact integer.
        ahead = negatives.take(self.negatives_at_start, axis=-1) + negatives.take(self.negatives_at_end, axis=-1)
        twice_u = 2 * n_pos * n_neg - (np.diff(positives, axis=-1) * ahead).sum(axis=-1)
        return _defined(twice_u / 2.0 / np.maximum(n_pos * n_neg, 1), (n_pos == 0) | (n_neg == 0),
                        lambda: DegenerateLabelsError(
                            f"roc_auc needs both classes, got {n_pos} positive / {n_neg} negative"))


def _defined(values: np.ndarray, undefined: np.ndarray, fault: Callable[[], Exception]) -> float | np.ndarray:
    """One draw's value as a float, raising `fault()` where it is undefined; a stack's values, NaN where undefined."""
    if values.ndim == 0:
        if undefined:
            raise fault()
        return float(values)
    return np.where(undefined, np.nan, values)


def _confusion_columns(scores: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-record 0/1 rows: correct, true positive, false positive, false negative."""
    _, correct = _confidence_correct(scores, labels)
    return np.array(
        [correct, correct & (labels == 1), ~correct & (labels == 0), ~correct & (labels == 1)],
        dtype=np.int64,
    )


def _counted_f1_accuracy(columns: np.ndarray, counts: np.ndarray) -> tuple:
    """(F1, accuracy) of one draw's counts, or of each row of a (B, n) stack, as `_Ranking`'s kernels give them."""
    total = counts.sum(axis=-1)
    correct, tp, fp, fn = np.moveaxis(counts @ columns.T, -1, 0)
    denom = 2 * tp + fp + fn
    f1 = np.where(denom > 0, 2 * tp / np.maximum(denom, 1), 0.0)
    return tuple(_defined(value, total == 0, lambda: EmptyInputError("f1_accuracy needs at least one record"))
                 for value in (f1, correct / np.maximum(total, 1)))


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
    decisions: Decisions | None = None,
    by_group: bool = False,
) -> SelectiveReport:
    """Metrics over the records the decisions retain.

    decisions must be a `Decisions` covering exactly the ids of `data`; pass
    None to score the whole set with no abstention (retain_rate 1). Ranking
    metrics use the raw scores of retained records. With by_group, the same
    block is computed per group value over that group's records (ungrouped
    records appear only in the overall block).
    """
    data = Dataset._given(data, "data")
    scores, labels = data.scores, data.labels
    if decisions is None:
        kept = np.ones(len(data), dtype=bool)
    else:
        decisions = Decisions._given(decisions, "decisions")
        index = _positions(decisions.ids, data.ids)
        if len(decisions) != len(data) or (index < 0).any():
            raise IdMismatchError("decision ids do not match the dataset ids")
        kept = decisions.retained[index]
    report = _subset_report(scores, labels, kept)
    if not by_group:
        return report
    names = sorted(set(data.groups.tolist()) - {None})
    # each record's group as its index among the names (-1 ungrouped), coded in one pass
    coded = _coded(data.groups, dict(zip(names, range(len(names)))), -1)
    breakdown: dict[str, SelectiveReport] = {}
    for code, name in enumerate(names):
        in_group = coded == code
        breakdown[name] = _subset_report(scores[in_group], labels[in_group], kept[in_group])
    return replace(report, group_breakdown=breakdown)


_METRICS = ("accuracy", "f1", "pr_auc", "roc_auc")

MAX_REDRAWS = 100

# drawn records per chunk of bootstrap resamples: 16 draws at n=2000, so each of a chunk's arrays is 256 KB
_CHUNK_RECORDS = 1 << 15


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
    positive records and one over the negative records in score order, and
    the rest over the blocks that hold a positive. The values are the ones
    scoring the resampled copies would give, bit for bit, as every total is
    an exact integer.

    Draws are scored a chunk at a time: each draw's bincount is a row of
    the chunk's counts matrix, and each side's kernel runs once over it. A
    chunk holds at most `_CHUNK_RECORDS` drawn records (one draw at least).
    A row left undefined is redrawn alone from its own stream, and the
    lowest resample that runs out of redraws raises. Each row scores as its
    draw alone would, so the result never depends on the chunking.
    """
    a, b = Dataset._given(a, "a"), Dataset._given(b, "b")
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
    per_chunk = max(1, _CHUNK_RECORDS // n)
    hits = 0
    for first in range(0, resamples, per_chunk):
        streams = [substream(seed, i) for i in range(first, min(first + per_chunk, resamples))]
        counts = np.array([np.bincount(rng.integers(0, n, size=n), minlength=n) for rng in streams])
        m_a, m_b = kernel_a(counts), kernel_b(counts)
        # a row undefined on either side is NaN in the difference; it is redrawn from its own stream
        for row in np.flatnonzero(np.isnan(m_a - m_b)):
            for _ in range(MAX_REDRAWS - 1):
                counts = np.bincount(streams[row].integers(0, n, size=n), minlength=n)[None]
                m_a[row], m_b[row] = kernel_a(counts)[0], kernel_b(counts)[0]
                if not np.isnan(m_a[row] - m_b[row]):
                    break
            else:
                raise ResampleCapError(
                    f"resample {first + row} stayed undefined for {metric} after {MAX_REDRAWS} redraws"
                )
        hits += int(np.count_nonzero(m_a <= m_b))
    return SignificanceResult(
        metric=metric, delta=delta, p_value=hits / resamples, resamples=resamples
    )


def report_to_doc(report: SelectiveReport, metadata: dict | None = None) -> dict:
    """Report as a JSON-ready dict: metric row first, then metadata, then groups; no metadata key names a field."""
    doc: dict[str, object] = {name: value for name, value in vars(report).items() if name != "group_breakdown"}
    for key in metadata or ():
        if key in doc or key == "groups":
            raise DomainError(f"metadata key must not name a report field or 'groups', got {_shown(key)}")
    doc.update(metadata or {})
    if report.group_breakdown is not None:
        doc["groups"] = {
            name: report_to_doc(sub) for name, sub in report.group_breakdown.items()
        }
    return doc
