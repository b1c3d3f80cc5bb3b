"""Ranking and thresholded metrics, selective reports, paired bootstrap tests.

roc_auc is the Mann-Whitney statistic P(score_pos > score_neg) + 0.5 P(tie),
computed with midranks so ties contribute exactly one half. pr_auc is average
precision in step form (recall increment times precision per descending score
level, tied scores processed as one block), not a trapezoidal interpolation.
F1 and accuracy threshold scores at 0.5, ties predicting class 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import attrgetter

import numpy as np

from .calibrate import Decision, _confidence_correct
from .errors import (
    DegenerateLabelsError,
    DomainError,
    EmptyInputError,
    IdMismatchError,
    ResampleCapError,
    UnpairedIdsError,
)
from .records import Dataset
from .rng import substream


def _as_arrays(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels, dtype=int)
    if s.ndim != 1 or y.shape != s.shape:
        raise DomainError("scores and labels must be 1-d sequences of equal length")
    return s, y


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with tied values sharing the mean of their rank range."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    new_group = np.empty(len(values), dtype=bool)
    new_group[0] = True
    new_group[1:] = ordered[1:] != ordered[:-1]
    group_start = np.flatnonzero(new_group)
    group_end = np.append(group_start[1:], len(values))
    # midrank of a tie block [start, end) is (start + end - 1) / 2 + 1
    block_rank = (group_start + group_end - 1) / 2.0 + 1.0
    ranks = np.empty(len(values), dtype=float)
    ranks[order] = np.repeat(block_rank, group_end - group_start)
    return ranks


def roc_auc(scores, labels) -> float:
    """Probability a positive outranks a negative, ties counting one half."""
    s, y = _as_arrays(scores, labels)
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise DegenerateLabelsError(
            f"roc_auc needs both classes, got {n_pos} positive / {n_neg} negative"
        )
    ranks = _midranks(s)
    rank_sum_pos = float(ranks[y == 1].sum())
    numerator = rank_sum_pos - n_pos * (n_pos + 1) / 2.0
    return numerator / (n_pos * n_neg)


def pr_auc(scores, labels) -> float:
    """Average precision over descending score levels, ties as one block."""
    s, y = _as_arrays(scores, labels)
    n_pos = int((y == 1).sum())
    if len(s) == 0 or n_pos == 0:
        raise DegenerateLabelsError("pr_auc needs at least one positive record")
    desc = np.argsort(s, kind="stable")[::-1]
    s_desc = s[desc]
    y_desc = y[desc]
    cum_tp = np.cumsum(y_desc)
    # indices where a score block ends (last occurrence of each level)
    block_end = np.flatnonzero(np.append(s_desc[1:] != s_desc[:-1], True))
    ap = 0.0
    tp_prev = 0
    for end in block_end:
        tp_here = int(cum_tp[end])
        if tp_here > tp_prev:
            precision = tp_here / (end + 1)
            ap += ((tp_here - tp_prev) / n_pos) * precision
        tp_prev = tp_here
    return ap


def f1_accuracy(scores, labels) -> tuple[float, float]:
    """(F1, accuracy) thresholding scores at 0.5; F1 is 0 when 0/0."""
    s, y = _as_arrays(scores, labels)
    if len(s) == 0:
        raise EmptyInputError("f1_accuracy needs at least one record")
    _, correct = _confidence_correct(s, y)
    tp = int((correct & (y == 1)).sum())
    fp = int((~correct & (y == 0)).sum())
    fn = int((~correct & (y == 1)).sum())
    denom = 2 * tp + fp + fn
    f1 = (2 * tp / denom) if denom > 0 else 0.0
    accuracy = float(correct.sum()) / len(s)
    return f1, accuracy


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
    s, y = scores[kept], labels[kept]
    try:
        roc = roc_auc(s, y)
    except DegenerateLabelsError:
        roc = None
    try:
        pr = pr_auc(s, y)
    except DegenerateLabelsError:
        pr = None
    f1, accuracy = f1_accuracy(s, y)
    return SelectiveReport(
        pr_auc=pr, f1=f1, roc_auc=roc, accuracy=accuracy,
        retain_rate=n_retained / n_total, n_total=n_total, n_retained=n_retained,
    )


def selective_report(
    data: Dataset,
    decisions: list[Decision] | None = None,
    by_group: bool = False,
) -> SelectiveReport:
    """Metrics over the records a decision list retains.

    decisions must cover exactly the ids of `data`; pass None to score the
    whole set with no abstention (retain_rate 1). Ranking metrics use the raw
    scores of retained records. With by_group, the same block is computed per
    group value over that group's records (ungrouped records appear only in
    the overall block).
    """
    scores = data.scores()
    labels = data.labels()
    if decisions is None:
        kept = np.ones(len(data), dtype=bool)
    else:
        ids = data.ids()
        decision_ids = list(map(attrgetter("id"), decisions))
        if set(decision_ids) != set(ids):
            raise IdMismatchError("decision ids do not match the dataset ids")
        if len(decision_ids) != len(set(decision_ids)):
            raise IdMismatchError("duplicate ids in decisions")
        retained_ids = set(compress(decision_ids, map(attrgetter("retained"), decisions)))
        kept = np.fromiter(map(retained_ids.__contains__, ids), dtype=bool, count=len(ids))
    report = _subset_report(scores, labels, kept)
    if not by_group:
        return report
    groups = data.groups()
    breakdown: dict[str, SelectiveReport] = {}
    for name in sorted(set(groups.tolist()) - {None}):
        in_group = groups == name
        breakdown[name] = _subset_report(scores[in_group], labels[in_group], kept[in_group])
    return SelectiveReport(
        pr_auc=report.pr_auc, f1=report.f1, roc_auc=report.roc_auc,
        accuracy=report.accuracy, retain_rate=report.retain_rate,
        n_total=report.n_total, n_retained=report.n_retained,
        group_breakdown=breakdown,
    )


_METRIC_FUNCTIONS = {
    "roc_auc": roc_auc,
    "pr_auc": pr_auc,
    "f1": lambda s, y: f1_accuracy(s, y)[0],
    "accuracy": lambda s, y: f1_accuracy(s, y)[1],
}

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
    100 attempts.
    """
    if metric not in _METRIC_FUNCTIONS:
        raise DomainError(f"metric must be one of {sorted(_METRIC_FUNCTIONS)}, got {metric!r}")
    if not isinstance(resamples, int) or resamples < 100:
        raise DomainError(f"resamples must be an integer >= 100, got {resamples!r}")
    ids_a, ids_b = a.ids(), b.ids()
    if set(ids_a) != set(ids_b):
        raise UnpairedIdsError("datasets must share one id set for a paired comparison")
    position_b = dict(zip(ids_b, range(len(ids_b))))
    b_order = np.fromiter(map(position_b.__getitem__, ids_a), dtype=np.intp, count=len(ids_a))
    labels = a.labels()
    mismatch = np.flatnonzero(b.labels()[b_order] != labels)
    if mismatch.size:
        raise UnpairedIdsError(f"labels differ for id {ids_a[mismatch[0]]!r}")
    scores_a = a.scores()
    scores_b = b.scores()[b_order]
    fn = _METRIC_FUNCTIONS[metric]

    delta = fn(scores_a, labels) - fn(scores_b, labels)
    n = len(labels)
    hits = 0
    for i in range(resamples):
        rng = substream(seed, i)
        for _ in range(MAX_REDRAWS):
            idx = rng.integers(0, n, size=n)
            try:
                m_a = fn(scores_a[idx], labels[idx])
                m_b = fn(scores_b[idx], labels[idx])
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
    doc: dict[str, object] = {
        "pr_auc": report.pr_auc,
        "f1": report.f1,
        "roc_auc": report.roc_auc,
        "accuracy": report.accuracy,
        "retain_rate": report.retain_rate,
        "n_total": report.n_total,
        "n_retained": report.n_retained,
    }
    if metadata:
        doc.update(metadata)
    if report.group_breakdown is not None:
        doc["groups"] = {
            name: report_to_doc(sub) for name, sub in report.group_breakdown.items()
        }
    return doc
