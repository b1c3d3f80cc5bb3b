"""The package's original metric loops, kept as a reference for `selcert.metrics`.

`pr_auc` walks the tie blocks of one descending sort in a Python loop,
`roc_auc` sums midranks, and `f1_accuracy` counts the confusion matrix of
the 0.5-threshold prediction. For 0/1 labels, the count-based kernels in
`selcert.metrics` must return the same floats, bit for bit, and raise the
same errors (the package also rejects any other label; these do not).
`bootstrap_reference` is the original resample loop: it indexes the score
columns with each draw and feeds the copies to the reference metrics.
"""

import math

import numpy as np

from selcert import (
    DegenerateLabelsError,
    DomainError,
    EmptyInputError,
    ResampleCapError,
)
from selcert.calibrate import _confidence_correct
from selcert.rng import substream


def _as_arrays(scores, labels):
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels, dtype=int)
    if s.ndim != 1 or y.shape != s.shape:
        raise DomainError("scores and labels must be 1-d sequences of equal length")
    return s, y


def _midranks(values):
    """1-based ranks with tied values sharing the mean of their rank range."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    new_group = np.empty(len(values), dtype=bool)
    new_group[0] = True
    new_group[1:] = ordered[1:] != ordered[:-1]
    group_start = np.flatnonzero(new_group)
    group_end = np.append(group_start[1:], len(values))
    block_rank = (group_start + group_end - 1) / 2.0 + 1.0
    ranks = np.empty(len(values), dtype=float)
    ranks[order] = np.repeat(block_rank, group_end - group_start)
    return ranks


def roc_auc(scores, labels):
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


def pr_auc(scores, labels):
    s, y = _as_arrays(scores, labels)
    n_pos = int((y == 1).sum())
    if len(s) == 0 or n_pos == 0:
        raise DegenerateLabelsError("pr_auc needs at least one positive record")
    desc = np.argsort(s, kind="stable")[::-1]
    s_desc = s[desc]
    y_desc = y[desc]
    cum_tp = np.cumsum(y_desc)
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


def f1_accuracy(scores, labels):
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


METRICS = {
    "roc_auc": roc_auc,
    "pr_auc": pr_auc,
    "f1": lambda s, y: f1_accuracy(s, y)[0],
    "accuracy": lambda s, y: f1_accuracy(s, y)[1],
}


def bootstrap_reference(scores_a, scores_b, labels, metric, resamples, seed, max_redraws=100):
    """(delta, p_value) of the paired bootstrap over aligned score columns."""
    fn = METRICS[metric]
    scores_a, scores_b, labels = map(np.asarray, (scores_a, scores_b, labels))
    delta = fn(scores_a, labels) - fn(scores_b, labels)
    n = len(labels)
    hits = 0
    for i in range(resamples):
        rng = substream(seed, i)
        for _ in range(max_redraws):
            idx = rng.integers(0, n, size=n)
            try:
                m_a = fn(scores_a[idx], labels[idx])
                m_b = fn(scores_b[idx], labels[idx])
            except (DegenerateLabelsError, EmptyInputError):
                continue
            break
        else:
            raise ResampleCapError(f"resample {i} stayed undefined after {max_redraws} redraws")
        if m_a <= m_b:
            hits += 1
    return delta, hits / resamples


def delong_paired(scores_a, scores_b, labels):
    """(auc_a - auc_b, one-sided p-value that a's ROC-AUC is no better) by DeLong's paired test.

    DeLong, DeLong & Clarke-Pearson (1988), Biometrics 44:837. Each scorer's
    structural components are, for a positive, the share of negatives it
    outranks and, for a negative, the share of positives that outrank it,
    ties counting a half; both come from midranks. The variance of the AUC
    difference is the paired covariance of those components, and the
    p-value is the normal upper tail of the difference over its standard error.
    """
    labels = np.asarray(labels)
    pos, neg = labels == 1, labels == 0
    m, n = int(pos.sum()), int(neg.sum())
    v10, v01 = [], []
    for scores in (np.asarray(scores_a, dtype=float), np.asarray(scores_b, dtype=float)):
        ranks = _midranks(scores)
        v10.append((ranks[pos] - _midranks(scores[pos])) / n)
        v01.append(1.0 - (ranks[neg] - _midranks(scores[neg])) / m)
    delta = float(v10[0].mean() - v10[1].mean())
    s10, s01 = np.cov(v10), np.cov(v01)
    contrast = np.array([1.0, -1.0])
    se = math.sqrt(contrast @ s10 @ contrast / m + contrast @ s01 @ contrast / n)
    return delta, 0.5 * math.erfc(delta / se / math.sqrt(2.0))
