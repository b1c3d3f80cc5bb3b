"""Independent oracles for the program's outputs.

Every check recomputes a published number from the raw inputs with numpy and
scipy, never with the package under test, and returns a list of failure
messages (empty when the output holds). scipy is a benchmark-only dependency.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import stats

# Thresholds, bounds and rates are rendered at 12 significant digits.
DIGITS = 12
KNIFE_EDGE = 1e-9


def render(x: float) -> str:
    return format(float(x), f".{DIGITS}g")


def agrees(stored: float, exact: float) -> bool:
    """True when `stored` equals `exact` to within one unit in its 12th digit."""
    if exact == 0.0:
        return stored == 0.0
    unit = 10.0 ** (math.floor(math.log10(abs(exact))) - (DIGITS - 1))
    return abs(stored - exact) <= unit


def confidence(scores: np.ndarray) -> np.ndarray:
    return np.maximum(scores, 1.0 - scores)


def correct(scores: np.ndarray, labels: np.ndarray) -> np.ndarray:
    return (scores >= 0.5).astype(np.int64) == labels


def grid(scores: np.ndarray, labels: np.ndarray):
    """Distinct confidences with retained counts and retained errors at each."""
    conf = confidence(scores)
    wrong = ~correct(scores, labels)
    lams = np.unique(conf)
    # records at or above each grid value, counted directly from the data
    conf_sorted = np.sort(conf)
    n_at = len(conf) - np.searchsorted(conf_sorted, lams, side="left")
    wrong_conf = np.sort(conf[wrong])
    errors = len(wrong_conf) - np.searchsorted(wrong_conf, lams, side="left")
    return lams, n_at, errors


def upper_bounds(errors: np.ndarray, n_at: np.ndarray, beta: float) -> np.ndarray:
    """Exact one-sided upper bound: beta.ppf(1 - beta, k + 1, n - k), 1 when k = n."""
    bounds = np.ones(len(n_at))
    open_ = errors < n_at
    bounds[open_] = stats.beta.ppf(1.0 - beta, errors[open_] + 1, n_at[open_] - errors[open_])
    return bounds


def scan(lams, n_at, risk, alpha: float, min_count: int) -> float | None:
    """Smallest eligible threshold whose eligible upper grid all meets alpha."""
    lambda_hat = None
    for i in range(len(lams) - 1, -1, -1):
        if n_at[i] < min_count:
            continue
        if risk[i] > alpha:
            break
        lambda_hat = float(lams[i])
    return lambda_hat


def certify(scores, labels, alpha: float, beta: float, min_count: int):
    """Oracle certification: grid, bounds, exact lambda_hat and knife-edge count."""
    lams, n_at, errors = grid(scores, labels)
    risk = upper_bounds(errors, n_at, beta)
    eligible = n_at >= min_count
    knife_edges = int((eligible & (np.abs(risk - alpha) <= KNIFE_EDGE)).sum())
    return lams, n_at, errors, risk, scan(lams, n_at, risk, alpha, min_count), knife_edges


def check_certificate(doc: dict, scores, labels, alpha: float, beta: float, min_count: int):
    """Check a certificate JSON document; returns (failures, exact lambda_hat, knife edges)."""
    lams, n_at, errors, risk, lambda_hat, knife_edges = certify(scores, labels, alpha, beta, min_count)
    failures = []
    points = doc["grid"]
    if len(points) != len(lams):
        failures.append(f"grid has {len(points)} points, oracle has {len(lams)}")
        return failures, lambda_hat, knife_edges
    bad_lam = bad_count = bad_hat = bad_plus = 0
    for pt, lam, n, k, r in zip(points, lams.tolist(), n_at.tolist(), errors.tolist(), risk.tolist()):
        bad_lam += render(pt["lambda"]) != render(lam)
        bad_count += pt["n"] != n or pt["errors"] != k
        bad_hat += not agrees(pt["risk_hat"], k / n)
        bad_plus += not agrees(pt["risk_plus"], r)
    for what, bad in (("lambda", bad_lam), ("n/errors", bad_count), ("risk_hat", bad_hat), ("risk_plus", bad_plus)):
        if bad:
            failures.append(f"{bad} grid points disagree with the oracle on {what}")
    stored = doc["lambda_hat"]
    if (stored is None) != (lambda_hat is None) or (
        stored is not None and render(stored) != render(lambda_hat)
    ):
        failures.append(f"lambda_hat {stored!r} differs from the oracle scan {lambda_hat!r}")
    expected_status = "infeasible" if lambda_hat is None else "feasible"
    if doc["status"] != expected_status:
        failures.append(f"status {doc['status']!r}, oracle says {expected_status!r}")
    return failures, lambda_hat, knife_edges


def check_decisions(cols: dict[str, list[str]], ids: list[str], scores, lambda_hat: float) -> list[str]:
    """Decisions CSV against numpy decisions at the exact in-memory threshold.

    A mismatch is the threshold round-trip defect (the CLI re-reads a
    12-digit threshold from the certificate); it is counted, never masked.
    """
    if cols.get("id") != ids:
        return ["decision ids differ from the test ids"]
    conf = confidence(scores)
    keep = conf >= lambda_hat
    expected = np.where(keep, (scores >= 0.5).astype(np.int64).astype(str), "abstain")
    failures = []
    wrong_outcome = int((np.array(cols["outcome"]) != expected).sum())
    if wrong_outcome:
        failures.append(f"{wrong_outcome} decisions differ from the in-memory certificate")
    wrong_conf = sum(c != render(x) for c, x in zip(cols["confidence"], conf.tolist()))
    if wrong_conf:
        failures.append(f"{wrong_conf} decision confidences differ")
    return failures


def _check_block(doc: dict, scores, labels, kept, where: str) -> list[str]:
    failures = []
    n_retained = int(kept.sum())
    if doc["n_total"] != len(scores) or doc["n_retained"] != n_retained:
        failures.append(
            f"{where}: n_total/n_retained {doc['n_total']}/{doc['n_retained']},"
            f" expected {len(scores)}/{n_retained}"
        )
    accuracy = float(correct(scores[kept], labels[kept]).mean()) if n_retained else None
    got = doc["accuracy"]
    if (got is None) != (accuracy is None) or (got is not None and not agrees(got, accuracy)):
        failures.append(f"{where}: accuracy {got!r}, expected {accuracy!r}")
    return failures


def check_report(doc: dict, scores, labels, lambda_hat: float, groups: list[str] | None) -> list[str]:
    """Report's n_retained and accuracy, overall and per group, recomputed."""
    kept = confidence(scores) >= lambda_hat
    failures = _check_block(doc, scores, labels, kept, "overall")
    if groups is not None:
        g = np.array(groups)
        names = sorted(set(groups))
        if sorted(doc.get("groups", {})) != names:
            return failures + ["report groups differ from the test groups"]
        for name in names:
            sel = g == name
            failures += _check_block(doc["groups"][name], scores[sel], labels[sel], kept[sel], name)
    return failures


def check_curve(doc: dict, scores) -> list[str]:
    """Tradeoff curve has one point per distinct test confidence."""
    points = doc["points"]
    distinct = len(np.unique(confidence(scores)))
    if len(points) != distinct:
        return [f"curve has {len(points)} points, expected {distinct}"]
    if points[0]["fraction_kept"] != 1:
        return ["curve does not start at fraction_kept 1"]
    return []


# ---------------------------------------------------------------------------
# simulate: the documented synthetic model, re-derived independently

_MASK64 = (1 << 64) - 1


def _mix64(x: int) -> int:
    z = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def substream_seed(seed: int, index: int) -> int:
    return _mix64((seed ^ index) & _MASK64)


def synthetic(seed: int, n: int, prevalence: float, pos, neg):
    """Labels ~ Bernoulli(prevalence), then positive and negative Beta scores."""
    rng = np.random.default_rng(seed & _MASK64)
    labels = (rng.random(n) < prevalence).astype(np.int64)
    scores = np.empty(n)
    n_pos = int(labels.sum())
    scores[labels == 1] = rng.beta(pos[0], pos[1], n_pos)
    scores[labels == 0] = rng.beta(neg[0], neg[1], n - n_pos)
    return scores, labels


def check_simulation(doc: dict, p: dict) -> list[str]:
    """Every trial's lambda_hat and test selective accuracy, recomputed."""
    trials = doc["trials"]
    if len(trials) != p["trials"]:
        return [f"{len(trials)} trials reported, {p['trials']} requested"]
    bad_lambda = bad_accuracy = 0
    for t, row in enumerate(trials):
        trial_seed = substream_seed(p["seed"], t)
        model = (p["prevalence"], p["pos_shape"], p["neg_shape"])
        calib = synthetic(substream_seed(trial_seed, 1), p["n_calib"], *model)
        *_, lambda_hat, _ = certify(*calib, p["alpha"], p["beta"], p["min_count"])
        accuracy = None
        if lambda_hat is not None:
            scores, labels = synthetic(substream_seed(trial_seed, 2), p["n_test"], *model)
            kept = confidence(scores) >= lambda_hat
            if kept.any():
                accuracy = float(correct(scores[kept], labels[kept]).mean())
        got = row["lambda_hat"]
        bad_lambda += (got is None) != (lambda_hat is None) or (
            got is not None and render(got) != render(lambda_hat)
        )
        got = row["test_selective_accuracy"]
        bad_accuracy += (got is None) != (accuracy is None) or (
            got is not None and not agrees(got, accuracy)
        )
    failures = []
    if bad_lambda:
        failures.append(f"{bad_lambda} trials disagree with the oracle on lambda_hat")
    if bad_accuracy:
        failures.append(f"{bad_accuracy} trials disagree with the oracle on test accuracy")
    return failures


# ---------------------------------------------------------------------------
# bootstrap: average precision and midrank AUC, implemented here


def average_precision(scores, labels) -> float:
    """Step-form AP over descending score levels, tied scores as one block."""
    order = np.argsort(-scores, kind="stable")
    s, y = scores[order], labels[order]
    tp = np.cumsum(y)
    block_end = np.flatnonzero(np.append(s[1:] != s[:-1], True))
    tp_end = tp[block_end]
    gained = np.diff(np.concatenate([[0], tp_end]))
    return float(np.sum(gained / tp[-1] * tp_end / (block_end + 1)))


def midrank_auc(scores, labels) -> float:
    ranks = stats.rankdata(scores, method="average")
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    return float((ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def check_bootstrap(doc: dict, a, b, labels, resamples: int) -> list[str]:
    """delta equals the oracle metric difference; p-value and count are sane."""
    failures = []
    for metric, fn in (("pr_auc", average_precision), ("roc_auc", midrank_auc)):
        got = doc[metric]
        expected = fn(a, labels) - fn(b, labels)
        if not math.isclose(got["delta"], expected, rel_tol=1e-12, abs_tol=1e-12):
            failures.append(f"{metric} delta {got['delta']!r}, oracle {expected!r}")
        if got["resamples"] != resamples or not (0.0 <= got["p_value"] <= 1.0):
            failures.append(f"{metric}: bad resamples {got['resamples']!r} or p-value {got['p_value']!r}")
    return failures
