"""Acceptance gate: the package's headline guarantees, one criterion per test.

Each test prints a single [PASS]/[FAIL] line on the terminal (bypassing
capture) so a full run reads as a checklist. Oracles are recomputed here from
first principles rather than imported from the library under test.
"""

import hashlib
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from selcert import (
    BinomialTail,
    Dataset,
    RiskConfig,
    SyntheticScorerSpec,
    apply_certificate,
    binom_cdf,
    certify_threshold,
    generate_synthetic,
    pr_auc,
    risk_upper_bound,
    roc_auc,
    selective_report,
    summarize_trials,
    tradeoff_curve,
    validate_guarantee,
    write_dataset,
)
from selcert.calibrate import confidence, predicted_label
from selcert.cli import main
from selcert.rng import substream_seed

MASTER_SEED = 20260818


def _criterion(capsys, label, body):
    try:
        detail = body()
    except BaseException as exc:
        with capsys.disabled():
            print(f"[FAIL] {label}: {type(exc).__name__}", flush=True)
        raise
    with capsys.disabled():
        print(f"[PASS] {label}: {detail}", flush=True)


# ---------------------------------------------------------------------------
# shared synthetic fixture (module-scoped: several criteria read it)

FIXTURE_SHAPES = dict(prevalence=0.5, pos_shape=(3.0, 2.0), neg_shape=(2.0, 3.0))


@pytest.fixture(scope="module")
def calib_fixture():
    return generate_synthetic(SyntheticScorerSpec(
        n=2000, seed=substream_seed(MASTER_SEED, 1), **FIXTURE_SHAPES))


@pytest.fixture(scope="module")
def test_fixture():
    return generate_synthetic(SyntheticScorerSpec(
        n=5000, seed=substream_seed(MASTER_SEED, 2), **FIXTURE_SHAPES))


def test_c1_binomial_bound_consistency(capsys):
    def body():
        rng = np.random.default_rng(MASTER_SEED)
        start = time.perf_counter()
        worst = 0.0
        for _ in range(1000):
            n = int(rng.integers(1, 5001))
            k = int(rng.integers(0, n))  # k < n
            beta = float(rng.uniform(0.005, 0.5))
            bound = risk_upper_bound(BinomialTail(k, n), beta)
            gap = abs(binom_cdf(k, n, bound.value) - beta)
            worst = max(worst, gap)
            assert gap <= 1e-8
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0
        return f"1000 draws, worst |CDF-beta| {worst:.2e}, {elapsed:.2f}s"

    _criterion(capsys, "C1 binomial bound consistency", body)


def test_c2_closed_form_edge(capsys):
    def body():
        worst = 0.0
        for beta in (0.01, 0.05, 0.1, 0.2):
            for n in range(1, 1001):
                got = risk_upper_bound(BinomialTail(0, n), beta).value
                exact = 1.0 - beta ** (1.0 / n)
                worst = max(worst, abs(got - exact))
                assert abs(got - exact) <= 1e-9
        return f"4000 (n, beta) pairs, worst gap {worst:.2e}"

    _criterion(capsys, "C2 closed-form edge k=0", body)


def test_c3_exact_oracle_equivalence(capsys):
    # CDF(k; n, p) summed in exact rational arithmetic at the binary value of p
    p_grid = [0.01, 0.1, 0.25, 1 / 3, 0.37, 0.5, 0.62, 0.75, 0.9, 0.99]

    def rational_cdf(k, n, p):
        q = Fraction(p)
        total = Fraction(0)
        for j in range(k + 1):
            total += math.comb(n, j) * q**j * (1 - q) ** (n - j)
        return float(total)

    def body():
        worst = 0.0
        checks = 0
        for n in range(1, 13):
            for k in range(n + 1):
                for p in p_grid:
                    gap = abs(binom_cdf(k, n, p) - rational_cdf(k, n, p))
                    worst = max(worst, gap)
                    checks += 1
                    assert gap <= 1e-12
        return f"{checks} points vs Fraction enumeration, worst gap {worst:.2e}"

    _criterion(capsys, "C3 exact-oracle equivalence n<=12", body)


def test_c3b_scipy_quantile_oracle(capsys):
    # the exact upper bound is the (1 - beta) quantile of Beta(k + 1, n - k)
    stats = pytest.importorskip("scipy.stats")

    def body():
        rng = np.random.default_rng(substream_seed(MASTER_SEED, 3))
        n = rng.integers(1, 5001, 20000)
        k = (rng.random(20000) * n).astype(int)  # k < n
        beta = rng.uniform(0.005, 0.5, 20000)
        got = np.array([
            risk_upper_bound(BinomialTail(int(ki), int(ni)), float(bi)).value
            for ki, ni, bi in zip(k, n, beta)
        ])
        expected = stats.beta.ppf(1.0 - beta, k + 1, n - k)
        rel = np.abs(got - expected) / expected
        assert rel.max() <= 1e-12
        return f"20000 random (k, n, beta), worst relative gap {rel.max():.2e}"

    _criterion(capsys, "C3b scipy beta-quantile oracle", body)


def test_c4_metric_oracles(capsys):
    def pair_count_auc(scores, labels):
        pos = [s for s, y in zip(scores, labels) if y == 1]
        neg = [s for s, y in zip(scores, labels) if y == 0]
        wins = sum(1.0 if p > q else 0.5 if p == q else 0.0 for p in pos for q in neg)
        return wins / (len(pos) * len(neg))

    def threshold_walk_ap(scores, labels):
        order = sorted(range(len(scores)), key=lambda i: -scores[i])
        n_pos = sum(labels)
        ap = tp = seen = 0.0
        idx = 0
        while idx < len(order):
            stop = idx
            while stop + 1 < len(order) and scores[order[stop + 1]] == scores[order[idx]]:
                stop += 1
            block_tp = sum(labels[order[j]] for j in range(idx, stop + 1))
            tp += block_tp
            seen += stop - idx + 1
            if block_tp:
                ap += (block_tp / n_pos) * (tp / seen)
            idx = stop + 1
        return ap

    def body():
        rng = np.random.default_rng(MASTER_SEED + 4)
        worst_pr = 0.0
        for _ in range(500):
            n = int(rng.integers(2, 65))
            if rng.random() < 0.5:
                scores = (rng.integers(0, 17, n) / 16).tolist()  # heavy ties
            else:
                scores = rng.random(n).tolist()
            labels = rng.integers(0, 2, n).tolist()
            labels[0], labels[1] = 1, 0  # keep both classes present
            assert roc_auc(scores, labels) == pair_count_auc(scores, labels)
            pr_gap = abs(pr_auc(scores, labels) - threshold_walk_ap(scores, labels))
            worst_pr = max(worst_pr, pr_gap)
            assert pr_gap <= 1e-12
        return f"500 datasets: ROC exact, worst PR gap {worst_pr:.2e}"

    _criterion(capsys, "C4 metric oracles (ROC pair-count, PR rank-walk)", body)


def test_c5_certification_oracle(capsys):
    def brute_force(data, config):
        rows = list(zip(data.scores.tolist(), data.labels.tolist()))
        grid = sorted({confidence(score) for score, _ in rows})
        stats = []
        for lam in grid:
            kept = [(score, label) for score, label in rows if confidence(score) >= lam]
            errors = sum(1 for score, label in kept if predicted_label(score) != label)
            stats.append((lam, len(kept), errors))
        eligible = [(lam, n, k) for lam, n, k in stats if n >= config.min_count]
        for idx, (lam, _, _) in enumerate(eligible):
            if all(risk_upper_bound(BinomialTail(k, n), config.beta).value <= config.alpha
                   for _, n, k in eligible[idx:]):
                return lam
        return None

    def body():
        rng = np.random.default_rng(MASTER_SEED + 5)
        feasible = infeasible = 0
        for _ in range(200):
            n = int(rng.integers(1, 13))
            scores, labels = [], []
            for _ in range(n):
                score = float(rng.integers(0, 17) / 16)
                # mostly-correct labels so the feasible branch gets real coverage
                label = predicted_label(score) if rng.random() < 0.75 else 1 - predicted_label(score)
                scores.append(score)
                labels.append(label)
            data = Dataset([f"r{i}" for i in range(n)], scores, labels)
            config = RiskConfig(
                alpha=float(rng.uniform(0.05, 0.9)),
                beta=float(rng.choice([0.05, 0.1, 0.2, 0.3])),
                min_count=int(rng.integers(1, 4)),
            )
            expected = brute_force(data, config)
            cert = certify_threshold(data, config)
            assert cert.lambda_hat == expected
            assert cert.feasible == (expected is not None)
            if expected is None:
                infeasible += 1
            else:
                feasible += 1
        assert infeasible > 0  # the case mix must exercise the infeasible branch
        return f"200 calibration sets ({feasible} feasible, {infeasible} infeasible)"

    _criterion(capsys, "C5 certification matches brute-force scan", body)


def test_c6_guarantee_validation(capsys):
    def body():
        spec = SyntheticScorerSpec(
            n=1, prevalence=0.5, pos_shape=(8, 2), neg_shape=(2, 8), seed=0)
        config = RiskConfig(alpha=0.1, beta=0.1, min_count=25)
        start = time.perf_counter()
        trials = validate_guarantee(
            spec, config, trials=1000, n_calib=500, n_test=2000, seed=MASTER_SEED)
        elapsed = time.perf_counter() - start
        summary = summarize_trials(trials)
        assert summary["n_feasible"] > 0
        assert summary["violation_rate"] <= 0.13  # beta + 3 Bernoulli SEs
        assert elapsed < 120.0
        return (
            f"violation rate {summary['violation_rate']} over "
            f"{summary['n_feasible']} feasible trials, {elapsed:.1f}s"
        )

    _criterion(capsys, "C6 selective accuracy guarantee holds", body)


def _midranks(values):
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    sv = values[order]
    i = 0
    while i < len(sv):
        j = i
        while j + 1 < len(sv) and sv[j + 1] == sv[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2 + 1
        i = j + 1
    return ranks


def test_c7_tradeoff_shape(capsys, test_fixture):
    def body():
        curve = tradeoff_curve(test_fixture)
        kept = curve.fraction_kept.tolist()
        assert all(b <= a for a, b in zip(kept, kept[1:]))
        pairs = [(lam, accuracy) for lam, accuracy in zip(curve.lam.tolist(), curve.selective_accuracy.tolist())
                 if accuracy is not None]
        rx = _midranks([lam for lam, _ in pairs])
        ry = _midranks([acc for _, acc in pairs])
        rx -= rx.mean()
        ry -= ry.mean()
        rho = float(rx @ ry / np.sqrt((rx @ rx) * (ry @ ry)))
        assert rho > 0.8
        return f"{len(kept)} grid points, kept non-increasing, Spearman rho {rho:.4f}"

    _criterion(capsys, "C7 coverage/accuracy tradeoff shape", body)


def test_c8_improvement_direction(capsys, calib_fixture, test_fixture):
    def body():
        cert = certify_threshold(calib_fixture, RiskConfig(alpha=0.2, beta=0.1, min_count=25))
        assert cert.feasible
        base = selective_report(test_fixture)
        sel = selective_report(test_fixture, apply_certificate(test_fixture, cert))
        gain = sel.accuracy - base.accuracy
        assert gain >= 0.02
        assert sel.retain_rate > 0.3
        return (
            f"accuracy {base.accuracy:.4f} -> {sel.accuracy:.4f} "
            f"(+{gain:.4f}) at retain rate {sel.retain_rate:.3f}"
        )

    _criterion(capsys, "C8 certified abstention improves accuracy", body)


def test_c9_end_to_end_determinism(capsys, tmp_path):
    inputs = tmp_path / "inputs"
    outputs = tmp_path / "outputs"
    inputs.mkdir()
    outputs.mkdir()
    calib_csv = str(inputs / "calib.csv")
    test_csv = str(inputs / "test.csv")
    write_dataset(generate_synthetic(SyntheticScorerSpec(
        n=400, seed=substream_seed(MASTER_SEED, 3), **FIXTURE_SHAPES)), calib_csv)
    write_dataset(generate_synthetic(SyntheticScorerSpec(
        n=600, seed=substream_seed(MASTER_SEED, 4), **FIXTURE_SHAPES)), test_csv)

    cert = str(outputs / "cert.json")
    decisions = str(outputs / "decisions.csv")
    produced = [
        "cert.json", "decisions.csv", "decisions.csv.manifest.json",
        "report.json", "curve.csv", "curve.json", "sim.csv", "sim.json",
    ]

    def pipeline():
        assert main(["calibrate", "--calib", calib_csv, "--alpha", "0.3", "--beta", "0.2",
                     "--min-count", "10", "--out", cert]) == 0
        assert main(["apply", "--test", test_csv, "--cert", cert,
                     "--out", decisions]) == 0
        assert main(["evaluate", "--test", test_csv, "--decisions", decisions,
                     "--cert", cert, "--out", str(outputs / "report.json")]) == 0
        assert main(["tradeoff", "--test", test_csv,
                     "--out-prefix", str(outputs / "curve")]) == 0
        assert main(["simulate", "--trials", "8", "--n-calib", "60", "--n-test", "100",
                     "--alpha", "0.3", "--beta", "0.2", "--min-count", "5",
                     "--pos-shape", "3,2", "--neg-shape", "2,3", "--seed", "11",
                     "--out-prefix", str(outputs / "sim")]) == 0
        snapshot = {}
        for name in produced:
            path = outputs / name
            snapshot[name] = path.read_bytes()
            path.unlink()
        return snapshot

    def body():
        first = pipeline()
        second = pipeline()
        for name in produced:
            assert first[name] == second[name]
        digest = hashlib.sha256(b"".join(first[name] for name in produced)).hexdigest()
        json.loads(first["report.json"])  # outputs stay parseable
        return f"{len(produced)} files byte-identical across reruns ({digest[:12]})"

    _criterion(capsys, "C9 end-to-end pipeline determinism", body)
