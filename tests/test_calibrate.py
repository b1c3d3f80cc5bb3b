"""Threshold certification, decision application, certificate serialization.

The 6-record fixture has confidences [0.6..0.95] with mistakes at 0.6 and
0.8; its grid bounds at beta=0.2 were frozen from an exact-bisection oracle.
"""

import json

import numpy as np
import pytest

from selcert import (
    BinomialTail,
    Dataset,
    Decision,
    DomainError,
    EmptyCalibrationError,
    InfeasibleCertificateError,
    PredictionRecord,
    RiskConfig,
    SchemaError,
    ThresholdCertificate,
    apply_certificate,
    certificate_from_json,
    certificate_to_json,
    certify_threshold,
    confidence,
    load_certificate,
    predicted_label,
    read_decisions,
    retain_rate,
    risk_upper_bound,
    selective_risk,
    write_decisions,
)
import selcert.binom as binom
from selcert.calibrate import GridPoint, _confidence_correct


def fixture6() -> Dataset:
    rows = [
        ("t1", 0.95, 1),  # correct
        ("t2", 0.90, 1),  # correct
        ("t3", 0.85, 1),  # correct
        ("t4", 0.80, 0),  # wrong
        ("t5", 0.70, 1),  # correct
        ("t6", 0.60, 0),  # wrong
    ]
    return Dataset(records=tuple(PredictionRecord(i, s, y) for i, s, y in rows))


# ascending grid lambda -> (n_at, errors_at, frozen bound at beta=0.2)
FROZEN_GRID = [
    (0.60, 6, 2, 0.585394235302173),
    (0.70, 5, 1, 0.49019234297219433),
    (0.80, 4, 1, 0.5824535745243332),
    (0.85, 3, 0, 0.41519645235742675),
    (0.90, 2, 0, 0.5527864045000421),
    (0.95, 1, 0, 0.8),
]


class TestConfidence:
    def test_low_score_flips(self):
        assert confidence(0.287) == 1 - 0.287
        assert abs(confidence(0.287) - 0.713) < 1e-15

    def test_midpoint(self):
        assert confidence(0.5) == 0.5

    def test_extremes(self):
        assert confidence(0.0) == 1.0
        assert confidence(1.0) == 1.0

    @pytest.mark.parametrize("bad", [-0.1, 1.1, float("nan"), "0.7", None])
    def test_rejects_bad_scores(self, bad):
        with pytest.raises(DomainError):
            confidence(bad)


class TestPredictedLabel:
    def test_threshold_half_goes_positive(self):
        assert predicted_label(0.5) == 1
        assert predicted_label(0.49) == 0
        assert predicted_label(0.51) == 1


class TestSelectiveRisk:
    def test_hand_counted_point(self):
        pt = selective_risk(fixture6(), 0.8, beta=0.2)
        assert (pt.n_at, pt.errors_at, pt.risk_hat) == (4, 1, 0.25)

    def test_frozen_bounds(self):
        data = fixture6()
        for lam, n_at, errors_at, bound in FROZEN_GRID:
            pt = selective_risk(data, lam, beta=0.2)
            assert (pt.n_at, pt.errors_at) == (n_at, errors_at)
            assert pt.risk_plus == pytest.approx(bound, abs=1e-10)

    def test_nothing_retained(self):
        pt = selective_risk(fixture6(), 0.99, beta=0.2)
        assert (pt.n_at, pt.errors_at, pt.risk_hat, pt.risk_plus) == (0, 0, 1.0, 1.0)

    def test_threshold_between_grid_points(self):
        pt = selective_risk(fixture6(), 0.82, beta=0.2)
        assert (pt.n_at, pt.errors_at) == (3, 0)


class TestCertifyThreshold:
    def test_tight_budget_is_infeasible(self):
        cert = certify_threshold(fixture6(), RiskConfig(alpha=0.3, beta=0.2))
        assert cert.status == "infeasible"
        assert cert.lambda_hat is None
        assert not cert.feasible

    def test_loose_budget_certifies_bottom_of_grid(self):
        cert = certify_threshold(fixture6(), RiskConfig(alpha=0.85, beta=0.2))
        assert cert.feasible and cert.lambda_hat == 0.6

    def test_evidence_floor_unlocks_mid_grid(self):
        # with min_count=3 the thin n<3 tail points stop constraining the scan
        cert = certify_threshold(fixture6(), RiskConfig(alpha=0.45, beta=0.2, min_count=3))
        assert cert.feasible and cert.lambda_hat == 0.85

    def test_grid_is_fully_recorded(self):
        cert = certify_threshold(fixture6(), RiskConfig(alpha=0.3, beta=0.2))
        assert [pt.lam for pt in cert.grid] == [g[0] for g in FROZEN_GRID]
        assert [(pt.n_at, pt.errors_at) for pt in cert.grid] == [(g[1], g[2]) for g in FROZEN_GRID]
        assert cert.calib_size == 6

    def test_thin_failing_point_does_not_block(self):
        # at alpha=0.5 the n=4 point at 0.8 fails the bound, but with
        # min_count=5 it is exempt; the scan lands on the eligible 0.7
        cert = certify_threshold(fixture6(), RiskConfig(alpha=0.5, beta=0.2, min_count=5))
        assert cert.lambda_hat == 0.7
        assert cert.grid[2].risk_plus > 0.5  # the exempted 0.8 point

    def test_empty_calibration(self):
        with pytest.raises(EmptyCalibrationError):
            certify_threshold(Dataset(records=()), RiskConfig(alpha=0.3, beta=0.2))

    def test_tied_confidences_share_grid_point(self):
        # 0.3 and 0.7 both map to confidence 0.7
        data = Dataset(
            records=(
                PredictionRecord("a", 0.3, 0),
                PredictionRecord("b", 0.7, 1),
                PredictionRecord("c", 0.9, 1),
            )
        )
        cert = certify_threshold(data, RiskConfig(alpha=0.9, beta=0.2))
        assert [pt.lam for pt in cert.grid] == [0.7, 0.9]
        assert cert.grid[0].n_at == 3

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(2024)
        score_pool = np.arange(1, 16) / 16.0
        for trial in range(60):
            n = int(rng.integers(1, 13))
            scores = rng.choice(score_pool, size=n)
            labels = rng.integers(0, 2, size=n)
            alpha = float(rng.uniform(0.05, 0.9))
            beta = float(rng.choice([0.05, 0.1, 0.2, 0.3]))
            min_count = int(rng.integers(1, 4))
            data = Dataset(
                records=tuple(
                    PredictionRecord(f"r{i}", float(scores[i]), int(labels[i])) for i in range(n)
                )
            )
            cert = certify_threshold(data, RiskConfig(alpha=alpha, beta=beta, min_count=min_count))
            expected = brute_force_certify(scores, labels, alpha, beta, min_count)
            assert cert.lambda_hat == expected, f"trial {trial}"

    def test_grid_bounds_match_fresh_solves(self):
        rng = np.random.default_rng(77)
        scores = rng.beta(3.0, 2.0, 500)
        labels = (rng.random(500) < scores).astype(int)
        data = Dataset(records=tuple(
            PredictionRecord(f"r{i}", float(s), int(y)) for i, (s, y) in enumerate(zip(scores, labels))
        ))
        cert = certify_threshold(data, RiskConfig(alpha=0.3, beta=0.1, min_count=10))
        binom._solve_upper_bound.cache_clear()
        for pt in cert.grid:
            assert pt.risk_plus == risk_upper_bound(BinomialTail(pt.errors_at, pt.n_at), 0.1).value

    def test_min_count_above_n_is_always_infeasible(self):
        cert = certify_threshold(fixture6(), RiskConfig(alpha=0.99, beta=0.2, min_count=7))
        assert not cert.feasible


def brute_force_certify(scores, labels, alpha, beta, min_count):
    """Reference scan: try every grid value and recheck its whole suffix."""
    conf = [max(s, 1 - s) for s in scores]
    wrong = [(1 if s >= 0.5 else 0) != y for s, y in zip(scores, labels)]
    grid = sorted(set(conf))
    stats = {}
    for lam in grid:
        kept = [i for i, c in enumerate(conf) if c >= lam]
        k = sum(wrong[i] for i in kept)
        stats[lam] = (len(kept), risk_upper_bound(BinomialTail(k, len(kept)), beta).value)
    for lam in grid:
        if stats[lam][0] < min_count:
            continue
        suffix = [v for v in grid if v >= lam and stats[v][0] >= min_count]
        if all(stats[v][1] <= alpha for v in suffix):
            return lam
    return None


class TestRiskConfig:
    @pytest.mark.parametrize("kwargs", [
        dict(alpha=0.0, beta=0.1),
        dict(alpha=1.0, beta=0.1),
        dict(alpha=0.1, beta=0.0),
        dict(alpha=0.1, beta=1.0),
        dict(alpha=0.1, beta=0.1, min_count=0),
        dict(alpha=float("nan"), beta=0.1),
        dict(alpha=True, beta=0.1),
    ])
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(DomainError):
            RiskConfig(**kwargs)


class TestCertificateInvariants:
    def test_lambda_hat_required_iff_feasible(self):
        config = RiskConfig(alpha=0.5, beta=0.2)
        with pytest.raises(DomainError):
            ThresholdCertificate("feasible", None, (), config, 1)
        with pytest.raises(DomainError):
            ThresholdCertificate("infeasible", 0.7, (), config, 1)

    def test_rejects_unknown_status(self):
        with pytest.raises(DomainError):
            ThresholdCertificate("maybe", None, (), RiskConfig(0.5, 0.2), 1)

    def test_rejects_unsorted_grid(self):
        pts = (
            GridPoint(0.9, 1, 0, 0.0, 0.8),
            GridPoint(0.6, 2, 0, 0.0, 0.5),
        )
        with pytest.raises(DomainError):
            ThresholdCertificate("infeasible", None, pts, RiskConfig(0.5, 0.2), 2)


class TestApplyCertificate:
    def test_decisions(self):
        cert = certify_threshold(fixture6(), RiskConfig(alpha=0.45, beta=0.2, min_count=3))
        decisions = apply_certificate(fixture6(), cert)
        assert [d.outcome for d in decisions] == ["1", "1", "1", "abstain", "abstain", "abstain"]
        assert retain_rate(decisions) == 0.5

    def test_abstention_keeps_confidence(self):
        cert = certify_threshold(fixture6(), RiskConfig(alpha=0.45, beta=0.2, min_count=3))
        decisions = apply_certificate(
            Dataset(records=(PredictionRecord("low", 0.287, 0),)), cert
        )
        assert decisions[0].prediction is None
        assert decisions[0].confidence == 1 - 0.287

    def test_boundary_score_is_retained(self):
        cert = certify_threshold(fixture6(), RiskConfig(alpha=0.45, beta=0.2, min_count=3))
        decisions = apply_certificate(
            Dataset(records=(PredictionRecord("edge", 0.85, 1),)), cert
        )
        assert decisions[0].prediction == 1

    def test_infeasible_certificate_refuses(self):
        cert = certify_threshold(fixture6(), RiskConfig(alpha=0.3, beta=0.2))
        with pytest.raises(InfeasibleCertificateError):
            apply_certificate(fixture6(), cert)

    def test_retain_rate_of_nothing(self):
        assert retain_rate([]) == 0.0


class TestDecision:
    def test_outcome_strings(self):
        assert Decision("a", 1, 0.9).outcome == "1"
        assert Decision("a", 0, 0.9).outcome == "0"
        assert Decision("a", None, 0.9).outcome == "abstain"

    def test_retained_flag(self):
        assert Decision("a", 0, 0.9).retained
        assert not Decision("a", None, 0.9).retained


class TestCertificateSerialization:
    # thresholds are written with repr; derived statistics at 12 significant
    # digits, so those load stable under re-serialization, not bit-identical
    def test_round_trip_is_stable(self):
        cert = certify_threshold(fixture6(), RiskConfig(alpha=0.45, beta=0.2, min_count=3))
        text = certificate_to_json(cert)
        loaded = certificate_from_json(text)
        assert certificate_to_json(loaded) == text
        assert loaded.status == cert.status
        assert loaded.lambda_hat == pytest.approx(cert.lambda_hat, rel=1e-11)
        assert [(pt.n_at, pt.errors_at) for pt in loaded.grid] == [
            (pt.n_at, pt.errors_at) for pt in cert.grid
        ]

    def test_thresholds_round_trip_exactly(self):
        # confidences with more than 12 significant digits
        scores = [0.5 + i / 7.0 / 3.0 for i in range(1, 8)]
        data = Dataset(records=tuple(
            PredictionRecord(f"r{i}", s, 1) for i, s in enumerate(scores)
        ))
        cert = certify_threshold(data, RiskConfig(alpha=0.9, beta=0.2))
        loaded = certificate_from_json(certificate_to_json(cert))
        assert loaded.lambda_hat == cert.lambda_hat
        assert [pt.lam for pt in loaded.grid] == [pt.lam for pt in cert.grid]

    def test_round_trip_infeasible(self):
        cert = certify_threshold(fixture6(), RiskConfig(alpha=0.3, beta=0.2))
        loaded = certificate_from_json(certificate_to_json(cert))
        assert loaded.status == "infeasible" and loaded.lambda_hat is None

    def test_manifest_is_embedded_but_ignored_on_load(self):
        cert = certify_threshold(fixture6(), RiskConfig(alpha=0.85, beta=0.2))
        text = certificate_to_json(cert, manifest={"command": "calibrate"})
        doc = json.loads(text)
        assert doc["manifest"] == {"command": "calibrate"}
        assert certificate_from_json(text).lambda_hat == cert.lambda_hat

    def test_numbers_use_twelve_significant_digits(self):
        cert = certify_threshold(fixture6(), RiskConfig(alpha=0.45, beta=0.2, min_count=3))
        text = certificate_to_json(cert)
        assert '"risk_plus": 0.415196452357' in text

    def test_key_layout(self):
        cert = certify_threshold(fixture6(), RiskConfig(alpha=0.85, beta=0.2))
        doc = json.loads(certificate_to_json(cert))
        assert list(doc) == ["status", "lambda_hat", "alpha", "beta", "min_count", "calib_size", "grid"]
        assert list(doc["grid"][0]) == ["lambda", "n", "errors", "risk_hat", "risk_plus"]

    def test_load_certificate(self, tmp_path):
        cert = certify_threshold(fixture6(), RiskConfig(alpha=0.85, beta=0.2))
        path = tmp_path / "cert.json"
        path.write_text(certificate_to_json(cert))
        loaded = load_certificate(path)
        assert loaded.lambda_hat == cert.lambda_hat == 0.6
        assert loaded.config == cert.config

    def test_malformed_certificate(self):
        with pytest.raises(SchemaError):
            certificate_from_json("{not json")
        with pytest.raises(SchemaError):
            certificate_from_json('{"status": "feasible"}')


class TestDecisionsIO:
    def test_round_trip(self, tmp_path):
        cert = certify_threshold(fixture6(), RiskConfig(alpha=0.45, beta=0.2, min_count=3))
        decisions = apply_certificate(fixture6(), cert)
        path = tmp_path / "dec.csv"
        write_decisions(decisions, path)
        assert read_decisions(path) == decisions

    def test_header_checked(self, tmp_path):
        path = tmp_path / "dec.csv"
        path.write_text("id,verdict,confidence\na,1,0.9\n")
        with pytest.raises(SchemaError):
            read_decisions(path)

    def test_bad_outcome(self, tmp_path):
        path = tmp_path / "dec.csv"
        path.write_text("id,outcome,confidence\na,maybe,0.9\n")
        with pytest.raises(SchemaError):
            read_decisions(path)

    def test_confidence_range_checked(self, tmp_path):
        path = tmp_path / "dec.csv"
        path.write_text("id,outcome,confidence\na,1,0.2\n")
        with pytest.raises(SchemaError):
            read_decisions(path)

    def test_duplicate_ids(self, tmp_path):
        path = tmp_path / "dec.csv"
        path.write_text("id,outcome,confidence\na,1,0.9\na,0,0.8\n")
        with pytest.raises(SchemaError):
            read_decisions(path)


class TestDecisionsCsvQuoting:
    @pytest.mark.parametrize("rec_id", ["a\nb", "a\rb", 'x,"y"\r\nz'])
    def test_line_breaks_in_ids_round_trip(self, tmp_path, rec_id):
        decisions = [Decision(id=rec_id, prediction=1, confidence=0.75),
                     Decision(id="plain", prediction=None, confidence=0.5)]
        path = tmp_path / "dec.csv"
        write_decisions(decisions, path)
        assert read_decisions(path) == decisions

    def test_utf8_bom_accepted(self, tmp_path):
        path = tmp_path / "dec.csv"
        path.write_bytes("\ufeffid,outcome,confidence\na,1,0.9\n".encode("utf-8"))
        assert read_decisions(path) == [Decision(id="a", prediction=1, confidence=0.9)]


class TestConfidenceCorrectKernel:
    def test_matches_scalar_rules(self):
        scores = np.array([0.0, 0.2, 0.5, 0.5, 0.7, 1.0])
        labels = np.array([0, 1, 1, 0, 1, 0])
        conf, correct = _confidence_correct(scores, labels)
        assert conf.tolist() == [confidence(s) for s in scores]
        assert correct.tolist() == [predicted_label(s) == y for s, y in zip(scores, labels)]
