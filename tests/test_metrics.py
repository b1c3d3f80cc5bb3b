"""Ranking metrics, selective reports, paired bootstrap significance.

Bootstrap p-values were frozen from an independent loop-based oracle run
with the same substream contract (splitmix64 finalizer with the golden
increment, resample i seeded by mix64(seed ^ i)). The pr_auc, f1 and
close-pair values were frozen from the loop that scored each resample's
copied score columns, before resamples were scored from counts.
"""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import reference_metrics
import selcert.metrics
import selcert.rng
from selcert import (
    Dataset,
    Decisions,
    DegenerateLabelsError,
    DomainError,
    DuplicateIdError,
    EmptyInputError,
    IdMismatchError,
    ResampleCapError,
    UnpairedIdsError,
    bootstrap_significance,
    f1_accuracy,
    pr_auc,
    report_to_doc,
    roc_auc,
    selective_report,
)
from selcert.binom import risk_upper_bounds


def pair_count_auc(scores, labels):
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    num = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                num += 1.0
            elif p == q:
                num += 0.5
    return num / (len(pos) * len(neg))


def threshold_walk_ap(scores, labels):
    # precision/recall walk over distinct thresholds, descending
    n_pos = sum(labels)
    ap = 0.0
    recall_prev = 0.0
    for t in sorted(set(scores), reverse=True):
        tp = sum(1 for s, y in zip(scores, labels) if s >= t and y == 1)
        kept = sum(1 for s in scores if s >= t)
        recall = tp / n_pos
        ap += (recall - recall_prev) * (tp / kept)
        recall_prev = recall
    return ap


class TestRocAuc:
    def test_perfect_ranking(self):
        assert roc_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_inverted_ranking(self):
        assert roc_auc([0.1, 0.9], [1, 0]) == 0.0

    def test_hand_computed(self):
        # pairs: 0.9>0.8 scores 1, 0.3<0.8 scores 0 -> 0.5
        assert roc_auc([0.9, 0.8, 0.3], [1, 0, 1]) == 0.5

    def test_full_tie(self):
        assert roc_auc([0.7, 0.7], [1, 0]) == 0.5

    def test_matches_pair_counting_exactly(self):
        rng = np.random.default_rng(31)
        pool = np.arange(9) / 8.0
        for _ in range(120):
            n = int(rng.integers(2, 40))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            scores = rng.choice(pool, size=n)
            assert roc_auc(scores, labels) == pair_count_auc(scores, labels)

    def test_single_class_rejected(self):
        with pytest.raises(DegenerateLabelsError):
            roc_auc([0.2, 0.8], [1, 1])
        with pytest.raises(DegenerateLabelsError):
            roc_auc([0.2, 0.8], [0, 0])

    def test_shape_mismatch(self):
        with pytest.raises(DomainError):
            roc_auc([0.2, 0.8], [1])


class TestPrAuc:
    def test_perfect_ranking(self):
        assert pr_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_positive_ranked_last(self):
        assert pr_auc([0.9, 0.1], [0, 1]) == 0.5

    def test_tied_block_counts_once(self):
        assert pr_auc([0.8, 0.8], [1, 0]) == 0.5

    def test_hand_computed_fixture(self):
        # positives at ranks 1,2,3,5 -> (1 + 1 + 1 + 4/5) / 4
        scores = [0.95, 0.9, 0.85, 0.8, 0.7, 0.6]
        labels = [1, 1, 1, 0, 1, 0]
        assert pr_auc(scores, labels) == pytest.approx(0.95, abs=1e-15)

    def test_matches_threshold_walk_oracle(self):
        rng = np.random.default_rng(77)
        pool = np.arange(9) / 8.0
        for _ in range(120):
            n = int(rng.integers(2, 40))
            labels = rng.integers(0, 2, size=n)
            if labels.sum() == 0:
                labels[0] = 1
            scores = rng.choice(pool, size=n)
            expected = threshold_walk_ap(list(scores), list(labels))
            assert pr_auc(scores, labels) == pytest.approx(expected, abs=1e-12)

    def test_all_positive_is_one(self):
        assert pr_auc([0.4, 0.9], [1, 1]) == 1.0

    def test_no_positives_rejected(self):
        with pytest.raises(DegenerateLabelsError):
            pr_auc([0.4, 0.9], [0, 0])


class TestF1Accuracy:
    def test_hand_confusion_matrix(self):
        # preds [1,0,1] vs [1,0,0]: tp=1 fp=1 fn=0
        f1, acc = f1_accuracy([0.9, 0.4, 0.6], [1, 0, 0])
        assert f1 == pytest.approx(2 / 3)
        assert acc == pytest.approx(2 / 3)

    def test_zero_over_zero_f1_is_zero(self):
        f1, acc = f1_accuracy([0.1, 0.2], [0, 0])
        assert f1 == 0.0 and acc == 1.0

    def test_half_score_predicts_positive(self):
        f1, acc = f1_accuracy([0.5], [1])
        assert f1 == 1.0 and acc == 1.0

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            f1_accuracy([], [])


@pytest.mark.parametrize("fn, scores, labels, message", [
    pytest.param(fn, scores, labels, message, id=fn.__name__ + suffix)
    for fn in (roc_auc, pr_auc, f1_accuracy)
    for scores, labels, message, suffix in [
        ([0.2, 0.8, 0.6], [0, 2, 1], "labels[1] must be 0 or 1, got 2", ""),
        # a label is equal to 0 or 1, never cast: 0.7 is not read as 0
        ([0.1, 0.9, 0.4], [0.7, 1.2, 0], "labels[0] must be 0 or 1, got 0.7", "-fractional-label"),
        ([float("nan"), 0.9, 0.4], [1, 1, 0], "scores[0] must be a number within [0, 1], got nan",
         "-nan-score"),
        # string labels are not cast either, so "0" is as bad as "yes"
        ([0.2, 0.8], ["0", "1"], "labels[0] must be 0 or 1, got '0'", "-string-label"),
        # scores are probabilities: F1 and accuracy threshold them at 0.5
        ([7.0, -2.0], [1, 0], "scores[0] must be a number within [0, 1], got 7.0", "-score-above-one"),
        ([0.3, 0.9, -0.5], [1, 0, 0], "scores[2] must be a number within [0, 1], got -0.5",
         "-negative-score"),
        ([float("inf"), 0.2, -3.0], [1, 0, 0], "scores[0] must be a number within [0, 1], got inf",
         "-infinite-score"),
        ([0.3, float("-inf"), float("nan")], [1, 0, 1],
         "scores[1] must be a number within [0, 1], got -inf", "-first-bad-score"),
    ]
])
def test_labels_outside_zero_one_rejected(fn, scores, labels, message):
    with pytest.raises(DomainError) as err:
        fn(scores, labels)
    assert str(err.value) == message


@pytest.mark.parametrize("fn", [roc_auc, pr_auc, f1_accuracy])
@pytest.mark.parametrize("scores, labels, message", [
    # a score is read as the dataset reads one: text, a bool and a list are no number,
    # and an integer past the float range is out of range
    pytest.param(["0.9", "0.1"], [1, 0], "scores[0] must be a number within [0, 1], got '0.9'", id="text"),
    pytest.param([True, 0.1], [1, 0], "scores[0] must be a number within [0, 1], got True", id="bool"),
    pytest.param([10**400, 0.1], [1, 0], "scores[0] must be a number within [0, 1], got an integer of 1329 bits",
                 id="huge"),
    pytest.param([Fraction(10**400), 0.1], [1, 0], "scores[0] must be a number within [0, 1], got "
                 f"Fraction(1{'0' * 28}...{'0' * 35}, 1)", id="huge fraction"),
    pytest.param([0.5, [0.6]], [1, 0], "scores[1] must be a number within [0, 1], got [0.6]", id="list"),
    pytest.param([0.5, float("nan")], [1, 0], "scores[1] must be a number within [0, 1], got nan", id="nan"),
    pytest.param([0.5, 0.6], [[1], 0], "labels[0] must be 0 or 1, got [1]", id="list-label"),
    # a tuple is hashable as a type, yet one holding a list cannot be hashed
    pytest.param([0.5, 0.6], [(0, [1]), 1], "labels[0] must be 0 or 1, got (0, [1])", id="tuple-label"),
    pytest.param(np.array(0.5), np.array(1), "scores must be a column (a list, tuple, range or 1-d array), "
                 "got array(0.5)", id="0-d"),
])
def test_metric_inputs_read_as_table_cells(fn, scores, labels, message):
    with pytest.raises(DomainError) as err:
        fn(scores, labels)
    assert str(err.value) == message


@pytest.mark.parametrize("fn", [roc_auc, pr_auc, f1_accuracy])
@pytest.mark.parametrize("scores, labels", [
    ([0.2, 0.8, 0.6, 0.4], [1, 0, 1, 0]),
    ([0.2, 0.8, 0.6, 0.4], [True, False, True, False]),
    ([0.2, 0.8, 0.6, 0.4], [1.0, 0.0, 1.0, -0.0]),
    ([0.2, 0.8, 0.6, 0.4], [1, 0, 2, 0]),
    ([0.2, 0.8, 0.6, 0.4], [1, 0, -1, 0]),
    ([0.2, 0.8, 0.6, 0.4], [1.0, 0.0, 0.5, float("nan")]),
    ([0.2, 0.8, 0.6, 0.4], ["1", "0", "1", "0"]),
    ([0.2, float("nan"), 0.6, 0.4], [1, 0, 1, 0]),
    ([0.2, 1.5, 0.6, 0.4], [1, 0, 1, 0]),
    ([1, 0, 1, 0], [1, 0, 1, 0]),
    ([True, False, True, False], [1, 0, 1, 0]),
])
def test_numpy_columns_read_as_their_lists(fn, scores, labels):
    # a typed array is read a column at a time, a list a cell at a time: one answer
    def outcome(s, y):
        try:
            return fn(s, y)
        except DomainError as err:
            return str(err)

    assert outcome(np.array(scores), np.array(labels)) == outcome(scores, labels)
    assert outcome(np.array(scores), np.array(labels, dtype=object)) == outcome(scores, labels)


@pytest.mark.parametrize("fn", [roc_auc, pr_auc, f1_accuracy])
def test_bool_and_whole_float_labels_accepted(fn):
    scores = [0.2, 0.8, 0.6, 0.4]
    expected = fn(scores, [1, 0, 1, 0])
    assert fn(scores, [True, False, True, False]) == fn(scores, [1.0, 0.0, 1.0, 0.0]) == expected


def report_fixture() -> Dataset:
    rows = [
        ("t1", 0.95, 1, "late"),
        ("t2", 0.90, 1, "late"),
        ("t3", 0.85, 1, "early"),
        ("t4", 0.80, 0, "early"),
        ("t5", 0.70, 1, "early"),
        ("t6", 0.60, 0, None),
    ]
    ids, scores, labels, groups = map(list, zip(*rows))
    return Dataset(ids, scores, labels, groups=groups)


def decisions_at(data: Dataset, lam: float) -> Decisions:
    """Each record's decision at threshold lam, worked out one score at a time."""
    scores = data.scores.tolist()
    conf = [max(s, 1 - s) for s in scores]
    prediction = [(1 if s >= 0.5 else 0) if c >= lam else -1 for s, c in zip(scores, conf)]
    return Decisions(data.ids, prediction, conf)


def decision_columns(decisions: Decisions) -> list[list]:
    """The decisions' columns as lists, prediction -1 where a record is abstained on."""
    return [decisions.ids.tolist(), decisions.prediction.tolist(), decisions.confidence.tolist()]


class TestSelectiveReport:
    def test_no_abstention(self):
        report = selective_report(report_fixture())
        assert report.pr_auc == pytest.approx(0.95)
        assert report.f1 == pytest.approx(0.8)
        assert report.roc_auc == pytest.approx(0.875)
        assert report.accuracy == pytest.approx(4 / 6)
        assert report.retain_rate == 1.0
        assert (report.n_total, report.n_retained) == (6, 6)
        assert report.group_breakdown is None

    def test_with_decisions(self):
        data = report_fixture()
        report = selective_report(data, decisions_at(data, 0.85))
        # retained records t1..t3 are all label 1 and all correct
        assert report.accuracy == 1.0
        assert report.f1 == 1.0
        assert report.pr_auc == 1.0
        assert report.roc_auc is None
        assert report.retain_rate == 0.5
        assert report.n_retained == 3

    def test_nothing_retained(self):
        data = report_fixture()
        report = selective_report(data, decisions_at(data, 0.999))
        assert report.accuracy is None and report.f1 is None
        assert report.retain_rate == 0.0

    def test_decision_order_does_not_matter(self):
        data = report_fixture()
        decisions = decisions_at(data, 0.85)
        shuffled = Decisions(*(column[::-1] for column in decision_columns(decisions)))
        for by_group in (False, True):
            assert (selective_report(data, shuffled, by_group=by_group)
                    == selective_report(data, decisions, by_group=by_group))

    def test_id_mismatch(self):
        data = report_fixture()
        decisions = Decisions(*(column[:-1] for column in decision_columns(decisions_at(data, 0.85))))
        with pytest.raises(IdMismatchError):
            selective_report(data, decisions)

    def test_foreign_id(self):
        data = report_fixture()
        ids, prediction, confidence = decision_columns(decisions_at(data, 0.85))
        ids[0], prediction[0], confidence[0] = "other", 1, 0.95
        with pytest.raises(IdMismatchError):
            selective_report(data, Decisions(ids, prediction, confidence))

    # each edit takes the decisions' columns and gives the edited columns
    @pytest.mark.parametrize("edit, message", [
        (lambda columns: [column[:-1] for column in columns], "decision ids do not match the dataset ids"),
        (lambda columns: [column + [cell] for column, cell in zip(columns, ("extra", 1, 0.9))],
         "decision ids do not match the dataset ids"),
    ])
    def test_id_mismatch_messages(self, edit, message):
        data = report_fixture()
        decisions = Decisions(*edit(decision_columns(decisions_at(data, 0.85))))
        with pytest.raises(IdMismatchError) as err:
            selective_report(data, decisions)
        assert str(err.value) == message

    @pytest.mark.parametrize("edit", [lambda columns: [column[:-1] + column[:1] for column in columns],
                                      lambda columns: [column + column[:1] for column in columns]],
                             ids=["in-place-of-another", "extra"])
    def test_repeated_decision_id_is_rejected_by_decisions(self, edit):
        # Decisions rejects a repeated id itself, so no report sees one
        data = report_fixture()
        with pytest.raises(DuplicateIdError, match=r"^duplicate record id 't1' at row \d+$"):
            selective_report(data, Decisions(*edit(decision_columns(decisions_at(data, 0.85)))))

    def test_group_breakdown(self):
        data = report_fixture()
        report = selective_report(data, decisions_at(data, 0.85), by_group=True)
        assert set(report.group_breakdown) == {"early", "late"}
        early = report.group_breakdown["early"]
        # early group: t3 (retained, correct), t4, t5 (abstained)
        assert (early.n_total, early.n_retained) == (3, 1)
        assert early.accuracy == 1.0
        assert early.roc_auc is None  # single retained record
        late = report.group_breakdown["late"]
        assert (late.n_total, late.n_retained) == (2, 2)
        assert late.accuracy == 1.0

    def test_ungrouped_records_stay_out_of_breakdown(self):
        data = report_fixture()
        report = selective_report(data, None, by_group=True)
        assert sum(sub.n_total for sub in report.group_breakdown.values()) == 5


class TestReportToDoc:
    def test_layout(self):
        report = selective_report(report_fixture(), by_group=True)
        doc = report_to_doc(report, metadata={"replication": "fixture run"})
        assert list(doc)[:7] == [
            "pr_auc", "f1", "roc_auc", "accuracy", "retain_rate", "n_total", "n_retained",
        ]
        assert doc["replication"] == "fixture run"
        assert set(doc["groups"]) == {"early", "late"}

    @pytest.mark.parametrize("metadata, key", [
        ({"replication": "r", "accuracy": "x", "n_total": -1}, "'accuracy'"),
        ({"groups": "m"}, "'groups'"),
    ])
    def test_metadata_cannot_overwrite_the_report(self, metadata, key):
        # the first clashing key is named, whether the report has groups or not
        for by_group in (False, True):
            with pytest.raises(DomainError) as err:
                report_to_doc(selective_report(report_fixture(), by_group=by_group), metadata=metadata)
            assert str(err.value) == f"metadata key must not name a report field or 'groups', got {key}"

    def test_none_metrics_survive(self):
        data = report_fixture()
        doc = report_to_doc(selective_report(data, decisions_at(data, 0.999)))
        assert doc["accuracy"] is None


def paired_fixture():
    g = np.random.default_rng(3)
    labels = (g.random(40) < 0.5).astype(int)
    noise_a = g.normal(0, 0.18, 40)
    noise_b = g.normal(0, 0.45, 40)
    sa = np.clip(0.25 + 0.5 * labels + noise_a, 0.0, 1.0)
    sb = np.clip(0.25 + 0.5 * labels + noise_b, 0.0, 1.0)

    def build(scores):
        return Dataset([f"r{i}" for i in range(40)], scores, labels)

    return build(sa), build(sb)


class TestBootstrapSignificance:
    def test_frozen_roc(self):
        a, b = paired_fixture()
        result = bootstrap_significance(a, b, "roc_auc", resamples=2000, seed=7)
        assert result.delta == 0.1729323308270676
        assert result.p_value == 0.0
        assert result.resamples == 2000

    def test_frozen_accuracy(self):
        a, b = paired_fixture()
        result = bootstrap_significance(a, b, "accuracy", resamples=2000, seed=7)
        assert result.delta == 0.2250000000000001
        assert result.p_value == 0.005

    def test_frozen_redraw_path(self):
        # n=3 with one positive: many resamples are single-class and must be
        # redrawn from the same substream before the comparison counts
        y = [1, 0, 0]
        a = Dataset(["r0", "r1", "r2"], [0.9, 0.4, 0.6], y)
        b = Dataset(["r0", "r1", "r2"], [0.55, 0.5, 0.62], y)
        result = bootstrap_significance(a, b, "roc_auc", resamples=200, seed=5)
        assert result.p_value == 0.435

    def test_same_seed_reproduces(self):
        a, b = paired_fixture()
        p1 = bootstrap_significance(a, b, "accuracy", resamples=500, seed=1).p_value
        p1_again = bootstrap_significance(a, b, "accuracy", resamples=500, seed=1).p_value
        assert p1 == p1_again

    def test_self_comparison_p_is_one(self):
        a, _ = paired_fixture()
        result = bootstrap_significance(a, a, "roc_auc", resamples=200, seed=0)
        assert result.delta == 0.0 and result.p_value == 1.0

    def test_record_order_irrelevant_on_b(self):
        a, b = paired_fixture()
        reordered = Dataset(b.ids[::-1], b.scores[::-1], b.labels[::-1])
        r1 = bootstrap_significance(a, b, "f1", resamples=300, seed=4)
        r2 = bootstrap_significance(a, reordered, "f1", resamples=300, seed=4)
        assert r1 == r2

    def test_unpaired_ids(self):
        a, b = paired_fixture()
        extra = Dataset([*b.ids[:-1], "other"], [*b.scores[:-1], 0.5], [*b.labels[:-1], 1])
        with pytest.raises(UnpairedIdsError):
            bootstrap_significance(a, extra, "roc_auc")

    def test_unpaired_when_one_side_holds_more_ids(self):
        a, b = paired_fixture()
        fewer = Dataset(b.ids[1:], b.scores[1:], b.labels[1:])
        for left, right in ((a, fewer), (fewer, a)):
            with pytest.raises(UnpairedIdsError) as err:
                bootstrap_significance(left, right, "roc_auc")
            assert str(err.value) == "datasets must share one id set for a paired comparison"

    def test_label_disagreement(self):
        a, b = paired_fixture()
        labels = b.labels.copy()
        labels[0] = 1 - labels[0]
        flipped = Dataset(b.ids, b.scores, labels)
        with pytest.raises(UnpairedIdsError):
            bootstrap_significance(a, flipped, "roc_auc")

    def test_rejects_unknown_metric(self):
        a, b = paired_fixture()
        with pytest.raises(DomainError):
            bootstrap_significance(a, b, "auprc")

    def test_rejects_too_few_resamples(self):
        a, b = paired_fixture()
        with pytest.raises(DomainError):
            bootstrap_significance(a, b, "roc_auc", resamples=99)

    def test_frozen_pr_auc(self):
        a, b = paired_fixture()
        result = bootstrap_significance(a, b, "pr_auc", resamples=2000, seed=7)
        assert result.delta == 0.12779899276766127
        assert result.p_value == 0.0

    def test_frozen_f1(self):
        a, b = paired_fixture()
        result = bootstrap_significance(a, b, "f1", resamples=2000, seed=7)
        assert result.delta == 0.20295983086680758
        assert result.p_value == 0.003

    # (tied scores, metric) -> (delta, p_value) at resamples=500, seed=3
    CLOSE_FROZEN = {
        (False, "pr_auc"): (0.036573866525963616, 0.308),
        (False, "f1"): (0.06557377049180324, 0.132),
        (False, "roc_auc"): (0.034482758620689724, 0.272),
        (False, "accuracy"): (0.06666666666666665, 0.168),
        (True, "pr_auc"): (0.03992230047510115, 0.28),
        (True, "f1"): (0.017788461538461586, 0.366),
        (True, "roc_auc"): (0.03559510567296997, 0.252),
        (True, "accuracy"): (0.016666666666666607, 0.442),
    }

    @pytest.mark.parametrize("tied, metric", sorted(CLOSE_FROZEN))
    def test_frozen_close_pair(self, tied, metric):
        a, b = close_fixture(tied)
        result = bootstrap_significance(a, b, metric, resamples=500, seed=3)
        assert (result.delta, result.p_value) == self.CLOSE_FROZEN[tied, metric]
        assert 0.0 < result.p_value < 1.0

    @pytest.mark.parametrize("metric", sorted(reference_metrics.METRICS))
    @pytest.mark.parametrize("tied", [False, True])
    def test_equals_resampling_the_scores(self, metric, tied):
        # the count-based resamples give what scoring scores[idx] gives, bit for bit
        a, b = close_fixture(tied)
        for seed in (0, 1, 29):
            result = bootstrap_significance(a, b, metric, resamples=100, seed=seed)
            expected = reference_metrics.bootstrap_reference(
                a.scores, b.scores, a.labels, metric, resamples=100, seed=seed
            )
            assert (result.delta, result.p_value) == expected

    def test_redraws_match_resampling_the_scores(self):
        # one positive in eight: about a third of the draws are single-class
        labels = np.array([1, 0, 0, 0, 0, 0, 0, 0])
        sa = np.array([0.9, 0.4, 0.6, 0.4, 0.1, 0.8, 0.3, 0.5])
        sb = np.array([0.5, 0.5, 0.7, 0.2, 0.1, 0.6, 0.4, 0.5])
        ids = [f"r{i}" for i in range(8)]
        a, b = Dataset(ids, sa, labels), Dataset(ids, sb, labels)
        for metric in ("roc_auc", "pr_auc"):
            result = bootstrap_significance(a, b, metric, resamples=300, seed=13)
            expected = reference_metrics.bootstrap_reference(sa, sb, labels, metric, 300, 13)
            assert (result.delta, result.p_value) == expected

    @pytest.mark.parametrize("chunk", ["one draw", "seven draws", "default", "seven draws, three state blocks"])
    @pytest.mark.parametrize("metric", sorted(reference_metrics.METRICS))
    @pytest.mark.parametrize("fixture", ["tied", "one positive in eight"])
    def test_chunking_never_changes_the_result(self, monkeypatch, chunk, metric, fixture):
        # one record short of one draw holds one draw a chunk; seven draws do not divide the resamples;
        # with one positive in eight, redraws land mid-chunk. Three state blocks, the last one partial,
        # cut chunks of seven draws: the streams run on from block to block across a chunk
        if fixture == "tied":
            a, b = close_fixture(True)
        else:
            a, b = one_positive_in_eight()
        n, resamples = len(a), 200
        if chunk == "seven draws, three state blocks":
            resamples = 2 * selcert.rng._STATE_BLOCK + 37
            assert resamples % selcert.rng._STATE_BLOCK and resamples % 7
        budget = {"one draw": n - 1, "default": selcert.metrics._CHUNK_RECORDS}.get(chunk, 7 * n)
        monkeypatch.setattr(selcert.metrics, "_CHUNK_RECORDS", budget)
        result = bootstrap_significance(a, b, metric, resamples=resamples, seed=13)
        expected = reference_metrics.bootstrap_reference(a.scores, b.scores, a.labels, metric, resamples, 13)
        assert (result.delta, result.p_value) == expected

    def test_lowest_resample_out_of_redraws_raises(self, monkeypatch):
        # resamples 5 and 7, both in the second chunk of four draws, always draw record 0, a single
        # class; 5 is named
        class OneRecordStream:
            def integers(self, low, high, size):
                return np.zeros(size, dtype=np.int64)

        inject_streams(monkeypatch, lambda index, real: OneRecordStream() if index in (5, 7) else real)
        a, b = paired_fixture()
        monkeypatch.setattr(selcert.metrics, "_CHUNK_RECORDS", 4 * len(a))
        with pytest.raises(ResampleCapError, match="^resample 5 stayed undefined for roc_auc after 100"):
            bootstrap_significance(a, b, "roc_auc", resamples=100)

    @pytest.mark.parametrize("defined_on", [selcert.metrics.MAX_REDRAWS, selcert.metrics.MAX_REDRAWS + 1])
    def test_a_resample_has_max_redraws_attempts(self, monkeypatch, defined_on):
        # resample 0 draws record 0 alone until its draw number defined_on, which comes from its real stream
        class LateStream:
            def __init__(self, stream):
                self.stream, self.calls = stream, 0

            def integers(self, low, high, size):
                self.calls += 1
                if self.calls < defined_on:
                    return np.zeros(size, dtype=np.int64)
                return self.stream.integers(low, high, size=size)

        inject_streams(monkeypatch, lambda index, real: LateStream(real) if index == 0 else real)
        a, b = paired_fixture()
        if defined_on > selcert.metrics.MAX_REDRAWS:
            with pytest.raises(ResampleCapError, match="^resample 0 "):
                bootstrap_significance(a, b, "roc_auc", resamples=100)
        else:
            assert bootstrap_significance(a, b, "roc_auc", resamples=100).resamples == 100

    def test_all_positive_labels_fail_before_resampling(self):
        a = Dataset(["r0", "r1", "r2"], np.array([0.9, 0.4, 0.6]), np.ones(3, int))
        with pytest.raises(DegenerateLabelsError, match="got 3 positive / 0 negative"):
            bootstrap_significance(a, a, "roc_auc", resamples=100)

    def test_redraw_cap(self, monkeypatch):
        # a stream that always draws record 0 leaves roc_auc with one class on
        # every draw, so resample 0 runs out of redraws
        class OneRecordStream:
            def integers(self, low, high, size):
                return np.zeros(size, dtype=np.int64)

        inject_streams(monkeypatch, lambda index, real: OneRecordStream())
        a, b = paired_fixture()
        with pytest.raises(ResampleCapError, match="^resample 0 stayed undefined for roc_auc after 100"):
            bootstrap_significance(a, b, "roc_auc", resamples=100)

    def test_memory_does_not_grow_with_resamples(self, monkeypatch):
        # streams are derived a state block at a time: had the run's streams been derived at once,
        # 50,000 resamples would hold some 14 MB more than 500 do. With chunks of 64 draws, both runs
        # hold the same counts; only the state block differs (500 streams or _STATE_BLOCK, about
        # 0.3 MB more), which the margin covers
        a, b = one_positive_in_eight()
        monkeypatch.setattr(selcert.metrics, "_CHUNK_RECORDS", 64 * len(a))
        bootstrap_significance(a, b, "accuracy", resamples=500, seed=3)  # numpy's lazy set-up, once

        def peak(resamples: int) -> int:
            tracemalloc.start()
            try:
                bootstrap_significance(a, b, "accuracy", resamples=resamples, seed=3)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(50_000) <= peak(500) + 512 * 1024

    def test_no_redraw_makes_no_stream_of_its_own(self, monkeypatch):
        # first draws come from the block-derived streams; `substream` makes a stream for a redrawn row only
        made, substream = [], selcert.metrics.substream
        monkeypatch.setattr(selcert.metrics, "substream",
                            lambda seed, index: made.append(index) or substream(seed, index))
        a, b = paired_fixture()
        bootstrap_significance(a, b, "roc_auc", resamples=500, seed=1)
        assert made == []
        a, b = one_positive_in_eight()
        bootstrap_significance(a, b, "roc_auc", resamples=100, seed=13)
        assert made and made == sorted(set(made))  # once for each resample redrawn


def inject_streams(monkeypatch, stream_for):
    """Resample i draws from stream_for(i, real), real being its own stream, wherever the bootstrap asks for it.

    The bootstrap takes each resample's first draw from `rng._substreams`,
    and a redraw from `substream(seed, i)` made anew, which draws the first
    draw again before it redraws; each is handed to stream_for. A stream
    made anew restarts the resample's draws, so a stream that counts its
    calls counts the resample's draws either way.
    """
    substreams, substream = selcert.metrics._substreams, selcert.metrics.substream
    monkeypatch.setattr(selcert.metrics, "_substreams", lambda seed, start, stop: map(
        stream_for, range(start, stop), substreams(seed, start, stop)))
    monkeypatch.setattr(selcert.metrics, "substream", lambda seed, index: stream_for(index, substream(seed, index)))


def one_positive_in_eight():
    """Eight records, one positive: about a third of the draws are single-class."""
    ids, labels = [f"r{i}" for i in range(8)], np.array([1, 0, 0, 0, 0, 0, 0, 0])
    return (Dataset(ids, np.array([0.9, 0.4, 0.6, 0.4, 0.1, 0.8, 0.3, 0.5]), labels),
            Dataset(ids, np.array([0.5, 0.5, 0.7, 0.2, 0.1, 0.6, 0.4, 0.5]), labels))


def close_fixture(tied: bool):
    """Two scorers close enough that every metric's p-value lies inside (0, 1)."""
    g = np.random.default_rng(11)
    labels = (g.random(60) < 0.4).astype(int)
    sa = np.clip(0.3 + 0.4 * labels + g.normal(0, 0.25, 60), 0.0, 1.0)
    sb = np.clip(0.3 + 0.4 * labels + g.normal(0, 0.27, 60), 0.0, 1.0)
    if tied:
        sa, sb = np.round(sa * 10) / 10, np.round(sb * 10) / 10
    ids = [f"r{i}" for i in range(60)]
    return Dataset(ids, sa, labels), Dataset(ids, sb, labels)


def latent_pair(rng, n: int, extra_noise: float = 0.0) -> tuple[Dataset, Dataset]:
    """Two scorers of one latent Beta score (4,2 for positives, 2,4 for negatives; prevalence 0.3), each
    with its own N(0, 0.1) noise, b's widened by `extra_noise`, clipped to [0, 1]: a null pair at 0."""
    labels = (rng.random(n) < 0.3).astype(int)
    latent = np.where(labels == 1, rng.beta(4, 2, n), rng.beta(2, 4, n))
    a = np.clip(latent + rng.normal(0, 0.1, n), 0.0, 1.0)
    b = np.clip(latent + rng.normal(0, 0.1 + extra_noise, n), 0.0, 1.0)
    ids = [f"r{i}" for i in range(n)]
    return Dataset(ids, a, labels), Dataset(ids, b, labels)


class TestBootstrapAgainstDeLong:
    """The paired bootstrap's p-value checked by an independent method, not by its own loop.

    DeLong's paired test (`reference_metrics.delong_paired`) estimates the
    same one-sided p-value from the AUCs' structural components and a normal
    tail. A bootstrap that drew a and b apart, or counted the wrong tail,
    moves its p-value far from DeLong's; one that drew them apart is also
    far too conservative under the null.
    """

    @pytest.mark.parametrize("seed", range(8))
    def test_roc_auc_p_value_agrees_with_delong(self, seed):
        # 2000 resamples leave a Monte Carlo error of at most 0.011 (at p = 1/2); 0.04 is that three
        # times over plus a margin for DeLong's normal tail at n = 1000 (largest gap seen over 24 such pairs: 0.027)
        a, b = latent_pair(np.random.default_rng(seed), 1000, extra_noise=0.02)
        result = bootstrap_significance(a, b, "roc_auc", resamples=2000, seed=seed)
        delta, p_value = reference_metrics.delong_paired(a.scores, b.scores, a.labels)
        assert result.delta == pytest.approx(delta, abs=1e-12)
        assert result.p_value == pytest.approx(p_value, abs=0.04)

    @pytest.mark.parametrize("metric", ["roc_auc", "pr_auc"])
    def test_null_size(self, metric):
        # under the null a p-value from R resamples is at most 10 / R with probability 11 / (R + 1), not
        # 0.1: the count of hits out of R is uniform on 0..R when the true p-value is uniform; the rate of
        # 100 null replications must leave 11 / 101 inside its 99% Clopper-Pearson interval
        rng = np.random.default_rng(2024)
        p_values = [bootstrap_significance(*latent_pair(rng, 200), metric, resamples=100, seed=r).p_value
                    for r in range(100)]
        hits = sum(p <= 0.1 for p in p_values)
        (upper, lower_of_misses), _ = risk_upper_bounds([hits, 100 - hits], [100, 100], 0.005)
        assert 1.0 - lower_of_misses <= 11 / 101 <= upper
