"""Round-trip properties of dataset and decision files (needs hypothesis)."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from selcert import (  # noqa: E402
    Dataset,
    Decision,
    PredictionRecord,
    RiskConfig,
    certificate_from_json,
    certificate_to_json,
    certify_threshold,
    load_dataset,
    read_decisions,
    write_dataset,
    write_decisions,
)
from selcert.jsonio import format_number  # noqa: E402

# ids mix CSV-special characters with ordinary text; surrogates cannot be
# written as UTF-8 and so are left out
TEXT = st.text(
    alphabet=st.one_of(st.sampled_from(',"\r\n \t\ufeff'), st.characters(blacklist_categories=("Cs",))),
    min_size=1,
    max_size=12,
)
SETTINGS = settings(max_examples=100, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


@st.composite
def datasets(draw):
    ids = draw(st.lists(TEXT, max_size=20, unique=True))
    grouped = draw(st.booleans())
    records = tuple(
        PredictionRecord(
            rec_id,
            draw(st.floats(min_value=0.0, max_value=1.0)),
            draw(st.integers(0, 1)),
            group=draw(st.one_of(st.none(), TEXT)) if grouped else None,
        )
        for rec_id in ids
    )
    return Dataset(records=records)


@st.composite
def decision_lists(draw):
    ids = draw(st.lists(TEXT, max_size=20, unique=True))
    return [
        Decision(
            id=rec_id,
            prediction=draw(st.sampled_from([None, 0, 1])),
            confidence=draw(st.floats(min_value=0.5, max_value=1.0)),
        )
        for rec_id in ids
    ]


@pytest.mark.parametrize("suffix", ["csv", "json"])
@SETTINGS
@given(data=datasets())
def test_dataset_round_trip(tmp_path, suffix, data):
    path = tmp_path / f"d.{suffix}"
    write_dataset(data, path)
    assert load_dataset(path).records == data.records


@SETTINGS
@given(decisions=decision_lists())
def test_decisions_round_trip(tmp_path, decisions):
    path = tmp_path / "dec.csv"
    write_decisions(decisions, path)
    back = read_decisions(path)
    assert [(d.id, d.prediction) for d in back] == [(d.id, d.prediction) for d in decisions]
    # confidences are written at 12 significant digits
    assert [d.confidence for d in back] == [float(format_number(d.confidence)) for d in decisions]


@SETTINGS
@given(data=datasets(), alpha=st.floats(0.05, 0.95), beta=st.floats(0.05, 0.5))
def test_certificate_round_trip(data, alpha, beta):
    if len(data) == 0:
        return
    cert = certify_threshold(data, RiskConfig(alpha=alpha, beta=beta))
    back = certificate_from_json(certificate_to_json(cert))
    assert back.status == cert.status and back.lambda_hat == cert.lambda_hat
    assert [(p.lam, p.n_at, p.errors_at) for p in back.grid] == [
        (p.lam, p.n_at, p.errors_at) for p in cert.grid
    ]
