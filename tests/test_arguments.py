"""Every public argument that is a number, a text, a bool or a path goes through a check in selcert.records.

A real number inside an interval, or an integer at or above a minimum: bools,
NaN, strings, out-of-range and huge values raise DomainError at every entry
point, and numpy scalars are accepted wherever a Python number is. A beta is
also rejected where 1.0 - beta rounds to 1.0 (`check_beta`). A seed, and each
argument of the `rng` functions, is any integer of either sign and any size.
What holds cells, a column, a row list or a pair, has its own matrix in
test_shapes.py, and a threshold has its own in test_calibrate.py.

A path is a str or an os.PathLike, checked before anything is opened: an int
or a bool, which `open` would take as a file descriptor, a bytes path, None
and every other value raise DomainError, and no descriptor is read, written
or closed. A text argument is a str (a choice among fixed words, such as a
format or a metric, only ever compared as one), and a flag is a bool,
Python's or numpy's. Two tests collect every argument annotated with a
number, or with a text, a bool or a path, so a new one cannot escape these
matrices.
"""

import contextlib
import inspect
import os
from pathlib import Path

import numpy as np
import pytest
from test_calibrate import THRESHOLD_ENTRY_POINTS
from test_shapes import annotated_parameters

import selcert
from selcert import (
    BinomialTail,
    Dataset,
    Decisions,
    DomainError,
    RiskConfig,
    SyntheticScorerSpec,
    ThresholdCertificate,
    binom_cdf,
    bootstrap_significance,
    certificate_from_json,
    certificate_to_json,
    confidence,
    generate_synthetic,
    load_certificate,
    load_dataset,
    mix64,
    predicted_label,
    read_decisions,
    risk_upper_bound,
    selective_report,
    selective_risk,
    substream,
    substream_seed,
    validate_guarantee,
    write_dataset,
    write_decisions,
)
from selcert.binom import risk_upper_bounds, tail_at_most
from selcert.calibrate import CertificateGrid, _check_status
from selcert.records import csv_columns, read_text, write_text

SPEC = SyntheticScorerSpec(n=30, prevalence=0.5, pos_shape=(3, 2), neg_shape=(2, 3), seed=3)
CONFIG = RiskConfig(alpha=0.3, beta=0.2, min_count=5)
# records retained at lam = 0.5, so selective_risk solves a bound
RETAINED = Dataset(["a", "b"], [0.9, 0.8], [1, 0])
# the smallest legal beta: 1.0 - beta rounds to 1.0 at 2**-54 and below
SMALLEST_BETA = np.nextafter(2.0**-54, 1.0)


def _bootstrap(resamples, seed=1):
    a = generate_synthetic(SPEC)
    b = Dataset(a.ids, a.scores[::-1], a.labels)
    return bootstrap_significance(a, b, "roc_auc", resamples=resamples, seed=seed)


# entry point -> (call taking the value under test, kind of value)
ENTRY_POINTS = {
    "RiskConfig.alpha": (lambda v: RiskConfig(alpha=v, beta=0.1), "open unit"),
    "RiskConfig.beta": (lambda v: RiskConfig(alpha=0.1, beta=v), "beta"),
    "RiskConfig.min_count": (lambda v: RiskConfig(alpha=0.1, beta=0.1, min_count=v), "count"),
    "BinomialTail.k": (lambda v: BinomialTail(v, 10), "bounded count"),
    "BinomialTail.n": (lambda v: BinomialTail(0, v), "count"),
    "binom_cdf.k": (lambda v: binom_cdf(v, 10, 0.5), "bounded count"),
    "binom_cdf.n": (lambda v: binom_cdf(0, v, 0.5), "count"),
    "binom_cdf.p": (lambda v: binom_cdf(1, 10, v), "closed unit"),
    "tail_at_most.p": (lambda v: tail_at_most([1], [10], v, 0.1), "open unit"),
    "tail_at_most.beta": (lambda v: tail_at_most([1], [10], 0.2, v), "beta"),
    "risk_upper_bound.beta": (lambda v: risk_upper_bound(BinomialTail(1, 10), v), "beta"),
    "risk_upper_bounds.beta": (lambda v: risk_upper_bounds([1], [10], v), "beta"),
    "selective_risk.beta": (lambda v: selective_risk(RETAINED, 0.5, v), "beta"),
    "confidence": (confidence, "closed unit"),
    "predicted_label": (predicted_label, "closed unit"),
    "SyntheticScorerSpec.n": (lambda v: SyntheticScorerSpec(v, 0.5, (2, 2), (2, 2), 0), "count"),
    "SyntheticScorerSpec.prevalence": (lambda v: SyntheticScorerSpec(5, v, (2, 2), (2, 2), 0),
                                       "open unit"),
    "validate_guarantee.trials": (lambda v: validate_guarantee(SPEC, CONFIG, v, 20, 20, 0), "count"),
    "validate_guarantee.n_calib": (lambda v: validate_guarantee(SPEC, CONFIG, 1, v, 20, 0), "count"),
    "validate_guarantee.n_test": (lambda v: validate_guarantee(SPEC, CONFIG, 1, 20, v, 0), "count"),
    "validate_guarantee.max_workers": (lambda v: validate_guarantee(SPEC, CONFIG, 1, 20, 20, 0, v), "count"),
    "ThresholdCertificate.calib_size": (
        lambda v: ThresholdCertificate(None, CertificateGrid([], [], [], [], []), CONFIG, v), "count"),
    "bootstrap_significance.resamples": (_bootstrap, "resamples"),
    "SyntheticScorerSpec.seed": (lambda v: SyntheticScorerSpec(5, 0.5, (2, 2), (2, 2), v), "seed"),
    "validate_guarantee.seed": (lambda v: validate_guarantee(SPEC, CONFIG, 1, 20, 20, v), "seed"),
    "bootstrap_significance.seed": (lambda v: _bootstrap(100, seed=v), "seed"),
    "mix64.x": (mix64, "seed"),
    "substream_seed.seed": (lambda v: substream_seed(v, 0), "seed"),
    "substream_seed.index": (lambda v: substream_seed(0, v), "seed"),
    "substream.seed": (lambda v: substream(v, 0), "seed"),
    "substream.index": (lambda v: substream(0, v), "seed"),
}

HUGE = 10**400
COMMON = [True, False, float("nan"), np.float64("nan"), "0.5", None, -HUGE]
OPEN_UNIT = COMMON + [HUGE, 0, 1, 0.0, 1.0, -0.1, 1.5, float("inf")]
BAD = {
    "open unit": OPEN_UNIT,
    "closed unit": COMMON + [HUGE, -0.1, 1.5, float("-inf"), float("inf")],
    # and betas at which 1.0 - beta rounds to 1.0
    "beta": OPEN_UNIT + [1e-17, 5e-324, 2.0**-54],
    # +HUGE is a legal count wherever there is no maximum
    "count": COMMON + [0, -1, 1.0, 2.5, np.float64(3.0)],
    "bounded count": COMMON + [HUGE, -1, 11, 1.0],
    "resamples": COMMON + [0, 99, 100.0],
    # a seed is any integer, of either sign and any size
    "seed": [True, False, float("nan"), "1", None, 1.5, 1.0, np.float64(3.0)],
}
# numpy scalars of legal values, which every entry point accepts
GOOD = {
    "open unit": [np.float64(0.25), np.float32(0.25)],
    "closed unit": [np.float64(0.25), np.float32(0.25), np.float64(0.0), np.float32(1.0)],
    "beta": [np.float64(0.25), np.float32(0.25), SMALLEST_BETA],
    "count": [np.int64(5), np.int32(5)],
    "bounded count": [np.int64(3), np.int64(0), np.int64(10)],
    "resamples": [np.int64(100)],
    "seed": [np.int64(5), np.int32(-5), -HUGE, HUGE],
}


def _rows(values_by_kind):
    return [pytest.param(entry, value, id=f"{entry}-{value!r:.20}")
            for entry, (_, kind) in ENTRY_POINTS.items() for value in values_by_kind[kind]]


@pytest.mark.parametrize("entry,value", _rows(BAD))
def test_rejects_bad_value(entry, value):
    call, _ = ENTRY_POINTS[entry]
    with pytest.raises(DomainError, match=r"must be (a number|an integer|within)"):
        call(value)


@pytest.mark.parametrize("entry,value", _rows(GOOD))
def test_accepts_numpy_scalar(entry, value):
    call, _ = ENTRY_POINTS[entry]
    call(value)


def test_huge_integer_is_named_by_its_bit_length():
    with pytest.raises(DomainError, match=r"^p must be within \[0, 1\], got an integer of 1329 bits$"):
        binom_cdf(1, 10, HUGE)
    with pytest.raises(DomainError, match=r"^min_count must be an integer >= 1, got a negative integer"):
        RiskConfig(alpha=0.1, beta=0.1, min_count=-HUGE)


@pytest.mark.parametrize("call", [lambda: binom_cdf(0, HUGE, 0.5),
                                  lambda: risk_upper_bound(BinomialTail(0, HUGE), 0.1)])
def test_count_past_64_bits_cannot_be_summed(call):
    # a legal BinomialTail, but its CDF sum works on 64-bit counts
    with pytest.raises(DomainError, match="64-bit integers"):
        call()


# values the package makes rather than reads from a caller: the records and row views it returns,
# an error's fields, a number it spells for output, and the names and bounds its own checks are given
MADE = {"Decision", "GridPoint", "RiskBound", "SelectiveReport", "SignificanceResult", "TradeoffPoint",
        "SchemaError", "format_number.x", "check_int", "check_real"}


def test_every_number_argument_is_on_the_rule():
    # an argument annotated int or float, added later, fails here until it joins ENTRY_POINTS
    # (or the threshold matrix); a function with one argument is listed by its name alone
    listed = {entry if "." in entry else f"{entry}.{next(iter(inspect.signature(getattr(selcert, entry)).parameters))}"
              for entry in ENTRY_POINTS}
    listed |= {f"{entry.split('.')[0]}.{where}" for entry, (_, where, _) in THRESHOLD_ENTRY_POINTS.items()}
    numbers = {f"{name}.{argument}" for name, argument in annotated_parameters(lambda kind: kind in (int, float))
               if name not in MADE and f"{name}.{argument}" not in MADE}
    assert numbers - listed == set()


# a dataset, its decisions and an infeasible certificate, each written to a file by `inputs`
DATA = generate_synthetic(SPEC)
DECISIONS = Decisions(DATA.ids, [-1] * len(DATA), [0.5] * len(DATA))
GRID = CertificateGrid([], [], [], [], [])
CERTIFICATE = ThresholdCertificate(None, GRID, CONFIG, 5)


@pytest.fixture
def inputs(tmp_path, monkeypatch):
    """The input files, in tmp_path/in; the working directory is tmp_path/out, empty, so a stray write shows."""
    (tmp_path / "in").mkdir()
    (tmp_path / "out").mkdir()
    files = {"dataset": tmp_path / "in" / "data.csv", "certificate": tmp_path / "in" / "cert.json",
             "decisions": tmp_path / "in" / "decisions.csv"}
    write_dataset(DATA, files["dataset"])
    write_text(files["certificate"], certificate_to_json(CERTIFICATE))
    write_decisions(DECISIONS, files["decisions"])
    monkeypatch.chdir(tmp_path / "out")
    return files


# entry point -> (call taking the value under test and the input files, kind of value)
OTHER_ENTRY_POINTS = {
    "read_text.path": (lambda v, files: read_text(v), "path"),
    "write_text.path": (lambda v, files: write_text(v, "text"), "path"),
    "load_dataset.path": (lambda v, files: load_dataset(v, fmt="csv"), "path"),
    "write_dataset.path": (lambda v, files: write_dataset(DATA, v, fmt="csv"), "path"),
    "load_certificate.path": (lambda v, files: load_certificate(v), "path"),
    "read_decisions.path": (lambda v, files: read_decisions(v), "path"),
    "write_decisions.path": (lambda v, files: write_decisions(DECISIONS, v), "path"),
    "write_text.text": (lambda v, files: write_text("out.txt", v), "text"),
    "csv_columns.text": (lambda v, files: csv_columns(v), "text"),
    "certificate_from_json.text": (lambda v, files: certificate_from_json(v), "text"),
    # the file has no date column: the format is checked on entry, not where a date is parsed
    "load_dataset.date_format": (lambda v, files: load_dataset(files["dataset"], date_format=v), "optional text"),
    "load_dataset.fmt": (lambda v, files: load_dataset(files["dataset"], fmt=v), "format"),
    "write_dataset.fmt": (lambda v, files: write_dataset(DATA, "out.csv", fmt=v), "format"),
    "bootstrap_significance.metric": (lambda v, files: bootstrap_significance(DATA, DATA, v, resamples=100),
                                      "metric"),
    # a certificate holds no status of its own; its file's status word is checked by the loader's rule
    "ThresholdCertificate.status": (lambda v, files: _check_status(v, None), "status"),
    "selective_report.by_group": (lambda v, files: selective_report(DATA, by_group=v), "bool"),
}
FILE_WORDS = {"ThresholdCertificate.status"}  # a word a file holds, which no argument takes


class _PathLike:
    def __init__(self, path):
        self.path = path

    def __fspath__(self):
        return self.path

    def __repr__(self):
        return f"_PathLike({self.path!r})"


def _not_text(word: str) -> list:
    """Values that are no str, most of them holding `word`: an integer path is left to the descriptor test."""
    return [2.5, np.float64(1.0), True, False, word.encode(), bytearray(word.encode()), [word],
            np.array(word), np.array([word, word])]


OTHER_BAD = {
    "path": [None, _PathLike(b"x.csv"), *_not_text("x.csv")],
    "text": [None, 5, np.int64(5), *_not_text("x")],
    "optional text": [5, *_not_text("%Y-%m-%d")],
    "format": [5, *_not_text("csv")],
    "metric": [None, 5, *_not_text("f1")],
    "status": [None, 5, *_not_text("infeasible")],
    "bool": [None, 0, 1, np.int64(1), 2.5, np.float64(1.0), "", "no", b"", [True], np.array(True),
             np.array([True, False])],
}


@pytest.fixture
def streams_kept():
    """Standard input and output as they were, whatever the test did to descriptors 0 and 1 (False and True)."""
    saved = [os.dup(0), os.dup(1)]
    yield
    for descriptor, copy in enumerate(saved):
        os.dup2(copy, descriptor)
        os.close(copy)


@pytest.mark.parametrize("entry,value", [
    pytest.param(entry, value, id=f"{entry}-{value!r:.20}")
    for entry, (_, kind) in OTHER_ENTRY_POINTS.items() for value in OTHER_BAD[kind]])
def test_rejects_bad_text_bool_or_path(entry, value, inputs, streams_kept):
    call, _ = OTHER_ENTRY_POINTS[entry]
    with pytest.raises(DomainError, match=rf"^{entry.split('.')[1]} must be "):
        call(value, inputs)
    assert list(Path().iterdir()) == []  # nothing was written


@pytest.mark.parametrize("kind", [int, np.int64])
@pytest.mark.parametrize("entry", [entry for entry, (_, kind) in OTHER_ENTRY_POINTS.items() if kind == "path"])
def test_a_file_descriptor_is_no_path(entry, kind, inputs):
    call, _ = OTHER_ENTRY_POINTS[entry]
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, b"unread")
        # the write end first: a reader given the read end while the write end is open would wait for more
        for descriptor in (write_end, read_end):
            with pytest.raises(DomainError, match=r"^path must be a str or an os\.PathLike, got "):
                call(kind(descriptor), inputs)
        os.write(write_end, b"!")  # both ends are open, and the call read and wrote nothing
        assert os.read(read_end, 64) == b"unread!"
    finally:
        for descriptor in (read_end, write_end):
            with contextlib.suppress(OSError):
                os.close(descriptor)


def test_any_path_like_is_a_path(tmp_path):
    write_dataset(DATA, _PathLike(str(tmp_path / "data.csv")))
    assert load_dataset(_PathLike(str(tmp_path / "data.csv"))) == load_dataset(tmp_path / "data.csv") == DATA


def test_a_numpy_bool_is_a_bool():
    for flag in (False, True):
        assert selective_report(DATA, by_group=np.bool_(flag)) == selective_report(DATA, by_group=flag)


def test_every_text_bool_and_path_argument_is_on_the_rule():
    # an argument annotated str, bool or a path, added later, fails here until it joins OTHER_ENTRY_POINTS
    found = annotated_parameters(lambda kind: kind in (str, bool) or issubclass(kind, os.PathLike))
    assert {f"{name}.{argument}" for name, argument in found
            if name not in MADE and f"{name}.{argument}" not in MADE} | FILE_WORDS == set(OTHER_ENTRY_POINTS)
