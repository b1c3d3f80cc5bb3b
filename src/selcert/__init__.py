"""Certified abstention thresholds for binary classifiers.

Given held-out labeled scores, selcert finds the smallest confidence
threshold whose binomial upper-confidence bound on selective
misclassification risk stays within budget, then applies, evaluates, and
stress-tests the resulting predict-or-abstain rule.
"""

from types import ModuleType as _ModuleType

__version__ = "0.1.0"

from .binom import BinomialTail, RiskBound, binom_cdf, risk_upper_bound
from .calibrate import (
    CertificateGrid,
    Decision,
    Decisions,
    GridPoint,
    RiskConfig,
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
    selective_risk,
    write_decisions,
)
from .errors import (
    ConvergenceError,
    DatasetIOError,
    DegenerateLabelsError,
    DomainError,
    DuplicateIdError,
    EmptyCalibrationError,
    EmptyInputError,
    IdMismatchError,
    InfeasibleCertificateError,
    MissingDateError,
    ResampleCapError,
    SchemaError,
    SelcertError,
    UnpairedIdsError,
    UnsortedLambdasError,
)
from .metrics import (
    SelectiveReport,
    SignificanceResult,
    bootstrap_significance,
    f1_accuracy,
    pr_auc,
    report_to_doc,
    roc_auc,
    selective_report,
)
from .records import (
    Dataset,
    SyntheticScorerSpec,
    generate_synthetic,
    load_dataset,
    temporal_split,
    write_dataset,
)
from .rng import mix64, substream, substream_seed
from .sim import (
    GuaranteeTrials,
    TradeoffCurve,
    TradeoffPoint,
    summarize_trials,
    tradeoff_curve,
    trials_to_doc,
    validate_guarantee,
)

# every name imported above is public; the submodules themselves are not listed
__all__ = ["__version__", *(name for name, value in list(globals().items())
                            if not name.startswith("_") and not isinstance(value, _ModuleType))]
