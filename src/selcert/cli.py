"""Command-line interface: calibrate, apply, evaluate, tradeoff, simulate.

Every run is reproducible from its arguments alone: all randomness flows from
--seed, outputs never contain wall-clock data, and each output carries a
manifest. One rule, `_manifest`, makes it for every subcommand: the command
and tool version, each input file's path and sha256, then every other
argument in the order the subcommand's parser declares it, less the outputs
(--out, --out-prefix) and evaluate's --replication, which the report
records in its metadata. The certificate and the report embed it; apply's
decisions CSV gets a sidecar, <out>.manifest.json; and the CSVs of tradeoff
and simulate are covered by the <prefix>.json written beside them. Exit
codes: 0 success, 1 usage or schema error, 2 infeasible certificate.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .calibrate import (
    _OUTCOME_TEXT,
    Decisions,
    RiskConfig,
    ThresholdCertificate,
    apply_certificate,
    certificate_to_json,
    certify_threshold,
    load_certificate,
    read_decisions,
    retain_rate,
    write_decisions,
)
from .errors import EmptyCalibrationError, InfeasibleCertificateError, SchemaError, SelcertError, _shown
from .jsonio import csv_text, dumps, format_number
from .metrics import _decision_index, report_to_doc, selective_report
from .records import Dataset, SyntheticScorerSpec, _lax_number, check_real, load_dataset, write_text
from .rng import substream
from .sim import curve_to_doc, summarize_trials, tradeoff_curve, trials_to_doc, validate_guarantee

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; the exit-code contract wants 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


# the arguments a manifest leaves out: the subcommand, which it records as "command", its function, the
# outputs, and evaluate's free-form --replication, which the report keeps in its metadata
_UNRECORDED = ("command", "func", "out", "out_prefix", "replication")


def _manifest(args: argparse.Namespace, *inputs: str) -> dict:
    """What a run records: each named input file's path and sha256, then every other argument.

    The arguments are `args`'s, in the order the subcommand's parser declares
    them (argparse sets each declared default in that order, then `func`),
    so an option a subparser gains is recorded without naming it here. An
    input given as None is not recorded.
    """
    recorded = {name: {"path": str(path), "sha256": hashlib.sha256(Path(path).read_bytes()).hexdigest()}
                for name in inputs if (path := getattr(args, name)) is not None}
    return {
        "command": args.command,
        "tool": "selcert",
        "version": __version__,
        "inputs": recorded,
        "params": {name: value for name, value in vars(args).items()
                   if name not in inputs and name not in _UNRECORDED},
    }


def _number(kind: type):
    """The reader of every numeric argument: `kind` (float or int) read as a dataset's number cell is, so
    the underscores, whitespace and non-ASCII digits `kind` reads past are a ValueError too."""
    def read(text: str):
        if _lax_number(text):
            raise ValueError(text)
        return kind(text)
    read.__name__ = kind.__name__  # argparse's "invalid float value: '...'" names it
    return read


_real, _integer = _number(float), _number(int)


def _shape_pair(text: str) -> tuple[float, float]:
    try:
        first, second = map(_real, text.split(","))  # a count other than two is a ValueError too
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected two comma-separated numbers, got {_shown(text)}") from None
    return first, second


def _lambda_grid(text: str) -> list[float]:
    try:
        return list(map(_real, text.split(",")))  # an empty part is a ValueError too
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad lambda grid {_shown(text)}") from None


# ---------------------------------------------------------------------------
# subcommands

def _carve_calibration(train: Dataset, fraction: float, seed: int) -> Dataset:
    """Draw a seeded calibration subset of `fraction` of the training records."""
    check_real("calib fraction", fraction, 0, 1)
    n_pick = int(round(fraction * len(train)))
    if n_pick < 1:
        raise EmptyCalibrationError(f"fraction {fraction} of {len(train)} records selects nothing")
    rng = substream(seed, 0)
    picked = rng.choice(len(train), size=n_pick, replace=False)
    picked.sort()
    return train.take(picked)


def cmd_calibrate(args) -> int:
    config = RiskConfig(alpha=args.alpha, beta=args.beta, min_count=args.min_count)
    if args.calib is not None:
        data = load_dataset(args.calib, date_format=args.date_format)
        args.calib_fraction = args.seed = None  # not read, so recorded as None
    else:
        train = load_dataset(args.train, date_format=args.date_format)
        data = _carve_calibration(train, args.calib_fraction, args.seed)
    cert = certify_threshold(data, config)
    write_text(args.out, certificate_to_json(cert, manifest=_manifest(args, "calib", "train")))
    if cert.feasible:
        print(f"feasible: lambda_hat={format_number(cert.lambda_hat)} from {cert.calib_size} calibration records")
        return EXIT_OK
    print(
        f"infeasible: no threshold meets alpha={format_number(config.alpha)}"
        f" at beta={format_number(config.beta)} (certificate written)"
    )
    return EXIT_INFEASIBLE


def cmd_apply(args) -> int:
    data = load_dataset(args.test, date_format=args.date_format)
    cert = load_certificate(args.cert)
    decisions = apply_certificate(data, cert)
    manifest = _manifest(args, "test", "cert")
    write_decisions(decisions, args.out)
    write_text(str(args.out) + ".manifest.json", dumps(manifest))
    kept = int(decisions.retained.sum())
    print(f"retained {kept}/{len(decisions)} (rate {format_number(retain_rate(decisions))})")
    return EXIT_OK


def _check_follows(data: Dataset, decisions: Decisions, cert: ThresholdCertificate) -> None:
    """Each decision's outcome is the one `apply_certificate` gives its id, else a SchemaError at the first
    decisions row that differs. An infeasible certificate fails as `apply` fails. Confidences are not
    compared: a decisions file holds them at 12 digits."""
    derived = np.empty_like(decisions.prediction)
    derived[_decision_index(decisions, data)] = apply_certificate(data, cert).prediction  # in decisions order
    differs = np.flatnonzero(decisions.prediction != derived)
    if differs.size:
        row = int(differs[0])
        want, got = _OUTCOME_TEXT[[derived[row] + 1, decisions.prediction[row] + 1]]
        raise SchemaError(f"outcome must follow from the certificate: {_shown(want)} for id "
                          f"{_shown(decisions.ids[row])}, got {_shown(got)}", row=row + 1, column="outcome")


def cmd_evaluate(args) -> int:
    data = load_dataset(args.test, date_format=args.date_format)
    decisions = None if args.no_abstention else read_decisions(args.decisions)
    report = selective_report(data, decisions, by_group=args.group)
    metadata: dict = {}
    if args.cert is not None:
        cert = load_certificate(args.cert)
        if decisions is not None:  # with --no-abstention the certificate is provenance only
            _check_follows(data, decisions, cert)
        metadata["certificate"] = {
            "status": cert.status,
            "lambda_hat": cert.lambda_hat,
            "alpha": cert.config.alpha,
            "beta": cert.config.beta,
        }
    if args.replication is not None:
        metadata["replication"] = args.replication
    doc = report_to_doc(report, metadata=metadata or None)
    doc["manifest"] = _manifest(args, "test", "decisions", "cert")
    write_text(args.out, dumps(doc))
    acc = "n/a" if report.accuracy is None else format_number(report.accuracy)
    print(
        f"evaluated {report.n_retained}/{report.n_total} retained"
        f" (rate {format_number(report.retain_rate)}), accuracy {acc}"
    )
    return EXIT_OK


def cmd_tradeoff(args) -> int:
    data = load_dataset(args.test, date_format=args.date_format)
    curve = tradeoff_curve(data, args.grid)
    manifest = _manifest(args, "test")
    table = curve_to_doc(curve)
    write_text(args.out_prefix + ".csv", csv_text(table))
    write_text(args.out_prefix + ".json", dumps({"points": table, "manifest": manifest}))
    print(f"tradeoff curve with {len(curve.lam)} grid points -> {args.out_prefix}.csv/.json")
    return EXIT_OK


def cmd_simulate(args) -> int:
    spec = SyntheticScorerSpec(
        n=1,  # not read: the simulation draws n_calib and n_test records
        prevalence=args.prevalence,
        pos_shape=args.pos_shape,
        neg_shape=args.neg_shape,
        seed=0,
    )
    config = RiskConfig(alpha=args.alpha, beta=args.beta, min_count=args.min_count)
    trials = validate_guarantee(
        spec,
        config,
        trials=args.trials,
        n_calib=args.n_calib,
        n_test=args.n_test,
        seed=args.seed,
    )
    summary = summarize_trials(trials)
    manifest = _manifest(args)
    table = trials_to_doc(trials)
    write_text(args.out_prefix + ".csv", csv_text(table))
    write_text(args.out_prefix + ".json", dumps({"trials": table, "summary": summary, "manifest": manifest}))
    rate = summary["violation_rate"]
    print(
        f"feasible {summary['n_feasible']}/{summary['n_trials']},"
        f" violations {summary['n_violated']}"
        f" (rate {'n/a' if rate is None else format_number(rate)})"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="selcert", description="Certified abstention thresholds for binary classifiers.")
    parser.add_argument("--version", action="version", version=f"selcert {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    cal = sub.add_parser("calibrate", help="certify an abstention threshold from labeled scores")
    src = cal.add_mutually_exclusive_group(required=True)
    src.add_argument("--calib", help="calibration dataset (CSV or JSON)")
    src.add_argument("--train", help="training dataset to carve a calibration subset from")
    cal.add_argument("--alpha", type=_real, required=True, help="selective risk budget")
    cal.add_argument("--beta", type=_real, required=True, help="bound failure rate")
    cal.add_argument("--min-count", type=_integer, default=1, help="evidence floor: grid points retaining fewer records are not required to pass")
    cal.add_argument("--calib-fraction", type=_real, default=0.2, help="fraction carved from --train (default 0.2)")
    cal.add_argument("--seed", type=_integer, default=0, help="seed for the carve draw")
    cal.add_argument("--date-format", default=None, help="strptime format for the date column (default ISO)")
    cal.add_argument("--out", required=True, help="certificate JSON path")
    cal.set_defaults(func=cmd_calibrate)

    app = sub.add_parser("apply", help="apply a certificate: predict or abstain per record")
    app.add_argument("--test", required=True, help="dataset to decide on")
    app.add_argument("--cert", required=True, help="certificate JSON from calibrate")
    app.add_argument("--date-format", default=None)
    app.add_argument("--out", required=True, help="decisions CSV path (manifest written alongside)")
    app.set_defaults(func=cmd_apply)

    ev = sub.add_parser("evaluate", help="selective metrics report for a dataset")
    ev.add_argument("--test", required=True, help="labeled dataset to score")
    how = ev.add_mutually_exclusive_group(required=True)
    how.add_argument("--decisions", help="decisions CSV from apply")
    how.add_argument("--no-abstention", action="store_true", help="evaluate with every record retained")
    ev.add_argument("--group", action="store_true", help="add a per-group metric breakdown")
    ev.add_argument("--cert", default=None,
                    help="certificate to record in the report metadata; --decisions must follow from it")
    ev.add_argument("--replication", default=None, help="free-form descriptor recorded in the report")
    ev.add_argument("--date-format", default=None)
    ev.add_argument("--out", required=True, help="report JSON path")
    ev.set_defaults(func=cmd_evaluate)

    tr = sub.add_parser("tradeoff", help="coverage/accuracy curve over a threshold grid")
    tr.add_argument("--test", required=True, help="labeled dataset")
    tr.add_argument("--grid", type=_lambda_grid, default=None, help="comma-separated thresholds (default: observed confidences)")
    tr.add_argument("--date-format", default=None)
    tr.add_argument("--out-prefix", required=True, help="writes <prefix>.csv and <prefix>.json")
    tr.set_defaults(func=cmd_tradeoff)

    si = sub.add_parser("simulate", help="Monte Carlo check of the selective accuracy guarantee")
    si.add_argument("--alpha", type=_real, required=True)
    si.add_argument("--beta", type=_real, required=True)
    si.add_argument("--min-count", type=_integer, default=1)
    si.add_argument("--trials", type=_integer, required=True)
    si.add_argument("--n-calib", type=_integer, required=True)
    si.add_argument("--n-test", type=_integer, required=True)
    si.add_argument("--prevalence", type=_real, default=0.5)
    si.add_argument("--pos-shape", type=_shape_pair, default=(8.0, 2.0), help="beta shapes a,b for positive scores")
    si.add_argument("--neg-shape", type=_shape_pair, default=(2.0, 8.0), help="beta shapes a,b for negative scores")
    si.add_argument("--seed", type=_integer, required=True)
    si.add_argument("--out-prefix", required=True, help="writes <prefix>.csv and <prefix>.json")
    si.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        # raised by --help/--version (code 0) or _Parser.error (code 1)
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except (SelcertError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE if isinstance(exc, InfeasibleCertificateError) else EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
