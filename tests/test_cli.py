"""End-to-end CLI behavior, run in-process through selcert.cli.main.

TestModuleEntry starts `python -m selcert` in a subprocess, and
TestBenchmarkChild starts the benchmark's child processes.
"""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import selcert
from selcert import (
    Dataset,
    RiskConfig,
    SyntheticScorerSpec,
    apply_certificate,
    bootstrap_significance,
    certify_threshold,
    generate_synthetic,
    load_certificate,
    load_dataset,
    read_decisions,
    tradeoff_curve,
    write_dataset,
)
from selcert.cli import build_parser, main
from selcert.records import _plain_lines

CALIB6 = """id,score,label
t1,0.95,1
t2,0.9,1
t3,0.85,1
t4,0.8,0
t5,0.7,1
t6,0.6,0
"""

TEST4 = """id,score,label
u1,0.287,0
u2,0.9,1
u3,0.75,1
u4,0.2,0
"""

GROUPED = """id,score,label,group
g1,0.9,1,north
g2,0.8,0,north
g3,0.3,0,south
g4,0.6,1,south
"""

TINY_BETA_ERROR = "error: beta must be within (0, 1) with 1 - beta below 1 as a float, got 1e-17\n"


@pytest.fixture
def calib_csv(tmp_path):
    path = tmp_path / "calib.csv"
    path.write_text(CALIB6)
    return str(path)


@pytest.fixture
def test_csv(tmp_path):
    path = tmp_path / "test.csv"
    path.write_text(TEST4)
    return str(path)


@pytest.fixture
def cert75(tmp_path):
    # ten correct records at confidence 0.75 certify lambda_hat = 0.75
    data = tmp_path / "calib75.csv"
    data.write_text("id,score,label\n" + "".join(f"c{i},0.75,1\n" for i in range(10)))
    out = tmp_path / "cert75.json"
    code = main(["calibrate", "--calib", str(data), "--alpha", "0.5", "--beta", "0.2",
                 "--out", str(out)])
    assert code == 0
    return str(out)


class TestCalibrate:
    def test_feasible_run(self, calib_csv, tmp_path, capsys):
        out = tmp_path / "cert.json"
        code = main(["calibrate", "--calib", calib_csv, "--alpha", "0.85", "--beta", "0.2",
                     "--out", str(out)])
        assert code == 0
        assert "feasible: lambda_hat=0.6 from 6 calibration records" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert doc["status"] == "feasible"
        assert doc["lambda_hat"] == pytest.approx(0.6)
        assert doc["alpha"] == 0.85
        assert len(doc["grid"]) == 6

    def test_manifest_records_input_digest(self, calib_csv, tmp_path):
        out = tmp_path / "cert.json"
        main(["calibrate", "--calib", calib_csv, "--alpha", "0.85", "--beta", "0.2",
              "--out", str(out)])
        manifest = json.loads(out.read_text())["manifest"]
        with open(calib_csv, "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
        assert manifest["command"] == "calibrate"
        assert manifest["tool"] == "selcert"
        assert manifest["inputs"]["calib"] == {"path": calib_csv, "sha256": digest}
        assert manifest["params"]["alpha"] == 0.85
        assert manifest["params"]["min_count"] == 1

    def test_infeasible_still_writes_certificate(self, calib_csv, tmp_path, capsys):
        out = tmp_path / "cert.json"
        code = main(["calibrate", "--calib", calib_csv, "--alpha", "0.3", "--beta", "0.2",
                     "--out", str(out)])
        assert code == 2
        assert "infeasible" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert doc["status"] == "infeasible"
        assert doc["lambda_hat"] is None

    def test_empty_dataset_is_usage_error(self, tmp_path):
        data = tmp_path / "empty.csv"
        data.write_text("id,score,label\n")
        code = main(["calibrate", "--calib", str(data), "--alpha", "0.5", "--beta", "0.2",
                     "--out", str(tmp_path / "cert.json")])
        assert code == 1

    def test_beta_too_small_for_the_solver(self, calib_csv, tmp_path, capsys):
        # 1.0 - 1e-17 rounds to 1.0: a located usage error, not a traceback
        out = tmp_path / "cert.json"
        code = main(["calibrate", "--calib", calib_csv, "--alpha", "0.1", "--beta", "1e-17",
                     "--out", str(out)])
        assert (code, capsys.readouterr().err) == (1, TINY_BETA_ERROR)
        assert not out.exists()

    def test_missing_input_file(self, tmp_path):
        code = main(["calibrate", "--calib", str(tmp_path / "nope.csv"), "--alpha", "0.5",
                     "--beta", "0.2", "--out", str(tmp_path / "cert.json")])
        assert code == 1

    def test_calib_and_train_are_exclusive(self, calib_csv, tmp_path):
        code = main(["calibrate", "--calib", calib_csv, "--train", calib_csv,
                     "--alpha", "0.5", "--beta", "0.2", "--out", str(tmp_path / "c.json")])
        assert code == 1

    def test_missing_required_flag(self, calib_csv, tmp_path):
        code = main(["calibrate", "--calib", calib_csv, "--beta", "0.2",
                     "--out", str(tmp_path / "c.json")])
        assert code == 1

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert capsys.readouterr().out.startswith("selcert ")

    def test_train_carve_is_deterministic(self, calib_csv, tmp_path):
        args = ["calibrate", "--train", calib_csv, "--calib-fraction", "0.5",
                "--seed", "3", "--alpha", "0.95", "--beta", "0.2"]
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        doc = json.loads(out_a.read_text())
        assert doc["calib_size"] == 3
        assert doc["manifest"]["params"]["calib_fraction"] == 0.5
        assert doc["manifest"]["params"]["seed"] == 3

    def test_bad_calib_fraction(self, calib_csv, tmp_path):
        code = main(["calibrate", "--train", calib_csv, "--calib-fraction", "1.5",
                     "--alpha", "0.9", "--beta", "0.2", "--out", str(tmp_path / "c.json")])
        assert code == 1


class TestApply:
    def test_decisions_csv(self, cert75, test_csv, tmp_path, capsys):
        out = tmp_path / "decisions.csv"
        code = main(["apply", "--test", test_csv, "--cert", cert75, "--out", str(out)])
        assert code == 0
        assert out.read_text() == (
            "id,outcome,confidence\n"
            "u1,abstain,0.713\n"
            "u2,1,0.9\n"
            "u3,1,0.75\n"
            "u4,0,0.8\n"
        )
        assert "retained 3/4 (rate 0.75)" in capsys.readouterr().out

    def test_sidecar_manifest(self, cert75, test_csv, tmp_path):
        out = tmp_path / "decisions.csv"
        main(["apply", "--test", test_csv, "--cert", cert75, "--out", str(out)])
        manifest = json.loads((tmp_path / "decisions.csv.manifest.json").read_text())
        assert manifest["command"] == "apply"
        assert set(manifest["inputs"]) == {"test", "cert"}
        for entry in manifest["inputs"].values():
            with open(entry["path"], "rb") as handle:
                assert entry["sha256"] == hashlib.sha256(handle.read()).hexdigest()

    @pytest.mark.parametrize("seed", range(6))
    def test_cli_decisions_match_library_on_calibration_set(self, seed, tmp_path):
        # the record at the certified threshold must survive the JSON round trip
        data = generate_synthetic(SyntheticScorerSpec(
            n=400, seed=seed, prevalence=0.5, pos_shape=(3.0, 2.0), neg_shape=(2.0, 3.0)))
        calib = tmp_path / "calib.csv"
        write_dataset(data, calib)
        cert_path, out = tmp_path / "cert.json", tmp_path / "decisions.csv"
        assert main(["calibrate", "--calib", str(calib), "--alpha", "0.3", "--beta", "0.2",
                     "--min-count", "10", "--out", str(cert_path)]) == 0
        cert = certify_threshold(data, RiskConfig(alpha=0.3, beta=0.2, min_count=10))
        assert cert.feasible
        assert main(["apply", "--test", str(calib), "--cert", str(cert_path),
                     "--out", str(out)]) == 0
        cli = [(d.id, d.prediction) for d in read_decisions(out)]
        lib = [(d.id, d.prediction) for d in apply_certificate(data, cert)]
        assert cli == lib
        assert json.loads(cert_path.read_text())["lambda_hat"] == cert.lambda_hat

    def test_infeasible_certificate_writes_nothing(self, calib_csv, test_csv, tmp_path):
        cert = tmp_path / "bad.json"
        assert main(["calibrate", "--calib", calib_csv, "--alpha", "0.3", "--beta", "0.2",
                     "--out", str(cert)]) == 2
        out = tmp_path / "decisions.csv"
        code = main(["apply", "--test", test_csv, "--cert", str(cert), "--out", str(out)])
        assert code == 2
        assert not out.exists()


class TestEvaluate:
    def test_no_abstention_report(self, calib_csv, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["evaluate", "--test", calib_csv, "--no-abstention", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["accuracy"] == pytest.approx(4 / 6, rel=1e-11)
        assert doc["retain_rate"] == 1
        assert doc["n_total"] == 6
        assert doc["manifest"]["command"] == "evaluate"
        assert doc["manifest"]["params"]["no_abstention"] is True
        assert "evaluated 6/6" in capsys.readouterr().out

    def test_decisions_report(self, cert75, test_csv, tmp_path):
        decisions = tmp_path / "decisions.csv"
        main(["apply", "--test", test_csv, "--cert", cert75, "--out", str(decisions)])
        out = tmp_path / "report.json"
        code = main(["evaluate", "--test", test_csv, "--decisions", str(decisions),
                     "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["n_retained"] == 3
        assert doc["accuracy"] == 1  # u2, u3, u4 all predicted correctly
        assert doc["retain_rate"] == 0.75

    def test_group_breakdown(self, tmp_path):
        data = tmp_path / "grouped.csv"
        data.write_text(GROUPED)
        out = tmp_path / "report.json"
        code = main(["evaluate", "--test", str(data), "--no-abstention", "--group",
                     "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert list(doc["groups"]) == ["north", "south"]
        assert doc["groups"]["north"]["n_total"] == 2

    def test_certificate_and_replication_metadata(self, cert75, test_csv, tmp_path):
        out = tmp_path / "report.json"
        code = main(["evaluate", "--test", test_csv, "--no-abstention", "--cert", cert75,
                     "--replication", "table-2-row-1", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["certificate"]["status"] == "feasible"
        assert doc["certificate"]["lambda_hat"] == pytest.approx(0.75)
        assert doc["certificate"]["alpha"] == 0.5
        assert doc["replication"] == "table-2-row-1"

    # cert75 on TEST4: u1 abstains (confidence 0.713), u2 and u3 predict 1, u4 predicts 0
    def test_a_flipped_outcome_does_not_follow_the_certificate(self, cert75, test_csv, tmp_path, capsys):
        decisions, out = tmp_path / "decisions.csv", tmp_path / "report.json"
        assert main(["apply", "--test", test_csv, "--cert", cert75, "--out", str(decisions)]) == 0
        lines = decisions.read_text().splitlines()
        assert lines[3] == "u3,1,0.75"
        # rows in another order pair by id; u3 is flipped, and so is u1 at a later row
        lines[1:] = [lines[4], "u3,0,0.75", lines[2], lines[1].replace("abstain", "0")]
        decisions.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = main(["evaluate", "--test", test_csv, "--decisions", str(decisions), "--cert", cert75,
                     "--out", str(out)])
        assert code == 1 and not out.exists()
        assert capsys.readouterr().err == (
            "error: outcome must follow from the certificate: '1' for id 'u3', got '0' (row 2, column 'outcome')\n")

    def test_decisions_of_another_certificate_do_not_follow(self, calib_csv, cert75, test_csv, tmp_path, capsys):
        cert60, decisions, out = tmp_path / "cert60.json", tmp_path / "decisions.csv", tmp_path / "report.json"
        assert main(["calibrate", "--calib", calib_csv, "--alpha", "0.85", "--beta", "0.2", "--out", str(cert60)]) == 0
        assert main(["apply", "--test", test_csv, "--cert", str(cert60), "--out", str(decisions)]) == 0
        capsys.readouterr()
        code = main(["evaluate", "--test", test_csv, "--decisions", str(decisions), "--cert", cert75,
                     "--out", str(out)])
        assert code == 1 and not out.exists()
        assert capsys.readouterr().err == (
            "error: outcome must follow from the certificate: 'abstain' for id 'u1', got '0'"
            " (row 1, column 'outcome')\n")
        # the certificate the decisions came from passes
        assert main(["evaluate", "--test", test_csv, "--decisions", str(decisions), "--cert", str(cert60),
                     "--out", str(out)]) == 0

    def test_an_infeasible_certificate_fails_as_apply_fails(self, calib_csv, cert75, test_csv, tmp_path, capsys):
        infeasible, decisions = tmp_path / "infeasible.json", tmp_path / "decisions.csv"
        out = tmp_path / "report.json"
        assert main(["calibrate", "--calib", calib_csv, "--alpha", "0.3", "--beta", "0.2",
                     "--out", str(infeasible)]) == 2
        assert main(["apply", "--test", test_csv, "--cert", cert75, "--out", str(decisions)]) == 0
        capsys.readouterr()
        code = main(["evaluate", "--test", test_csv, "--decisions", str(decisions), "--cert", str(infeasible),
                     "--out", str(out)])
        assert code == 2 and not out.exists()
        assert capsys.readouterr().err == "error: certificate is infeasible; no threshold satisfies the risk budget\n"
        # with --no-abstention the certificate is provenance only
        assert main(["evaluate", "--test", test_csv, "--no-abstention", "--cert", str(infeasible),
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["certificate"]["status"] == "infeasible"

    def test_decision_source_is_required_and_exclusive(self, test_csv, tmp_path):
        out = str(tmp_path / "report.json")
        assert main(["evaluate", "--test", test_csv, "--out", out]) == 1
        assert main(["evaluate", "--test", test_csv, "--no-abstention",
                     "--decisions", "x.csv", "--out", out]) == 1


class TestTradeoff:
    def test_default_grid_outputs(self, calib_csv, tmp_path):
        prefix = str(tmp_path / "curve")
        code = main(["tradeoff", "--test", calib_csv, "--out-prefix", prefix])
        assert code == 0
        lines = (tmp_path / "curve.csv").read_text().splitlines()
        assert lines[0] == "lambda,fraction_kept,selective_accuracy"
        assert len(lines) == 7
        doc = json.loads((tmp_path / "curve.json").read_text())
        assert len(doc["points"]) == 6
        assert doc["manifest"]["command"] == "tradeoff"

    def test_explicit_grid_and_rerun_identical(self, calib_csv, tmp_path):
        args = ["tradeoff", "--test", calib_csv, "--grid", "0.5,0.75"]
        pa, pb = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(args + ["--out-prefix", pa]) == 0
        assert main(args + ["--out-prefix", pb]) == 0
        for ext in (".csv", ".json"):
            a = (tmp_path / ("a" + ext)).read_bytes()
            b = (tmp_path / ("b" + ext)).read_bytes()
            assert a == b
        assert len((tmp_path / "a.csv").read_text().splitlines()) == 3

    def test_unsorted_grid_rejected(self, calib_csv, tmp_path):
        code = main(["tradeoff", "--test", calib_csv, "--grid", "0.75,0.5",
                     "--out-prefix", str(tmp_path / "curve")])
        assert code == 1


# each command's numeric arguments, each holding a good value
NUMERIC_ARGUMENTS = {
    "calibrate": ["calibrate", "--train", "calib.csv", "--calib-fraction", "0.5", "--seed", "3", "--alpha", "0.3",
                  "--beta", "0.2", "--min-count", "5", "--out", "cert.json"],
    "simulate": ["simulate", "--trials", "4", "--n-calib", "40", "--n-test", "60", "--alpha", "0.3", "--beta", "0.2",
                 "--min-count", "5", "--prevalence", "0.5", "--pos-shape", "3,2", "--neg-shape", "2,3", "--seed", "7",
                 "--out-prefix", "sim"],
    "tradeoff": ["tradeoff", "--test", "test.csv", "--grid", "0.5,0.75", "--out-prefix", "curve"],
}
INTEGERS = ("--seed", "--min-count", "--trials", "--n-calib", "--n-test")
# text that float() or int() reads past, but a dataset's number cell may not hold
LAX_NUMBERS = {"underscore": "1_0", "space": " 10", "tab": "10\t", "no-break space": "10\u00a0",
               "Arabic-Indic digits": "\u0661\u0660", "fullwidth digits": "\uff11\uff10"}
LAX_PAIRS = {"underscore": "8,2_0", "space": "8, 20", "Arabic-Indic digit": "\u0668,2", "empty part": "8,",
             "three parts": "8,2,0"}
LAX_GRIDS = {"empty part": "0.6,,0.7", "Arabic-Indic digits": "\u0660.\u0666,0.7", "trailing comma": "0.6,0.7,",
             "space": "0.6, 0.7", "underscore": "0.6,0.7_5", "empty": ""}


def _lax_cases():
    """(command, flag, text, the message that rejects it) for each numeric argument and lax text."""
    for command, argv in NUMERIC_ARGUMENTS.items():
        for flag in filter(lambda arg: arg.startswith("--") and arg not in ("--train", "--test", "--out",
                                                                              "--out-prefix"), argv):
            if flag.endswith("-shape"):
                texts, message = LAX_PAIRS, "expected two comma-separated numbers, got {!r}"
            elif flag == "--grid":
                texts, message = LAX_GRIDS, "bad lambda grid {!r}"
            else:
                kind = "int" if flag in INTEGERS else "float"
                texts, message = LAX_NUMBERS, f"invalid {kind} value: {{!r}}"
            for name, text in texts.items():
                yield pytest.param(command, flag, text, message.format(text), id=f"{command} {flag} {name}")


class TestNumericArguments:
    """Every numeric argument is read by the rule of a dataset's number cell (`records._lax_number`)."""

    @pytest.mark.parametrize("command, flag, text, message", _lax_cases())
    def test_lax_number_is_a_usage_error(self, command, flag, text, message, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        argv = list(NUMERIC_ARGUMENTS[command])
        argv[argv.index(flag) + 1] = text
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.endswith(f"selcert {command}: error: argument {flag}: {message}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag, text, message", [
        ("--grid", ",".join(["0.5"] * 2000) + ",x", "bad lambda grid"),
        ("--pos-shape", "8," * 2000 + "2", "expected two comma-separated numbers, got"),
    ], ids=["grid", "pos-shape"])
    def test_a_long_bad_argument_is_quoted_cut(self, flag, text, message, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        command = "tradeoff" if flag == "--grid" else "simulate"
        argv = list(NUMERIC_ARGUMENTS[command])
        argv[argv.index(flag) + 1] = text
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.endswith(f"argument {flag}: {message} '{text[:37]}...{text[-38:]}'\n")
        assert list(tmp_path.iterdir()) == []

    def test_plain_numbers_are_read_as_before(self, tmp_path, monkeypatch):
        # exponents, signs, infinities and leading zeros are float()'s syntax and a number cell's alike
        monkeypatch.chdir(tmp_path)
        (tmp_path / "test.csv").write_text(CALIB6)
        for grid, points in (("5e-1,0.75", [0.5, 0.75]), ("+0.5,0.75", [0.5, 0.75]), ("0.50,00.75", [0.5, 0.75])):
            argv = list(NUMERIC_ARGUMENTS["tradeoff"])
            argv[argv.index("--grid") + 1] = grid
            assert main(argv) == 0
            assert json.loads((tmp_path / "curve.json").read_text())["manifest"]["params"]["grid"] == points
        args = list(NUMERIC_ARGUMENTS["simulate"])
        args[args.index("--seed") + 1] = "-007"
        args[args.index("--trials") + 1] = "+2"
        assert main(args) == 0
        params = json.loads((tmp_path / "sim.json").read_text())["manifest"]["params"]
        assert (params["seed"], params["trials"]) == (-7, 2)
        args[args.index("--alpha") + 1] = "inf"
        assert main(args) == 1  # a number, but outside alpha's range


class TestUnreadableInput:
    def test_malformed_dataset_csv(self, tmp_path, capsys):
        data = tmp_path / "big.csv"
        data.write_text('id,score,label\na,0.5,1\n"' + "x" * 131073 + '",0.5,1\n')
        code = main(["tradeoff", "--test", str(data), "--out-prefix", str(tmp_path / "curve")])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: malformed CSV: field larger than field limit (131072) (row 2)\n"
        )

    def test_malformed_decisions_csv(self, test_csv, tmp_path, capsys):
        decisions = tmp_path / "decisions.csv"
        decisions.write_text('id,outcome,confidence\nu1,"' + "x" * 131073 + '",0.7\n')
        code = main(["evaluate", "--test", test_csv, "--decisions", str(decisions),
                     "--out", str(tmp_path / "report.json")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: malformed CSV: field larger")

    @pytest.mark.parametrize("kind", ["dataset", "decisions", "certificate"])
    def test_non_utf8_input(self, kind, cert75, test_csv, tmp_path, capsys):
        bad = tmp_path / ("bad.json" if kind == "certificate" else "bad.csv")
        bad.write_bytes(b"id,score,label\n\xff,0.5,1\n")
        out = str(tmp_path / "out")
        argv = {
            "dataset": ["tradeoff", "--test", str(bad), "--out-prefix", out],
            "decisions": ["evaluate", "--test", test_csv, "--decisions", str(bad), "--out", out],
            "certificate": ["apply", "--test", test_csv, "--cert", str(bad), "--out", out],
        }[kind]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {bad}: 'utf-8' codec can't decode byte 0xff")

    def test_integer_score_beyond_float_range(self, tmp_path, capsys):
        huge = "1" + "0" * 400
        data = tmp_path / "big.json"
        data.write_text(f'[{{"id": "a", "score": {huge}, "label": 1}}]')
        code = main(["tradeoff", "--test", str(data), "--out-prefix", str(tmp_path / "curve")])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: score must be a number within [0, 1], got '1" + "0" * 37 + "..." + "0" * 39
            + "' (row 1, column 'score')\n"
        )

    def test_certificate_count_beyond_integer_range(self, cert75, test_csv, tmp_path, capsys):
        doc = json.loads(Path(cert75).read_text(encoding="utf-8"))
        doc["min_count"] = "@@"
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(doc).replace('"@@"', "1e400"))
        code = main(["apply", "--test", test_csv, "--cert", str(cert),
                     "--out", str(tmp_path / "decisions.csv")])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: malformed certificate: min_count must be an integer, got inf\n"
        )

    def test_certificate_threshold_beyond_float_range(self, cert75, test_csv, tmp_path, capsys):
        doc = json.loads(Path(cert75).read_text(encoding="utf-8"))
        doc["lambda_hat"] = "@@"
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(doc).replace('"@@"', "1" + "0" * 400))
        out = tmp_path / "decisions.csv"
        assert main(["apply", "--test", test_csv, "--cert", str(cert), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: malformed certificate: thresholds must be finite, within [0.5, 1] and strictly ascending:"
            " lambda_hat is inf\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["dataset", "certificate"])
    def test_json_nested_past_the_recursion_limit(self, kind, test_csv, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100000 + "]" * 100000)
        out = str(tmp_path / "out")
        argv = {
            "dataset": ["tradeoff", "--test", str(deep), "--out-prefix", out],
            "certificate": ["apply", "--test", test_csv, "--cert", str(deep), "--out", out],
        }[kind]
        assert main(argv) == 1
        prefix = {"dataset": "invalid JSON", "certificate": "invalid certificate JSON"}[kind]
        assert capsys.readouterr().err.startswith(f"error: {prefix}: maximum recursion depth exceeded")

    def test_lone_surrogate_id_is_a_located_error(self, cert75, tmp_path, capsys):
        # JSON can spell a lone surrogate, which no UTF-8 decisions file can hold
        data = tmp_path / "d.json"
        data.write_text('[{"id": "a", "score": 0.9, "label": 1}, {"id": "b\\ud800", "score": 0.8, "label": 1}]')
        out = tmp_path / "decisions.csv"
        code = main(["apply", "--test", str(data), "--cert", cert75, "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: id must be encodable as UTF-8, got 'b\\ud800' (row 2, column 'id')\n")
        assert not out.exists()

    def test_csv_score_with_an_underscore(self, cert75, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("id,score,label\na,0.9,1\nb,0.7_5,1\n")
        out = tmp_path / "decisions.csv"
        code = main(["apply", "--test", str(data), "--cert", cert75, "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: score must be a number within [0, 1], got '0.7_5' (row 2, column 'score')\n")
        assert not out.exists()

    @pytest.mark.parametrize("change, message", [
        # a feasible lambda_hat that no grid point evidences
        ({"lambda_hat": 0.9}, "lambda_hat must be one of the grid's thresholds, got 0.9"),
        ({"lambda_hat": 0.9, "grid": [], "calib_size": 0}, "calib_size must be an integer >= 1, got 0"),
        ({"lambda_hat": 0.9, "grid": []}, "lambda_hat must be one of the grid's thresholds, got 0.9"),
    ])
    def test_certificate_threshold_without_evidence(self, change, message, cert75, test_csv, tmp_path, capsys):
        doc = json.loads(Path(cert75).read_text(encoding="utf-8"))
        doc.update(change)
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(doc))
        out = tmp_path / "decisions.csv"
        code = main(["apply", "--test", test_csv, "--cert", str(cert), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: malformed certificate: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("token, shown", [("NaN", "nan"), ("Infinity", "inf"),
                                              ("-Infinity", "-inf")])
    def test_certificate_threshold_not_finite(self, token, shown, cert75, test_csv, tmp_path, capsys):
        # json reads these tokens as floats: a NaN or inf lambda_hat would abstain on,
        # or keep, every record
        doc = json.loads(Path(cert75).read_text(encoding="utf-8"))
        doc["lambda_hat"] = "@@"
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(doc).replace('"@@"', token))
        out = tmp_path / "decisions.csv"
        code = main(["apply", "--test", test_csv, "--cert", str(cert), "--out", str(out)])
        assert code == 1
        rule = ("lambda_hat must be a number, got nan" if token == "NaN" else
                "thresholds must be finite, within [0.5, 1] and strictly ascending: lambda_hat is " + shown)
        assert capsys.readouterr().err == f"error: malformed certificate: {rule}\n"
        assert not out.exists()


class TestUnwritableOutput:
    @pytest.mark.parametrize("command", ["calibrate", "apply", "apply-manifest", "evaluate",
                                         "tradeoff", "simulate"])
    def test_output_path_that_is_a_directory(self, command, calib_csv, cert75, test_csv,
                                             tmp_path, capsys):
        out = tmp_path / "out"
        blocked = {"apply-manifest": tmp_path / "out.manifest.json", "tradeoff": tmp_path / "out.csv",
                   "simulate": tmp_path / "out.csv"}.get(command, out)
        blocked.mkdir()
        argv = {
            "calibrate": ["calibrate", "--calib", calib_csv, "--alpha", "0.85", "--beta", "0.2",
                          "--out", str(out)],
            "apply": ["apply", "--test", test_csv, "--cert", cert75, "--out", str(out)],
            "apply-manifest": ["apply", "--test", test_csv, "--cert", cert75, "--out", str(out)],
            "evaluate": ["evaluate", "--test", test_csv, "--no-abstention", "--out", str(out)],
            "tradeoff": ["tradeoff", "--test", test_csv, "--out-prefix", str(out)],
            "simulate": TestSimulate.ARGS + ["--out-prefix", str(out)],
        }[command]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {blocked}: ")
        assert err.count("\n") == 1


class TestModuleEntry:
    @pytest.mark.parametrize("module", ["selcert", "selcert.cli"])
    def test_python_m_prints_version(self, module):
        src = str(Path(selcert.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-m", module, "--version"],
                              capture_output=True, text=True, env=env, timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == (
            0, f"selcert {selcert.__version__}\n", "")


ROOT = Path(__file__).resolve().parents[1]
BENCHMARK_CHILD = ROOT / "perfbench" / "child.py"
GOLDEN_INPUTS = ROOT / "tests" / "golden" / "inputs"


class TestBenchmarkChild:
    """Every mode of perfbench/child.py, run as the benchmark runs it, on tiny inputs.

    The child iterates a certificate's grid (`GridPoint`s) and the decisions
    (`Decision.retained`), reads `TradeoffCurve.points`, and counts the
    simulate trials with `len`; its counts must equal the tables' column
    counts. Each child runs in the test's directory with the package's
    source on PYTHONPATH and writes nothing into the checkout.
    """

    PARAMS = dict(trials=3, n_calib=60, n_test=60, alpha=0.1, beta=0.1, min_count=5, prevalence=0.5,
                  pos_shape=[8.0, 2.0], neg_shape=[2.0, 8.0], seed=1)

    @staticmethod
    def child(work: Path, *argv: str) -> dict:
        """The document a child writes to work/out.json; argv names that file."""
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        before = sorted(BENCHMARK_CHILD.parent.iterdir())
        done = subprocess.run([sys.executable, str(BENCHMARK_CHILD), *argv], cwd=work, capture_output=True,
                              text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stdout + done.stderr
        assert sorted(BENCHMARK_CHILD.parent.iterdir()) == before
        return json.loads((work / "out.json").read_text(encoding="utf-8"))

    def test_probe_round_trips_a_certificate_on_rounded_scores(self, tmp_path):
        data = generate_synthetic(SyntheticScorerSpec(2000, 0.5, (8, 2), (2, 8), 3))
        rounded = Dataset(data.ids, [round(score, 3) for score in data.scores.tolist()], data.labels)
        write_dataset(rounded, tmp_path / "probe.csv")
        doc = self.child(tmp_path, "probe", "--out", "out.json", "--calib", "probe.csv",
                         "--alpha", "0.1", "--beta", "0.1", "--min-count", "25")
        assert doc == {"ok": True, "error": None}

    def test_cli_row_counts_equal_the_column_counts(self, tmp_path):
        calib, test = str(GOLDEN_INPUTS / "calib.csv"), str(GOLDEN_INPUTS / "test.csv")
        steps = [
            ["calibrate", "--calib", calib, "--alpha", "0.1", "--beta", "0.1", "--min-count", "25",
             "--out", "cert.json"],
            ["apply", "--test", test, "--cert", "cert.json", "--out", "decisions.csv"],
            ["tradeoff", "--test", test, "--out-prefix", "curve"],
        ]
        docs = [self.child(tmp_path, "cli", "out.json", *step) for step in steps]
        assert [doc["code"] for doc in docs] == [0, 0, 0]
        spans = {span["name"]: span for doc in docs for span in doc["spans"]}
        grid = load_certificate(tmp_path / "cert.json").grid
        assert docs[0]["pairs"] == [[k, n] for k, n in zip(grid.errors_at.tolist(), grid.n_at.tolist())]
        assert spans["calibrate.certify_threshold"]["grid_points"] == len(grid.lam)
        retained = read_decisions(tmp_path / "decisions.csv").retained
        assert spans["calibrate.apply_certificate"]["retained"] == int(retained.sum()) > 0
        assert spans["sim.tradeoff_curve"]["points"] == len(tradeoff_curve(load_dataset(test)).lam)

    def test_threads2_runs_the_simulation(self, tmp_path):
        doc = self.child(tmp_path, "threads2", "--out", "out.json", "--params", json.dumps(self.PARAMS))
        assert [span["name"] for span in doc["spans"]] == ["sim.validate_guarantee_threads2"]

    def test_cli_simulate_counts_its_trials(self, tmp_path):
        doc = self.child(tmp_path, "cli", "out.json", "simulate", "--trials", "3", "--n-calib", "60", "--n-test", "60",
                         "--alpha", "0.1", "--beta", "0.1", "--min-count", "5", "--seed", "1", "--out-prefix", "mc")
        spans = {span["name"]: span for span in doc["spans"]}
        assert doc["code"] == 0 and spans["sim.validate_guarantee"]["trials"] == 3
        assert {"sim.summarize_trials", "sim.trials_to_doc"} <= set(spans)
        assert json.loads((tmp_path / "mc.json").read_text(encoding="utf-8"))["summary"]["n_trials"] == 3

    def test_cli_evaluate_reports_the_retained_records(self, tmp_path):
        golden = ROOT / "tests" / "golden" / "outputs"
        doc = self.child(tmp_path, "cli", "out.json", "evaluate", "--test", str(GOLDEN_INPUTS / "test.csv"),
                         "--decisions", str(golden / "decisions.csv"), "--cert", str(golden / "cert.json"),
                         "--group", "--out", "report.json")
        spans = {span["name"] for span in doc["spans"]}
        assert doc["code"] == 0
        assert {"calibrate.read_decisions", "metrics.selective_report", "metrics.report_to_doc"} <= spans
        report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        assert report["n_retained"] == int(read_decisions(golden / "decisions.csv").retained.sum()) > 0

    def test_bootstrap_equals_the_library(self, tmp_path):
        a = generate_synthetic(SyntheticScorerSpec(60, 0.5, (8, 2), (2, 8), 3))
        b = Dataset(a.ids, generate_synthetic(SyntheticScorerSpec(60, 0.5, (3, 2), (2, 3), 4)).scores, a.labels)
        write_dataset(a, tmp_path / "a.csv")
        write_dataset(b, tmp_path / "b.csv")
        doc = self.child(tmp_path, "bootstrap", "--out", "out.json", "--a", "a.csv", "--b", "b.csv",
                         "--result", "result.json", "--resamples", "100", "--seed", "1")
        calls = [span for span in doc["spans"] if span["name"] == "metrics.bootstrap_significance"]
        assert [(span["metric"], span["resamples"]) for span in calls] == [("pr_auc", 100), ("roc_auc", 100)]
        for metric in ("pr_auc", "roc_auc"):
            sig = bootstrap_significance(a, b, metric, resamples=100, seed=1)
            assert doc["result"][metric] == {"delta": sig.delta, "p_value": sig.p_value, "resamples": 100}

    def test_binom_solves_every_pair(self, tmp_path):
        (tmp_path / "pairs.json").write_text(json.dumps({"pairs": [[0, 10], [3, 40], [7, 7]], "beta": 0.1}))
        doc = self.child(tmp_path, "binom", "--out", "out.json", "--pairs", "pairs.json")
        assert [(span["name"], span["calls"]) for span in doc["spans"]] == [("binom.risk_upper_bound_cold", 3)]

    def test_replay_draws_each_trial_set(self, tmp_path):
        doc = self.child(tmp_path, "replay", "--out", "out.json", "--params", json.dumps({**self.PARAMS, "n_test": 20}))
        assert [(span["name"], span["rows"]) for span in doc["spans"]] == [("records.generate_synthetic", 60),
                                                                          ("records.generate_synthetic", 20)] * 3


class TestSimulate:
    ARGS = ["simulate", "--trials", "4", "--n-calib", "40", "--n-test", "60",
            "--alpha", "0.3", "--beta", "0.2", "--min-count", "5",
            "--pos-shape", "3,2", "--neg-shape", "2,3", "--seed", "7"]

    def test_beta_too_small_for_the_solver(self, tmp_path, capsys):
        # simulate reads beta by calibrate's rule, so the two commands agree
        args = list(self.ARGS)
        args[args.index("--beta") + 1] = "1e-17"
        code = main(args + ["--out-prefix", str(tmp_path / "sim")])
        assert (code, capsys.readouterr().err) == (1, TINY_BETA_ERROR)
        assert list(tmp_path.iterdir()) == []

    def test_shape_fault_is_located(self, tmp_path, capsys):
        args = list(self.ARGS)
        args[args.index("--pos-shape") + 1] = "2,0"
        assert main(args + ["--out-prefix", str(tmp_path / "sim")]) == 1
        assert capsys.readouterr().err == "error: pos_shape[1] must be within (0, inf), got 0.0\n"
        assert list(tmp_path.iterdir()) == []

    def test_outputs_and_thread_invariance(self, tmp_path, capsys):
        # simulate runs in one thread, so a rerun is the whole of its invariance
        assert main(self.ARGS + ["--out-prefix", str(tmp_path / "first")]) == 0
        assert main(self.ARGS + ["--out-prefix", str(tmp_path / "rerun")]) == 0
        for ext in (".csv", ".json"):
            assert (tmp_path / ("first" + ext)).read_bytes() == (tmp_path / ("rerun" + ext)).read_bytes()
        doc = json.loads((tmp_path / "first.json").read_text())
        assert doc["summary"]["n_trials"] == 4
        assert doc["manifest"]["params"]["pos_shape"] == [3, 2]
        assert "feasible" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--trials", "--n-calib", "--n-test"])
    def test_size_past_memory_is_a_located_error(self, flag, tmp_path, capsys):
        # 2**62 records cannot be allocated; the run fails before it draws, and writes nothing
        args = list(self.ARGS)
        args[args.index(flag) + 1] = str(2**62)
        assert main(args + ["--out-prefix", str(tmp_path / "sim")]) == 1
        name = flag[2:].replace("-", "_")
        assert capsys.readouterr().err == f"error: {name}={2**62} is too large: its arrays do not fit in memory\n"
        assert list(tmp_path.iterdir()) == []


GOLDEN = Path(__file__).resolve().parent / "golden"


def _unquoted(text: str) -> str:
    """The golden test set's text with each id '"tK, quoted"' written tK-quoted, so no field is quoted."""
    return re.sub(r'"""(t\d+), quoted"""', r"\1-quoted", text)


class TestQuoteFreeInput:
    """golden/inputs/test_unquoted.csv is test.csv without its quoted ids.

    The column reader splits the quote-free copy on commas and line breaks
    and reads the original with csv.reader. Through apply, evaluate and
    tradeoff the two must give the same outputs, ids and manifests aside.
    """

    def outputs(self, tmp_path, name):
        out = tmp_path / name
        out.mkdir()
        test, cert = str(GOLDEN / "inputs" / name), str(GOLDEN / "outputs" / "cert.json")
        decisions = str(out / "decisions.csv")
        assert main(["apply", "--test", test, "--cert", cert, "--out", decisions]) == 0
        assert main(["evaluate", "--test", test, "--decisions", decisions, "--group",
                     "--out", str(out / "report.json")]) == 0
        assert main(["tradeoff", "--test", test, "--out-prefix", str(out / "curve")]) == 0
        docs = [json.loads((out / f).read_text(encoding="utf-8")) for f in ("report.json", "curve.json")]
        for doc in docs:
            del doc["manifest"]
        texts = [(out / f).read_text(encoding="utf-8") for f in ("decisions.csv", "curve.csv")]
        return texts, docs

    def test_outputs_equal_the_quoted_inputs(self, tmp_path, capsys):
        quoted = (GOLDEN / "inputs" / "test.csv").read_text(encoding="utf-8")
        plain = (GOLDEN / "inputs" / "test_unquoted.csv").read_text(encoding="utf-8")
        assert plain == _unquoted(quoted) != quoted
        assert _plain_lines(plain) is not None and _plain_lines(quoted) is None
        (decisions, curve), docs = self.outputs(tmp_path, "test.csv")
        quoted_stdout = capsys.readouterr().out
        (plain_decisions, plain_curve), plain_docs = self.outputs(tmp_path, "test_unquoted.csv")
        assert plain_decisions == _unquoted(decisions) != decisions
        assert (plain_curve, plain_docs) == (curve, docs)
        assert capsys.readouterr().out.replace("test_unquoted.csv", "test.csv") == quoted_stdout


class TestManifest:
    """Each run records its input files, then every other option in the order its parser declares them."""

    INPUTS = {"calib", "train", "test", "cert", "decisions"}
    UNRECORDED = {"out", "out_prefix", "replication"}  # the outputs, and a note the report carries
    # each subcommand's argv after its name, on the golden inputs; {out} is the output path
    RUNS = {
        "calibrate": ["--calib", "inputs/calib.csv", "--alpha", "0.1", "--beta", "0.1", "--min-count", "25",
                      "--date-format", "%Y-%m-%d", "--out", "{out}"],
        "calibrate --train": ["--train", "inputs/test.csv", "--calib-fraction", "0.4", "--seed", "5",
                              "--alpha", "0.1", "--beta", "0.1", "--min-count", "25", "--out", "{out}"],
        "apply": ["--test", "inputs/test.csv", "--cert", "outputs/cert.json", "--out", "{out}"],
        "evaluate": ["--test", "inputs/test.csv", "--decisions", "outputs/decisions.csv", "--group",
                     "--cert", "outputs/cert.json", "--replication", "golden", "--out", "{out}"],
        "evaluate --no-abstention": ["--test", "inputs/test.json", "--no-abstention", "--out", "{out}"],
        "tradeoff": ["--test", "inputs/test.json", "--grid", "0.6,0.8", "--out-prefix", "{out}"],
        "simulate": ["--trials", "3", "--n-calib", "50", "--n-test", "40", "--alpha", "0.2", "--beta", "0.1",
                     "--seed", "3", "--out-prefix", "{out}"],
    }

    @staticmethod
    def subparsers() -> dict:
        parser = build_parser()
        return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices

    def test_every_subcommand_is_run(self):
        assert {run.split()[0] for run in self.RUNS} == set(self.subparsers())

    @pytest.mark.parametrize("run", list(RUNS))
    def test_manifest_follows_the_parser(self, run, tmp_path, monkeypatch):
        monkeypatch.chdir(GOLDEN)
        command, out = run.split()[0], str(tmp_path / "out")
        argv = [command] + [arg.format(out=out) for arg in self.RUNS[run]]
        assert main(argv) == 0
        written = {"apply": out + ".manifest.json", "tradeoff": out + ".json", "simulate": out + ".json"}
        doc = json.loads(Path(written.get(command, out)).read_text())
        manifest = doc if command == "apply" else doc["manifest"]

        declared = [action.dest for action in self.subparsers()[command]._actions if action.dest != "help"]
        given = vars(build_parser().parse_args(argv))
        assert manifest["command"] == command
        assert list(manifest["params"]) == [dest for dest in declared if dest not in self.INPUTS | self.UNRECORDED]
        assert manifest["inputs"] == {
            dest: {"path": given[dest], "sha256": hashlib.sha256(Path(given[dest]).read_bytes()).hexdigest()}
            for dest in declared if dest in self.INPUTS and given[dest] is not None}
        assert manifest["inputs"] or command == "simulate"
