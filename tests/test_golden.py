"""Golden outputs: a fixed CLI pipeline must reproduce committed bytes.

C9 compares two runs within one tree, so it cannot see a change to the code
that changes output bytes. These tests can: the inputs under
tests/golden/inputs run through calibrate (from a calibration file and
carved from a training file), apply, evaluate --group, tradeoff and
simulate, and every output file plus each step's stdout must equal the
committed copy under tests/golden/outputs. Paths are relative to the work
directory, because manifests record input paths.

After an intended output change, regenerate and review the diff:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
INPUTS = ("calib.csv", "test.csv", "test.json")
STEPS = (
    ("calibrate", "--calib", "calib.csv", "--alpha", "0.1", "--beta", "0.1",
     "--min-count", "25", "--out", "cert.json"),
    ("calibrate", "--train", "test.csv", "--calib-fraction", "0.4", "--seed", "5",
     "--alpha", "0.1", "--beta", "0.1", "--min-count", "25", "--out", "cert_carved.json"),
    ("apply", "--test", "test.csv", "--cert", "cert.json", "--out", "decisions.csv"),
    ("evaluate", "--test", "test.csv", "--decisions", "decisions.csv", "--cert", "cert.json",
     "--group", "--out", "report.json"),
    ("tradeoff", "--test", "test.json", "--out-prefix", "curve"),
    ("simulate", "--trials", "20", "--n-calib", "300", "--n-test", "1000", "--alpha", "0.1",
     "--beta", "0.1", "--min-count", "25", "--seed", "3", "--out-prefix", "mc"),
)
OUTPUTS = (
    "cert.json", "cert_carved.json", "decisions.csv", "decisions.csv.manifest.json",
    "report.json", "curve.csv", "curve.json", "mc.csv", "mc.json", "stdout.txt",
)
# write_dataset(generate_synthetic(SYNTHETIC)) pins the generator's draw order
SYNTHETIC = dict(n=500, prevalence=0.3, pos_shape=(4.0, 2.0), neg_shape=(2.0, 4.0), seed=2024)
SYNTHETIC_SHA256 = {
    "csv": "4e67c073ef3ef528438e3d060f3e49c41f9c563089d26c2fac415377d409c273",
    "json": "8589a27f21daebfa6402b39efd075042867b30d2313f3381157d0a6752c1714c",
}


def make_inputs(directory: Path) -> None:
    """Draw the golden input files with numpy alone (run once, then committed).

    Calibration scores are rounded to 3 decimals so the grid has ties. The
    test file carries dates, groups (some records ungrouped) and ids that
    need CSV quoting.
    """
    rng = np.random.default_rng(20241018)
    n_calib, n_test = 400, 600
    labels = (rng.random(n_calib) < 0.4).astype(int)
    scores = np.round(np.where(labels == 1, rng.beta(4, 2, n_calib), rng.beta(2, 4, n_calib)), 3)
    lines = ["id,score,label"] + [f"c{i},{s!r},{y}" for i, (s, y) in
                                  enumerate(zip(scores.tolist(), labels.tolist()))]
    (directory / "calib.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    labels = (rng.random(n_test) < 0.4).astype(int)
    scores = np.where(labels == 1, rng.beta(4, 2, n_test), rng.beta(2, 4, n_test))
    groups = rng.integers(0, 4, n_test)
    days = rng.integers(0, 365, n_test)
    rows = []
    for i in range(n_test):
        rec_id = f"t{i}" if i % 50 else f'"t{i}, quoted"'
        group = "" if groups[i] == 3 else f"g{groups[i]}"
        day = np.datetime64("2021-01-01") + np.timedelta64(int(days[i]), "D")
        rows.append({"id": rec_id, "score": float(scores[i]), "label": int(labels[i]),
                     "date": str(day), "group": group or None})
    with open(directory / "test.csv", "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["id", "score", "label", "date", "group"])
        for row in rows:
            writer.writerow([row["id"], repr(row["score"]), row["label"], row["date"],
                             row["group"] or ""])
    (directory / "test.json").write_text(json.dumps(rows, indent=1) + "\n", encoding="utf-8")


def run_pipeline(work: Path) -> dict[str, bytes]:
    """Run every step in `work` (inputs already there); return the outputs' bytes."""
    from selcert.cli import main

    stdout = io.StringIO()
    cwd = os.getcwd()
    os.chdir(work)
    try:
        for step in STEPS:
            with contextlib.redirect_stdout(stdout):
                code = main(list(step))
            assert code == 0, f"{step[0]} exited {code}"
    finally:
        os.chdir(cwd)
    (work / "stdout.txt").write_text(stdout.getvalue(), encoding="utf-8")
    return {name: (work / name).read_bytes() for name in OUTPUTS}


def synthetic_bytes(tmp: Path, fmt: str) -> bytes:
    from selcert import SyntheticScorerSpec, generate_synthetic, write_dataset

    path = tmp / f"synthetic.{fmt}"
    write_dataset(generate_synthetic(SyntheticScorerSpec(**SYNTHETIC)), path)
    return path.read_bytes()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    work = tmp_path_factory.mktemp("golden")
    for name in INPUTS:
        shutil.copy(GOLDEN / "inputs" / name, work / name)
    saved = os.environ.pop("SELCERT_THREADS", None)
    try:
        return run_pipeline(work)
    finally:
        if saved is not None:
            os.environ["SELCERT_THREADS"] = saved


@pytest.mark.parametrize("name", OUTPUTS)
def test_output_matches_golden(outputs, name):
    assert outputs[name] == (GOLDEN / "outputs" / name).read_bytes()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_synthetic_dataset_bytes_pinned(tmp_path, fmt):
    assert hashlib.sha256(synthetic_bytes(tmp_path, fmt)).hexdigest() == SYNTHETIC_SHA256[fmt]


if __name__ == "__main__":
    inputs = GOLDEN / "inputs"
    if not inputs.is_dir():
        inputs.mkdir(parents=True)
        make_inputs(inputs)
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name in INPUTS:
            shutil.copy(inputs / name, work / name)
        (GOLDEN / "outputs").mkdir(exist_ok=True)
        for name, data in run_pipeline(work).items():
            (GOLDEN / "outputs" / name).write_bytes(data)
        for fmt in ("csv", "json"):
            print(fmt, hashlib.sha256(synthetic_bytes(work, fmt)).hexdigest())
    sys.exit(0)
