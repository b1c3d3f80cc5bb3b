"""End-to-end and per-layer benchmark of selcert.

Run from the root of a checkout:

    python3 perfbench/run.py --workload certify-dense --seed 1 --seconds 20 --trace 0

A single runner process generates the workload's inputs from --seed with
numpy, then runs the package's children one at a time: the `selcert` CLI
(through selcert.cli.entrypoint, with PYTHONPATH=src) and, for bootstrap-pr,
a child that calls bootstrap_significance. It repeats the workload until
--seconds of measured time are used (at least once) and reports medians.
Every output is checked against an independent oracle (perfbench/oracles.py)
and digested for determinism.

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1 runs
each repetition untraced and then again with spans recorded around calls to
the package's public functions (perfbench/spans.py, perfbench/child.py) and
reports the per-layer metrics. --workload all runs every workload in turn
and prints each one's metrics. The last line of standard output is a JSON
object with keys correct, attempted, failed and metrics; perfbench/README.md
documents the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs
import oracles
from spans import Tracer, count, duration, total

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
WORKLOADS = ("certify-dense", "bulk-apply", "simulate-mc", "bootstrap-pr")
ALPHA, BETA, MIN_COUNT = 0.1, 0.1, 25
SIMULATION = {
    "trials": 300, "n_calib": 500, "n_test": 2000, "alpha": ALPHA, "beta": BETA,
    "min_count": MIN_COUNT, "prevalence": 0.5, "pos_shape": [8.0, 2.0], "neg_shape": [2.0, 8.0],
}
RESAMPLES = 2000
SETUP_PROBES = 11
ENTRYPOINT = "from selcert.cli import entrypoint; entrypoint()"


@dataclass
class Child:
    label: str
    code: int
    wall: float
    rss_mb: float
    output: str  # the end of its stdout and stderr
    doc: dict | None = None

    @property
    def spans(self) -> list[dict]:
        return [] if self.doc is None else self.doc.get("spans", [])

    def probe_seconds(self) -> float:
        return sum(duration(s) for s in self.spans if s["name"].startswith("probe."))


@dataclass
class Iteration:
    """One repetition of a workload's timed operations."""

    wall: float = 0.0
    items: int = 0
    item_seconds: float = 0.0
    children: list[Child] = field(default_factory=list)
    outputs: tuple[str, ...] = ()

    @property
    def rss_mb(self) -> float:
        return max((c.rss_mb for c in self.children), default=0.0)

    def step(self, label: str) -> Child | None:
        return next((c for c in self.children if c.label == label), None)


class Run:
    """One benchmark invocation: work directory, child environment, op counts."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload, self.seed = workload, seed
        self.work = ROOT / ".perfbench" / workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1",
                        OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self.env.pop("SELCERT_THREADS", None)
        self.tracer = Tracer("runner")
        self.child_spans: list[dict] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.known_defects: list[str] = []
        self.probes = 0
        self.notes: list[str] = []
        self._n = 0

    def op(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(message)
        return ok

    def spawn(self, label: str, argv: list[str], doc: bool = False) -> Child:
        """Run one child to completion, timing it and reading its peak RSS."""
        self._n += 1
        log = self.work / f"{self._n:03d}-{label}"
        out = log.with_suffix(".json")
        if doc:
            argv = [argv[0], str(out), *argv[1:]] if argv[0] == "cli" else [*argv, "--out", str(out)]
            argv = [sys.executable, str(BENCH / "child.py"), *argv]
        with self.tracer.span(f"child.{label}") as span, \
                open(log.with_suffix(".out"), "wb") as so, open(log.with_suffix(".err"), "wb") as se:
            started = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env, stdout=so, stderr=se)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - started
            proc.returncode = os.waitstatus_to_exitcode(status)
            span["code"] = proc.returncode
        output = (log.with_suffix(".out").read_text(errors="replace")
                  + log.with_suffix(".err").read_text(errors="replace")).strip()
        child = Child(label, proc.returncode, wall, usage.ru_maxrss / 1024.0, output[-300:])
        if doc and out.exists():
            child.doc = json.loads(out.read_text())
            for s in child.doc.get("spans", []):
                s.update(proc=label, runner_span=span["id"])
            self.child_spans += child.doc.get("spans", [])
        return child

    def cli(self, step: str, args: list[str], traced: bool) -> Child:
        if traced:
            child = self.spawn(step, ["cli", step, *args], doc=True)
        else:
            child = self.spawn(step, [sys.executable, "-c", ENTRYPOINT, step, *args])
        self.op(child.code == 0, f"selcert {step} exited {child.code}: {child.output}")
        return child

    def path(self, name: str) -> Path:
        return self.work / name


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def source_digest() -> str:
    """Digest of the program and benchmark sources, keying stored output digests."""
    h = hashlib.sha256()
    for base in (ROOT / "src", BENCH):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Inputs, one timed repetition, and output checks of one workload."""

    item = "items"  # what items_per_s counts
    certifier: str | None = None  # the traced step whose first certification is cold

    def known_defects(self, run: Run) -> None:
        """Untimed probes for defects known at the commit that added them."""

    def extras(self, run: Run, traced: Iteration) -> list[Child]:
        """Children that measure layers the traced repetition cannot time by itself."""
        return []


class Pipeline(Workload):
    """calibrate -> apply -> evaluate -> tradeoff through the CLI."""

    item = "test_rows"
    certifier = "calibrate"

    def __init__(self, n_calib: int, n_test: int, grouped: bool, probe: bool) -> None:
        self.n_calib, self.n_test = n_calib, n_test
        self.grouped, self.probe = grouped, probe

    def prepare(self, run: Run) -> None:
        # A few percent of calibration draws certify nothing: one of the most
        # confident min_count records is wrong, which blocks the scan at the
        # top. Nothing could then be applied, so such draws are replaced by the
        # next one from the seed. The oracle judges feasibility, not the program.
        for attempt in range(100):
            self.calib = inputs.draw(inputs.stream(run.seed, 1, attempt), self.n_calib)
            if oracles.certify(*self.calib, ALPHA, BETA, MIN_COUNT)[4] is not None:
                break
        inputs.write_csv(run.path("calib.csv"), *self.calib)
        rng = inputs.stream(run.seed, 2)
        scores, labels = inputs.draw(rng, self.n_test)
        groups = rng.integers(0, inputs.N_GROUPS, self.n_test) if self.grouped else None
        inputs.write_csv(run.path("test.csv"), scores, labels, groups)
        if self.probe:
            scores, labels = inputs.draw(inputs.stream(run.seed, 3), 2000)
            inputs.write_csv(run.path("probe.csv"), np.round(scores, 3), labels)

    def known_defects(self, run: Run) -> None:
        """Round-trip probe on 3-decimal scores (threshold rendering defect)."""
        if not self.probe:
            return
        child = run.spawn("probe", ["probe", "--calib", "probe.csv", "--alpha", str(ALPHA),
                                    "--beta", str(BETA), "--min-count", str(MIN_COUNT)], doc=True)
        run.probes += 1
        if child.code != 0 or child.doc is None:
            run.failures.append(f"round-trip probe exited {child.code}: {child.output}")
        elif not child.doc["ok"]:
            run.known_defects.append(f"certificate JSON round trip on 3-decimal scores: {child.doc['error']}")

    def iterate(self, run: Run, traced: bool) -> Iteration:
        it = Iteration(outputs=("cert.json", "decisions.csv", "decisions.csv.manifest.json",
                                "report.json", "curve.csv", "curve.json"))
        steps = [
            ("calibrate", ["--calib", "calib.csv", "--alpha", str(ALPHA), "--beta", str(BETA),
                           "--min-count", str(MIN_COUNT), "--out", "cert.json"]),
            ("apply", ["--test", "test.csv", "--cert", "cert.json", "--out", "decisions.csv"]),
            ("evaluate", ["--test", "test.csv", "--decisions", "decisions.csv", "--cert", "cert.json",
                          "--out", "report.json", *(["--group"] if self.grouped else [])]),
            ("tradeoff", ["--test", "test.csv", "--out-prefix", "curve"]),
        ]
        for step, args in steps:
            child = run.cli(step, args, traced)
            it.children.append(child)
            it.wall += child.wall - child.probe_seconds()
            if step != "calibrate":
                it.item_seconds += child.wall - child.probe_seconds()
            if child.code != 0:
                return it
        it.items = self.n_test
        return it

    def check(self, run: Run) -> None:
        doc = json.loads(run.path("cert.json").read_text())
        failures, lambda_hat, knife = oracles.check_certificate(doc, *self.calib, ALPHA, BETA, MIN_COUNT)
        run.op(not failures, "; ".join(failures))
        run.notes.append(f"oracle lambda_hat {lambda_hat!r}, {len(doc['grid'])} grid points, "
                         f"{knife} knife-edge points within {oracles.KNIFE_EDGE:g} of alpha")
        if lambda_hat is None:
            run.op(False, "certificate is infeasible; decisions cannot be checked")
            return
        ids, scores, labels, groups = inputs.read_dataset(run.path("test.csv"))
        cols = inputs.read_csv(run.path("decisions.csv"))
        failures = oracles.check_decisions(cols, ids, scores, lambda_hat)
        run.op(not failures, "; ".join(failures))
        report = json.loads(run.path("report.json").read_text())
        failures = oracles.check_report(report, scores, labels, lambda_hat, groups if self.grouped else None)
        run.op(not failures, "; ".join(failures))
        failures = oracles.check_curve(json.loads(run.path("curve.json").read_text()), scores)
        run.op(not failures, "; ".join(failures))

    def extras(self, run: Run, traced: Iteration) -> list[Child]:
        return bound_solve(run, traced.step(self.certifier))


class Simulate(Workload):
    """selcert simulate, 300 trials of 500 calibration and 2000 test records."""

    item = "trials"
    certifier = "simulate"

    def prepare(self, run: Run) -> None:
        self.params = dict(SIMULATION, seed=run.seed)

    def iterate(self, run: Run, traced: bool) -> Iteration:
        p = self.params
        args = ["--trials", str(p["trials"]), "--n-calib", str(p["n_calib"]), "--n-test", str(p["n_test"]),
                "--alpha", str(p["alpha"]), "--beta", str(p["beta"]), "--min-count", str(p["min_count"]),
                "--seed", str(p["seed"]), "--out-prefix", "mc"]
        child = run.cli("simulate", args, traced)
        wall = child.wall - child.probe_seconds()
        done = p["trials"] if child.code == 0 else 0
        return Iteration(wall=wall, items=done, item_seconds=wall, children=[child], outputs=("mc.csv", "mc.json"))

    def check(self, run: Run) -> None:
        failures = oracles.check_simulation(json.loads(run.path("mc.json").read_text()), self.params)
        run.op(not failures, "; ".join(failures))

    def extras(self, run: Run, traced: Iteration) -> list[Child]:
        params = json.dumps(self.params)
        replay = run.spawn("replay", ["replay", "--params", params], doc=True)
        threads2 = run.spawn("threads2", ["threads2", "--params", params], doc=True)
        for child in (replay, threads2):
            run.op(child.code == 0, f"{child.label} child exited {child.code}: {child.output}")
        return [*bound_solve(run, traced.step(self.certifier)), replay, threads2]


class Bootstrap(Workload):
    """Paired bootstrap of two scorers at n=2000, pr_auc and roc_auc."""

    item = "resamples"

    def prepare(self, run: Run) -> None:
        rng = inputs.stream(run.seed, 4)
        labels = inputs.labels_for(rng, 2000)
        self.a = inputs.scores_for(rng, labels)
        self.b = inputs.scores_for(rng, labels, inputs.WEAK_POS_SHAPE, inputs.WEAK_NEG_SHAPE)
        self.labels = labels
        inputs.write_csv(run.path("a.csv"), self.a, labels)
        inputs.write_csv(run.path("b.csv"), self.b, labels)

    def iterate(self, run: Run, traced: bool) -> Iteration:
        child = run.spawn("bootstrap", ["bootstrap", "--a", "a.csv", "--b", "b.csv", "--result", "result.json",
                                        "--resamples", str(RESAMPLES), "--seed", str(run.seed)], doc=True)
        it = Iteration(children=[child], outputs=("result.json",))
        if not run.op(child.code == 0 and child.doc is not None,
                      f"bootstrap child exited {child.code}: {child.output}"):
            return it
        calls = [s for s in child.spans if s["name"] == "metrics.bootstrap_significance"]
        it.wall = it.item_seconds = sum(duration(s) for s in calls)
        it.items = sum(s["resamples"] for s in calls)
        return it

    def check(self, run: Run) -> None:
        failures = oracles.check_bootstrap(json.loads(run.path("result.json").read_text()),
                                           self.a, self.b, self.labels, RESAMPLES)
        run.op(not failures, "; ".join(failures))


def bound_solve(run: Run, certifier: Child | None) -> list[Child]:
    """Solve the first certification's (errors, n) pairs cold in a fresh process."""
    if certifier is None or certifier.doc is None or not certifier.doc.get("pairs"):
        return []
    pairs = run.path("pairs.json")
    pairs.write_text(json.dumps({"pairs": certifier.doc["pairs"], "beta": certifier.doc["beta"]}))
    child = run.spawn("binom", ["binom", "--pairs", str(pairs)], doc=True)
    run.op(child.code == 0, f"binom child exited {child.code}: {child.output}")
    return [child]


def make_workload(name: str) -> Workload:
    if name == "certify-dense":
        return Pipeline(n_calib=10_000, n_test=10_000, grouped=False, probe=False)
    if name == "bulk-apply":
        return Pipeline(n_calib=2_000, n_test=100_000, grouped=True, probe=True)
    if name == "simulate-mc":
        return Simulate()
    return Bootstrap()


# ---------------------------------------------------------------------------
# metrics


def layer_metrics(untraced: Iteration, traced: Iteration, extras: list[Child], certifier: str | None) -> dict:
    """Per-layer metrics of one traced repetition; layers the workload never calls read 0."""
    spans = [s for c in traced.children + extras for s in c.spans]
    certify = sorted((s for s in spans if s["name"] == "calibrate.certify_threshold" and s["proc"] == certifier),
                     key=lambda s: s["start"])
    cold = duration(certify[0]) if certify else 0.0
    cache = next((c.doc.get("cache") for c in traced.children if c.label == certifier and c.doc), None) or {}
    bootstrap = {m: sum((duration(s) for s in spans if s["name"] == "metrics.bootstrap_significance"
                         and s.get("metric") == m), 0.0) for m in ("pr_auc", "roc_auc")}

    overhead = 0.0
    for child in traced.children:
        main = [s["id"] for s in child.spans if s["name"] == "cli.main"]
        if main:
            library = sum(duration(s) for s in child.spans if s["parent"] == main[0])
            overhead += child.wall - child.probe_seconds() - library

    def step_wall(step: str) -> float:
        child = untraced.step(step)
        return child.wall if child is not None else 0.0

    return {
        "records.load_dataset_s": total(spans, "records.load_dataset"),
        "records.load_dataset_rows": count(spans, "records.load_dataset", "rows"),
        "records.generate_synthetic_s": total(spans, "records.generate_synthetic", "replay"),
        "records.generate_synthetic_rows": count(spans, "records.generate_synthetic", "rows", "replay"),
        "binom.risk_upper_bound_cold_s": total(spans, "binom.risk_upper_bound_cold"),
        "binom.risk_upper_bound_calls": count(spans, "binom.risk_upper_bound_cold", "calls"),
        "binom.cache_hits": cache.get("hits", 0),
        "binom.cache_misses": cache.get("misses", 0),
        "calibrate.certify_threshold_cold_s": cold,
        "calibrate.certify_threshold_warm_s": total(spans, "probe.certify_threshold_warm"),
        "calibrate.grid_points": sum(s.get("grid_points", 0) for s in certify),
        "calibrate.self_s": cold - certify[0].get("risk_upper_bound_s", 0.0) if certify else 0.0,
        "calibrate.apply_certificate_s": total(spans, "calibrate.apply_certificate"),
        "calibrate.retained_rows": count(spans, "calibrate.apply_certificate", "retained"),
        "calibrate.certificate_json_s": total(spans, "calibrate.certificate_to_json")
        + total(spans, "calibrate.certificate_from_json"),
        "calibrate.decisions_io_s": total(spans, "calibrate.write_decisions")
        + total(spans, "calibrate.read_decisions"),
        "metrics.selective_report_s": total(spans, "metrics.selective_report"),
        "metrics.pr_auc_s": total(spans, "metrics.pr_auc"),
        "metrics.roc_auc_s": total(spans, "metrics.roc_auc"),
        "metrics.bootstrap_pr_auc_s": bootstrap["pr_auc"],
        "metrics.bootstrap_roc_auc_s": bootstrap["roc_auc"],
        "metrics.resamples": count(spans, "metrics.bootstrap_significance", "resamples"),
        "sim.tradeoff_curve_s": total(spans, "sim.tradeoff_curve"),
        "sim.tradeoff_points": count(spans, "sim.tradeoff_curve", "points"),
        "sim.validate_guarantee_s": total(spans, "sim.validate_guarantee"),
        "sim.trials": count(spans, "sim.validate_guarantee", "trials"),
        "sim.trial_generate_s": total(spans, "records.generate_synthetic", "simulate"),
        "sim.trial_certify_s": total(spans, "calibrate.certify_threshold", "simulate"),
        "sim.validate_guarantee_threads2_s": total(spans, "sim.validate_guarantee_threads2"),
        "jsonio.dumps_s": total(spans, "jsonio.dumps"),
        "jsonio.bytes_written": count(spans, "jsonio.dumps", "bytes"),
        "cli.calibrate_s": step_wall("calibrate"),
        "cli.apply_s": step_wall("apply"),
        "cli.evaluate_s": step_wall("evaluate"),
        "cli.tradeoff_s": step_wall("tradeoff"),
        "cli.simulate_s": step_wall("simulate"),
        "cli.overhead_s": overhead,
        "trace.overhead_s": traced.wall - untraced.wall,
    }


def load_benchmark_spec() -> dict:
    return json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def median_metrics(samples: list[dict], spec: list[dict]) -> dict:
    out = {}
    for entry in spec:
        values = [s[entry["name"]] for s in samples]
        value = statistics.median(values)
        if all(isinstance(v, int) for v in values):
            value = int(value)
        out[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return out


# ---------------------------------------------------------------------------
# runner


def check_determinism(run: Run, it: Iteration, first: dict | None) -> dict:
    digests = {name: digest(run.path(name)) for name in it.outputs if run.path(name).exists()}
    if first is not None:
        run.op(digests == first, "output digests differ between repetitions of one seed")
    return digests


def compare_stored_digests(run: Run, digests: dict) -> Path:
    """Same seed and sources must give the digests an earlier run recorded."""
    store = ROOT / ".perfbench" / "digests" / f"{run.workload}-seed{run.seed}-{source_digest()}.json"
    store.parent.mkdir(parents=True, exist_ok=True)
    if store.exists():
        run.op(json.loads(store.read_text()) == digests, f"output digests differ from the earlier run in {store.name}")
    else:
        tmp = store.with_suffix(".tmp")
        tmp.write_text(json.dumps(digests, indent=1, sort_keys=True))
        tmp.replace(store)
    return store


def setup_seconds(run: Run) -> float:
    """Median wall time of a fresh `selcert --version` process."""
    walls = []
    for _ in range(SETUP_PROBES):
        child = run.spawn("version", [sys.executable, "-c", ENTRYPOINT, "--version"])
        run.op(child.code == 0, f"selcert --version exited {child.code}: {child.output}")
        walls.append(child.wall)
    return statistics.median(walls)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = load_benchmark_spec()
    run = Run(name, seed)
    workload = make_workload(name)
    setup = setup_seconds(run)
    workload.prepare(run)
    workload.known_defects(run)

    samples: list[dict] = []
    first_digests = None
    spent = 0.0
    while True:
        started = time.perf_counter()
        untraced = workload.iterate(run, traced=False)
        took = time.perf_counter() - started
        if first_digests is None:
            # untimed; the outputs of later repetitions are compared by digest
            try:
                workload.check(run)
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                run.op(False, f"outputs could not be checked: {exc!r}")
        first_digests = check_determinism(run, untraced, first_digests)
        if trace:
            started = time.perf_counter()
            traced = workload.iterate(run, traced=True)
            extras = workload.extras(run, traced)
            took += time.perf_counter() - started
            check_determinism(run, traced, first_digests)
            samples.append(layer_metrics(untraced, traced, extras, workload.certifier))
        else:
            samples.append({
                "setup_s": setup,
                "wall_s": untraced.wall,
                "items_per_s": untraced.items / untraced.item_seconds if untraced.item_seconds else 0.0,
                "peak_rss_mb": untraced.rss_mb,
            })
            calibrate = untraced.step("calibrate")
            if calibrate is not None:
                samples[-1]["certify_s"] = calibrate.wall
        spent += took
        if spent + took > seconds:
            break
    store = compare_stored_digests(run, first_digests)

    metrics = median_metrics(samples, spec["per_layer" if trace else "end_to_end"])
    write_trace(run)
    result = {"correct": not run.failures, "attempted": run.attempted, "failed": len(run.failures),
              "metrics": metrics}
    report(run, result, samples, store, workload.item if not trace else None)
    return result


def write_trace(run: Run) -> None:
    """Write every span of the run, the runner's and its children's, as JSON lines."""
    run_id = f"{run.workload}-seed{run.seed}-pid{os.getpid()}"
    with open(run.work / "trace.jsonl", "w", encoding="utf-8") as handle:
        for s in run.tracer.spans + run.child_spans:
            handle.write(json.dumps(dict(s, workload=run.workload, run=run_id)) + "\n")


def report(run: Run, result: dict, samples: list[dict], store: Path, item: str | None) -> None:
    """Human-readable lines; the JSON result line follows them.

    Untraced runs also print the workload's own names for items_per_s
    (test_rows_per_s, trials_per_s, resamples_per_s) and certify_s.
    """
    print(f"# {run.workload} seed {run.seed}: {len(samples)} repetition(s), {'untraced' if item else 'traced'}")
    lines = [(name, m["value"], m["unit"]) for name, m in result["metrics"].items()]
    if item:
        lines.append((f"{item}_per_s", statistics.median(s["items_per_s"] for s in samples), f"{item}/s"))
        if "certify_s" in samples[0]:
            lines.append(("certify_s", statistics.median(s["certify_s"] for s in samples), "s"))
    for name, value, unit in lines:
        print(f"{run.workload:14s} {name:40s} {value!r} {unit}")
    failed = len(run.failures) + len(run.known_defects)
    attempted = run.attempted + run.probes
    print(f"{run.workload:14s} {'error_rate':40s} {failed / attempted!r} ratio"
          f" ({failed} of {attempted} operations failed, {len(run.known_defects)} of them known-defect probes)")
    for defect in run.known_defects:
        print(f"known defect: {defect}")
    for failure in run.failures:
        print(f"FAILED: {failure}")
    for note in run.notes:
        print(f"note: {note}")
    print(f"output digests: {store.relative_to(ROOT)}; spans: {(run.work / 'trace.jsonl').relative_to(ROOT)}")


def main() -> int:
    parser = argparse.ArgumentParser(description="selcert end-to-end and per-layer benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "selcert" / "__init__.py").is_file():
        print("error: run from the root of a selcert checkout (src/selcert not found)", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
