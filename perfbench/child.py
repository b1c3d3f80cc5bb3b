"""Child processes of the benchmark runner (run.py).

Each mode imports the package fresh, does one job, and writes a JSON
document (spans plus results) to --out:

  cli        run a `selcert` subcommand with spans around the public
             functions it calls, then re-run its first certification warm
  bootstrap  time bootstrap_significance for pr_auc and roc_auc
  binom      solve risk_upper_bound cold over a list of (errors, n) pairs
  replay     regenerate the simulate trials' data through generate_synthetic
  threads2   run validate_guarantee with max_workers=2
  probe      certify rounded scores and round-trip the certificate via JSON

Usage: python perfbench/child.py cli OUT.json SELCERT-ARGS...
       python perfbench/child.py MODE --out OUT.json [MODE OPTIONS]
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from spans import Tracer


def cache_info() -> dict | None:
    """Bound-solver cache counters, or None when the solver keeps no cache."""
    import selcert.binom as binom

    info = getattr(getattr(binom, "_solve_upper_bound", None), "cache_info", None)
    if info is None:
        return None
    stats = info()
    return {"hits": stats.hits, "misses": stats.misses}


def run_cli(argv: list[str]) -> tuple[int, dict]:
    import selcert.calibrate as calibrate
    import selcert.cli as cli
    import selcert.metrics as metrics
    import selcert.sim as sim

    tracer = Tracer("cli")
    first: dict = {}
    certify = calibrate.certify_threshold

    def certified(args, cert):
        if not first:
            first.update(data=args[0], config=args[1],
                         pairs=[[pt.errors_at, pt.n_at] for pt in cert.grid])
        return {"grid_points": len(cert.grid)}

    rows = lambda args, data: {"rows": len(data)}  # noqa: E731
    wraps = [
        (cli, "load_dataset", "records.load_dataset", rows),
        (cli, "certify_threshold", "calibrate.certify_threshold", certified),
        (sim, "certify_threshold", "calibrate.certify_threshold", certified),
        (cli, "certificate_to_json", "calibrate.certificate_to_json", None),
        (cli, "load_certificate", "calibrate.load_certificate", None),
        (calibrate, "certificate_from_json", "calibrate.certificate_from_json", None),
        (cli, "apply_certificate", "calibrate.apply_certificate",
         lambda args, ds: {"retained": sum(1 for d in ds if d.retained)}),
        (cli, "write_decisions", "calibrate.write_decisions", None),
        (cli, "read_decisions", "calibrate.read_decisions", None),
        (cli, "retain_rate", "calibrate.retain_rate", None),
        (cli, "selective_report", "metrics.selective_report", None),
        (metrics, "pr_auc", "metrics.pr_auc", None),
        (metrics, "roc_auc", "metrics.roc_auc", None),
        (cli, "report_to_doc", "metrics.report_to_doc", None),
        (cli, "tradeoff_curve", "sim.tradeoff_curve", lambda args, c: {"points": len(c.points)}),
        (cli, "curve_to_csv_text", "sim.curve_to_csv_text", None),
        (cli, "curve_to_doc", "sim.curve_to_doc", None),
        (cli, "validate_guarantee", "sim.validate_guarantee", lambda args, ts: {"trials": len(ts)}),
        (sim, "generate_synthetic", "records.generate_synthetic", rows),
        (cli, "summarize_trials", "sim.summarize_trials", None),
        (cli, "trials_to_csv_text", "sim.trials_to_csv_text", None),
        (cli, "trials_to_doc", "sim.trials_to_doc", None),
        (cli, "dumps", "jsonio.dumps", lambda args, text: {"bytes": len(text.encode())}),
        (calibrate, "json_dumps", "jsonio.dumps", lambda args, text: {"bytes": len(text.encode())}),
    ]
    for module, attr, name, counts in wraps:
        tracer.wrap(module, attr, name, counts)
    # the bound solve inside each certification, for the certifier's self time
    tracer.tally(calibrate, "risk_upper_bound", "risk_upper_bound")

    with tracer.span("cli.main"):
        code = cli.main(argv)
    doc = {"code": code, "cache": cache_info(), "pairs": first.get("pairs")}
    if first:
        doc["beta"] = first["config"].beta
        with tracer.span("probe.certify_threshold_warm"):
            certify(first["data"], first["config"])
    doc["spans"] = tracer.spans
    return code, doc


def run_bootstrap(opts) -> tuple[int, dict]:
    from selcert import bootstrap_significance, load_dataset

    tracer = Tracer("bootstrap")
    with tracer.span("records.load_dataset") as span:
        a = load_dataset(opts.a)
        b = load_dataset(opts.b)
        span["rows"] = len(a) + len(b)
    result = {}
    for metric in ("pr_auc", "roc_auc"):
        with tracer.span("metrics.bootstrap_significance", metric=metric) as span:
            sig = bootstrap_significance(a, b, metric, resamples=opts.resamples, seed=opts.seed)
            span["resamples"] = sig.resamples
        result[metric] = {"delta": sig.delta, "p_value": sig.p_value, "resamples": sig.resamples}
    # deterministic output file (digested by the runner); timings stay in --out
    Path(opts.result).write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    return 0, {"result": result, "spans": tracer.spans}


def run_binom(opts) -> tuple[int, dict]:
    from selcert import BinomialTail, risk_upper_bound

    source = json.loads(Path(opts.pairs).read_text(encoding="utf-8"))
    tracer = Tracer("binom")
    with tracer.span("binom.risk_upper_bound_cold", calls=len(source["pairs"])):
        for k, n in source["pairs"]:
            risk_upper_bound(BinomialTail(k, n), source["beta"])
    return 0, {"spans": tracer.spans}


def _simulation(params: dict):
    from selcert import RiskConfig, SyntheticScorerSpec

    spec = SyntheticScorerSpec(n=1, prevalence=params["prevalence"], pos_shape=params["pos_shape"],
                               neg_shape=params["neg_shape"], seed=0)
    config = RiskConfig(alpha=params["alpha"], beta=params["beta"], min_count=params["min_count"])
    return spec, config


def run_replay(opts) -> tuple[int, dict]:
    from selcert import generate_synthetic, substream_seed

    params = json.loads(opts.params)
    spec, _ = _simulation(params)
    tracer = Tracer("replay")
    for t in range(params["trials"]):
        trial_seed = substream_seed(params["seed"], t)
        for index, n in ((1, params["n_calib"]), (2, params["n_test"])):
            with tracer.span("records.generate_synthetic") as span:
                data = generate_synthetic(replace(spec, n=n, seed=substream_seed(trial_seed, index)))
                span["rows"] = len(data)
    return 0, {"spans": tracer.spans}


def run_threads2(opts) -> tuple[int, dict]:
    from selcert import validate_guarantee

    params = json.loads(opts.params)
    spec, config = _simulation(params)
    tracer = Tracer("threads2")
    with tracer.span("sim.validate_guarantee_threads2"):
        validate_guarantee(spec, config, trials=params["trials"], n_calib=params["n_calib"],
                           n_test=params["n_test"], seed=params["seed"], max_workers=2)
    return 0, {"spans": tracer.spans}


def run_probe(opts) -> tuple[int, dict]:
    """Known-defect probe: a certificate on 3-decimal scores must survive JSON."""
    from selcert import (RiskConfig, certificate_from_json, certificate_to_json,
                         certify_threshold, load_dataset)

    config = RiskConfig(alpha=opts.alpha, beta=opts.beta, min_count=opts.min_count)
    cert = certify_threshold(load_dataset(opts.calib), config)
    try:
        back = certificate_from_json(certificate_to_json(cert))
    except Exception as exc:  # the probe reports whatever the round trip raises
        return 0, {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
    if back.lambda_hat != cert.lambda_hat or [p.lam for p in back.grid] != [p.lam for p in cert.grid]:
        return 0, {"ok": False, "error": "round trip changed lambda_hat or the grid thresholds"}
    return 0, {"ok": True, "error": None}


def main() -> int:
    if sys.argv[1:2] == ["cli"]:
        # the selcert arguments pass through untouched, so they are not parsed here
        out, argv = sys.argv[2], sys.argv[3:]
        code, doc = run_cli(argv)
        return finish(out, code, doc)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["bootstrap", "binom", "replay", "threads2", "probe"])
    parser.add_argument("--out", required=True)
    parser.add_argument("--a")
    parser.add_argument("--b")
    parser.add_argument("--result")
    parser.add_argument("--resamples", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--pairs")
    parser.add_argument("--params")
    parser.add_argument("--calib")
    parser.add_argument("--alpha", type=float)
    parser.add_argument("--beta", type=float)
    parser.add_argument("--min-count", type=int)
    opts = parser.parse_args()
    runner = {"bootstrap": run_bootstrap, "binom": run_binom, "replay": run_replay,
              "threads2": run_threads2, "probe": run_probe}[opts.mode]
    code, doc = runner(opts)
    return finish(opts.out, code, doc)


def finish(out: str, code: int, doc: dict) -> int:
    Path(out).write_text(json.dumps(doc), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
