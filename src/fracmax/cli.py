"""Command-line front end: dimension reports, verification suites, experiments.

Exit codes: 0 success, 1 input error, 2 verification/assertion failure.
Reports are deterministic for a fixed config and seed: keys are sorted, no
timestamps are embedded, and every report echoes the fully resolved config.
Every report carries `"workers": 1`: fracmax runs serially, and the field
stays for readers of earlier reports.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import dilation_sets as ds
from . import maximal_lab as ml
from . import verify as vf

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_FAILED = 2


def _np_default(obj):
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _dump(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, default=_np_default) + "\n"


class InputError(Exception):
    """Input-level failure carrying a message for stderr; maps to exit code 1."""


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read config: {exc}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"config parse error at line {exc.lineno} column {exc.colno}: {exc.msg}")


# ---------------------------------------------------------------------------
# dim


def cmd_dim(args) -> int:
    spec = _load_config(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        E = ds.DilationSet.from_json(spec["set"])
    except (KeyError, ValueError, TypeError) as exc:
        raise InputError(f"bad set description: {exc}")
    sched_spec = spec.get("schedule", {})
    try:
        sched = ds.geometric_schedule(
            float(sched_spec.get("delta_max", 0.07)),
            float(sched_spec.get("delta_min", 0.7e-6)),
            int(sched_spec.get("count", 9)),
        )
        j = int(spec.get("j", 0))
    except (ValueError, TypeError) as exc:
        raise InputError(f"bad schedule or block index: {exc}")
    j_range = tuple(spec.get("j_range", (-2, 3)))
    methods = spec.get("methods", ["kappa", "minkowski"])
    expect = spec.get("expect")
    if expect and expect.get("method") not in methods:
        raise InputError(f"expect.method {expect.get('method')!r} is not among the methods {methods}")
    block = ds.rescaled_block(E, j)
    if block.empty and not block.tails:
        raise InputError(f"block {j} of the set is empty")

    results: dict = {}
    failures = []
    for method in methods:
        if method == "kappa":
            est = ds.kappa(E, sched, j_range)
        elif method == "minkowski":
            est = ds.minkowski_dimension(block, sched)
        elif method == "distance_integral":
            est = ds.dimension_from_distance_integral(block)
        elif method == "gap_sum":
            if not isinstance(E.generator, ds.PowerSequence):
                raise InputError("gap_sum method needs a power-sequence generator")
            est = ds.dimension_from_gap_sums(E.generator.sequence)
        else:
            raise InputError(f"unknown method {method!r}")
        results[method] = json.loads(est.to_json())

    for check_spec in spec.get("bound_check", {}).get("exponents", []):
        a = float(check_spec)
        report = ds.dimension_bound_check(
            block, a, sched, float(spec.get("bound_check", {}).get("constant", 10.0))
        )
        results.setdefault("bound_checks", []).append(
            {
                "a": a,
                "lhs": report.lhs,
                "mid": report.mid,
                "rhs": report.rhs,
                "ratio_left": report.ratio_left,
                "ratio_right": report.ratio_right,
                "passed": report.passed,
            }
        )
        if not report.passed:
            failures.append(f"bound check a={a}")

    if expect:
        est_value = results[expect["method"]]["value"]
        ok = abs(est_value - float(expect["value"])) <= float(expect.get("tol", 0.05))
        results["expectation"] = {"target": expect, "value": est_value, "passed": ok}
        if not ok:
            failures.append("expectation")

    table_a = float(spec.get("table_exponent") or results.get("minkowski", results.get("kappa", {"value": 0.5}))["value"])
    rows = ["delta,count,delta_pow_a_count"]
    for delta in sched:
        count = ds.entropy_number(block, float(delta))
        rows.append(f"{repr(float(delta))},{count},{repr(float(delta**table_a * count))}")
    (out / "counts.csv").write_text("\n".join(rows) + "\n")

    report_payload = {
        "config": spec,
        "seed": args.seed,
        "workers": 1,
        "results": results,
        "failures": failures,
    }
    (out / "dim_report.json").write_text(_dump(report_payload))
    return EXIT_FAILED if failures else EXIT_OK


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.suite == "all":
        reports = vf.run_all(args.seed)
    else:
        try:
            reports = [vf.run_suite(args.suite, args.seed)]
        except KeyError as exc:
            raise InputError(str(exc.args[0]))
    aggregate = {
        "seed": args.seed,
        "workers": 1,
        "all_passed": all(r.all_passed for r in reports),
        "suites": [json.loads(r.to_json()) for r in reports],
    }
    (out / "verify_report.json").write_text(_dump(aggregate))
    for report in reports:
        for check in report.checks:
            status = "pass" if check.passed else "FAIL"
            print(f"[{status}] {report.suite}.{check.name}: {check.measured:.6g} ({check.criterion})")
    return EXIT_OK if aggregate["all_passed"] else EXIT_FAILED


# ---------------------------------------------------------------------------
# experiment


def _experiment_config(spec: dict, seed: int) -> ml.ExperimentConfig:
    try:
        payload = dict(spec["config"])
        payload.setdefault("seed", seed)
        return ml.config_from_json(payload)
    except (KeyError, ValueError, TypeError) as exc:
        raise InputError(f"bad experiment config: {exc}")


def cmd_experiment(args) -> int:
    spec = _load_config(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    kind = spec.get("kind")
    config = _experiment_config(spec, args.seed)
    checks = []
    results: dict = {}
    if kind == "domination":
        report = ml.domination_ratio(config)
        kappa_est = config.kappa_estimate()
        results = {
            "max_ratio": report.max_ratio,
            "refined_ratio": report.refined_ratio,
            "relative_change": report.relative_change,
            "excluded_pixels": report.excluded_pixels,
            "flagged_pixels": report.flagged_pixels,
            "maximal_increment": report.maximal_increment,
            "kappa_estimate": kappa_est,
        }
        checks.append({"name": "ratio_stable_under_refinement", "passed": report.stable})
        checks.append({"name": "beta_above_half_kappa", "passed": config.beta > kappa_est / 2.0})
        (out / "ratio_histogram.csv").write_text(report.histogram())
        rows = ["j,band_sup_norm"]
        for j in range(config.j_range[0], config.j_range[1] + 1):
            rows.append(f"{j},{repr(ml.band_sup_norm(config.m, j))}")
        (out / "band_norms.csv").write_text("\n".join(rows) + "\n")
    elif kind == "halfwave":
        hw_alpha = float(spec.get("hw_alpha", 0.5))
        hw_beta = float(spec.get("hw_beta", 0.4))
        t_min, t_max = float(spec.get("t_min", 1.0 / 40)), float(spec.get("t_max", 0.35))
        try:
            times = ml.halfwave_times(config.E, t_min, t_max)
        except ValueError as exc:
            raise InputError(str(exc))
        f = config.build_f()
        report = ml.halfwave_convergence(f, hw_alpha, hw_beta, times)
        results = {"beta_fit": report.beta_fit, "n_times": len(report.times)}
        checks.append({"name": "rate_at_least_beta_minus_point_one", "passed": report.beta_fit >= hw_beta - 0.1})
        rows = ["t,sup_difference"]
        rows += [f"{repr(t)},{repr(d)}" for t, d in zip(report.times, report.sup_differences)]
        (out / "rates.csv").write_text("\n".join(rows) + "\n")
    elif kind == "probe":
        try:
            report = ml.operator_norm_probe(
                config,
                trials=int(spec.get("trials", 3)),
                regularity_grid=tuple(spec.get("regularity_grid", ())),
            )
        except ValueError as exc:
            raise InputError(str(exc))
        results = {
            "lower_bound": report.lower_bound,
            "per_trial": list(map(list, report.per_trial)),
            "regularity_sweep": list(map(list, report.regularity_sweep)),
        }
        rows = ["trial,lp_norm"] + [f"{name},{repr(v)}" for name, v in report.per_trial]
        (out / "trials.csv").write_text("\n".join(rows) + "\n")
    else:
        raise InputError(f"unknown experiment kind {kind!r}")

    payload = {
        "kind": kind,
        "config": ml.config_to_json(config),
        "seed": args.seed,
        "workers": 1,
        "results": results,
        "checks": checks,
    }
    (out / "experiment_report.json").write_text(_dump(payload))
    return EXIT_OK if all(c["passed"] for c in checks) else EXIT_FAILED


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracmax",
        description="Numerical laboratory for maximal Fourier multipliers over fractal dilation sets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    dim = sub.add_parser("dim", help="dimension-theoretic reports for a dilation set")
    dim.add_argument("--config", required=True, help="JSON config naming the set and methods")
    dim.add_argument("--out", default="out", help="output directory")
    dim.add_argument("--seed", type=int, default=0)
    dim.set_defaults(handler=cmd_dim)

    ver = sub.add_parser("verify", help="run a named invariant suite")
    ver.add_argument("--suite", default="all", help="dimension|fraccalc|frames|multipliers|maximal|all")
    ver.add_argument("--out", default="out", help="output directory")
    ver.add_argument("--seed", type=int, default=0)
    ver.set_defaults(handler=cmd_verify)

    exp = sub.add_parser("experiment", help="run a maximal-operator experiment")
    exp.add_argument("--config", required=True, help="JSON experiment description")
    exp.add_argument("--out", default="out", help="output directory")
    exp.add_argument("--seed", type=int, default=0)
    exp.set_defaults(handler=cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
