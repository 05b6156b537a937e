"""Command-line front end: dimension reports, verification suites, experiments.

Exit codes: 0 success, 1 input error, 2 verification/assertion failure.
Reports are deterministic for a fixed config and seed: keys are sorted, no
timestamps are embedded, and every report echoes the fully resolved config.
Reports are strict JSON: one holding a NaN or infinity is not written, and the
run exits 1.
Every report carries `"workers": 1`: fracmax runs serially, and the field
stays for readers of earlier reports.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import dilation_sets as ds
from . import maximal_lab as ml
from . import verify as vf
from .wire import integer, number, object_field, tuple_of

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


class InputError(Exception):
    """Input-level failure carrying a message for stderr; maps to exit code 1."""


def _dump(payload: dict) -> str:
    """Strict JSON: a NaN or infinity in the report is an input error, and no report is written."""
    try:
        return json.dumps(payload, sort_keys=True, indent=2, default=_np_default, allow_nan=False) + "\n"
    except ValueError as exc:
        raise InputError(f"report holds a non-finite number: {exc}")


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read config: {exc}")
    try:
        spec = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"config parse error at line {exc.lineno} column {exc.colno}: {exc.msg}")
    if not isinstance(spec, dict):
        raise InputError(f"config must be a JSON object, got {type(spec).__name__}")
    return spec


# ---------------------------------------------------------------------------
# dim


DIM_METHODS = ("kappa", "minkowski", "distance_integral", "gap_sum")
INPUT_ERRORS = (KeyError, ValueError, TypeError, OverflowError)


def cmd_dim(args) -> int:
    spec = _load_config(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # every field is read and checked before any work starts
    try:
        E = ds.DilationSet.from_json(spec["set"])
        sched_spec = object_field(spec, "schedule")
        sched = ds.geometric_schedule(
            number(sched_spec.get("delta_max", 0.07)),
            number(sched_spec.get("delta_min", 0.7e-6)),
            integer(sched_spec.get("count", 9)),
        )
        if sched.size < 4:
            raise ValueError(f"schedule.count must be at least 4, got {sched.size}")
        j = integer(spec.get("j", 0))
        if abs(j) > ds.MAX_BLOCK_INDEX:
            raise ValueError(f"block index j must lie within +-{ds.MAX_BLOCK_INDEX}, got {j}")
        j_range = ds.block_range(spec.get("j_range", [-2, 3]))
        methods = spec.get("methods", ["kappa", "minkowski"])
        if not isinstance(methods, list) or not all(m in DIM_METHODS for m in methods):
            raise ValueError(f"methods must be a list drawn from {', '.join(DIM_METHODS)}, got {methods!r}")
        if "gap_sum" in methods and not isinstance(E.generator, ds.PowerSequence):
            raise ValueError("gap_sum method needs a power-sequence generator")
        expect = object_field(spec, "expect")
        if expect:
            if expect.get("method") not in methods:
                raise ValueError(f"expect.method {expect.get('method')!r} is not among the methods {methods}")
            target, tol = number(expect["value"]), number(expect.get("tol", 0.05))
        bound_spec = object_field(spec, "bound_check")
        exponents = tuple_of(number)(bound_spec.get("exponents", []))
        if not all(0 < a < 1 for a in exponents):
            raise ValueError(f"bound_check exponents must lie in (0, 1), got {list(exponents)}")
        bound_constant = number(bound_spec.get("constant", 10.0))
        # 0 is a valid exponent: only a missing or null field falls back to the estimate
        table_a = None if spec.get("table_exponent") is None else number(spec["table_exponent"])
        if table_a is not None and not 0 <= table_a <= 1:
            raise ValueError(f"table_exponent must lie in [0, 1], got {table_a}")
        block = ds.rescaled_block(E, j)
    except INPUT_ERRORS as exc:
        raise InputError(f"bad dim config: {exc}")
    if block.empty and not block.tails:
        raise InputError(f"block {j} of the set is empty")

    results: dict = {}
    failures = []
    for method in methods:
        if method == "kappa":
            try:
                est = ds.kappa(E, sched, j_range)
            except ValueError as exc:  # every block of j_range is empty
                raise InputError(f"bad dim config: {exc}")
        elif method == "minkowski":
            est = ds.minkowski_dimension(block, sched)
        elif method == "distance_integral":
            est = ds.dimension_from_distance_integral(block)
        else:
            est = ds.dimension_from_gap_sums(E.generator.sequence)
        results[method] = asdict(est)

    for a in exponents:
        report = ds.dimension_bound_check(block, a, sched, bound_constant)
        results.setdefault("bound_checks", []).append(asdict(report))
        if not report.passed:
            failures.append(f"bound check a={a}")

    if expect:
        est_value = results[expect["method"]]["value"]
        ok = abs(est_value - target) <= tol
        results["expectation"] = {"target": expect, "value": est_value, "passed": ok}
        if not ok:
            failures.append("expectation")

    if table_a is None:
        table_a = float(results.get("minkowski", results.get("kappa", {"value": 0.5}))["value"])
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
        "suites": [asdict(r) | {"all_passed": r.all_passed} for r in reports],
    }
    (out / "verify_report.json").write_text(_dump(aggregate))
    for report in reports:
        for check in report.checks:
            status = "pass" if check.passed else "FAIL"
            print(f"[{status}] {report.suite}.{check.name}: {check.measured:.6g} ({check.criterion})")
    return EXIT_OK if aggregate["all_passed"] else EXIT_FAILED


# ---------------------------------------------------------------------------
# experiment


def cmd_experiment(args) -> int:
    spec = _load_config(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    kind = spec.get("kind")
    # every field is read and checked before any work starts
    try:
        payload = dict(spec["config"])
        payload.setdefault("seed", args.seed)
        config = ml.config_from_json(payload)
        if kind == "halfwave":
            hw_alpha, hw_beta = number(spec.get("hw_alpha", 0.5)), number(spec.get("hw_beta", 0.4))
            t_min, t_max = number(spec.get("t_min", 1.0 / 40)), number(spec.get("t_max", 0.35))
            if not (0 < hw_alpha < 1 and hw_beta < 1 and 0 < t_min < t_max):
                raise ValueError("need 0 < hw_alpha < 1, hw_beta < 1 and 0 < t_min < t_max")
        elif kind == "probe":
            trials = integer(spec.get("trials", 3))
            regularity_grid = tuple_of(number)(spec.get("regularity_grid", []))
    except INPUT_ERRORS as exc:
        raise InputError(f"bad experiment config: {exc}")
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
        try:
            times = ml.halfwave_times(config.E, t_min, t_max)
            report = ml.halfwave_convergence(config.build_f(), hw_alpha, hw_beta, times)
        except ValueError as exc:
            raise InputError(str(exc))
        results = {"beta_fit": report.beta_fit, "n_times": len(report.times)}
        checks.append({"name": "rate_at_least_beta_minus_point_one", "passed": report.beta_fit >= hw_beta - 0.1})
        rows = ["t,sup_difference"]
        rows += [f"{repr(t)},{repr(d)}" for t, d in zip(report.times, report.sup_differences)]
        (out / "rates.csv").write_text("\n".join(rows) + "\n")
    elif kind == "probe":
        try:
            report = ml.operator_norm_probe(config, trials=trials, regularity_grid=regularity_grid)
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
