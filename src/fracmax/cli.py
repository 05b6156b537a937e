"""Command-line front end: dimension reports, verification suites, experiments.

`COMMANDS` declares the subcommands, and `PARSER` is built from it once.  A
command returns its encoded files, exit code, stdout and stderr; `main` alone
creates `--out`, writes and prints, so a run that exits 1 writes no file.
Exit codes: 0 success, 1 input error, 2 verification/assertion failure.
Reports are deterministic for a fixed config and seed: keys are sorted and no
timestamps are embedded.  A dim report echoes its config as given.  An
experiment report echoes the fields its kind reads, resolved, in the layout of
the config file, so the echo runs as a config again.  Both name the config
fields they ignore on one `note:` line on stderr, outside the report.
Reports are strict JSON: one holding a NaN or infinity is not written, and the
run exits 1.
Every report carries `"workers": 1`: fracmax runs serially, and the field
stays for readers of earlier reports.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import dilation_sets as ds
from . import maximal_lab as ml
from . import verify as vf
from .multipliers import band_memo
from .wire import from_wire, integer, number, object_field, optional, to_wire, tuple_of, wire

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_FAILED = 2
Outcome = tuple[dict[str, str], int, str, str]  # a command's file name -> text, exit code, stdout, stderr


class InputError(Exception):
    """Input-level failure carrying a message for stderr; maps to exit code 1."""


def _dump(payload: dict) -> str:
    """Strict JSON: a NaN or infinity in the report is an input error, and no report is written."""
    try:
        return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise InputError(f"report holds a non-finite number: {exc}")
    except TypeError as exc:  # a value JSON has no form for
        raise InputError(f"report holds a non-JSON value: {exc}")


def _load_config(path: str):  # any JSON value: the command's codec checks that it is an object
    try:
        text = Path(path).read_text(encoding="utf-8-sig")  # a leading byte-order mark is skipped
    except OSError as exc:
        raise InputError(f"cannot read config: {exc}")
    except UnicodeDecodeError as exc:
        raise InputError(f"config parse error: {exc}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"config parse error at line {exc.lineno} column {exc.colno}: {exc.msg}")
    except (ValueError, RecursionError) as exc:  # an integer past the int-string digit limit, or deep nesting
        raise InputError(f"config parse error: {exc}")


def _unread(spec: dict, echo: dict, prefix: str = ""):
    """Dotted paths of the keys of a config that its resolved echo lacks: the fields the run ignored."""
    for key, value in spec.items():
        if key not in echo:
            yield prefix + key
        elif isinstance(value, dict) and isinstance(echo[key], dict):
            yield from _unread(value, echo[key], f"{prefix}{key}.")


def _note(name: str, spec: dict, echo: dict) -> str:
    """The stderr line naming the config fields a run ignored, or "" if it read them all."""
    ignored = ", ".join(_unread(spec, echo))
    return f"note: {name} ignores config fields: {ignored}\n" if ignored else ""


# ---------------------------------------------------------------------------
# dim


# the slope fit reads the last four scales; 64 scales bound the covering-count work
MAX_SCHEDULE_COUNT = 64
INPUT_ERRORS = (KeyError, ValueError, TypeError, OverflowError)
# method -> its estimate from (config, block j); `ds.` is read per call, so a traced run sees the call
DIM_METHODS = {
    "kappa": lambda config, block: ds.kappa(config.set, config.schedule, config.j_range),
    "minkowski": lambda config, block: ds.minkowski_dimension(block, config.schedule),
    "distance_integral": lambda config, block: ds.dimension_from_distance_integral(block),
    "gap_sum": lambda config, block: ds.dimension_from_gap_sums(config.set.generator.sequence),
}


@dataclass(frozen=True, kw_only=True)
class DimConfig:
    """The fields of a dim config; `methods` and `expect.method` are read as given and checked here."""

    set: ds.DilationSet = wire(ds.DilationSet.from_json)
    count: int = wire(integer, "schedule.count", default=9)
    delta_max: float = wire(number, "schedule.delta_max", default=0.07)
    delta_min: float = wire(number, "schedule.delta_min", default=0.7e-6)
    j: int = wire(integer, default=0)
    j_range: tuple[int, int] = wire(ds.block_range, default=(-2, 3))
    methods: tuple[str, ...] = wire(lambda value: value, default=("kappa", "minkowski"))
    expect_method: str | None = wire(lambda value: value, "expect.method", default=None)
    target: float | None = wire(optional(number), "expect.value", default=None)  # None: no expectation
    tol: float = wire(number, "expect.tol", default=0.05)
    exponents: tuple[float, ...] = wire(tuple_of(number), "bound_check.exponents", default=())
    constant: float = wire(number, "bound_check.constant", default=10.0)
    table_exponent: float | None = wire(optional(number), default=None)  # 0 is valid; None means the estimate
    schedule: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 4 <= self.count <= MAX_SCHEDULE_COUNT:
            raise ValueError(f"schedule.count must lie in 4..{MAX_SCHEDULE_COUNT}, got {self.count}")
        object.__setattr__(self, "schedule", ds.geometric_schedule(self.delta_max, self.delta_min, self.count))
        if abs(self.j) > ds.MAX_BLOCK_INDEX:
            raise ValueError(f"block index j must lie within +-{ds.MAX_BLOCK_INDEX}, got {self.j}")
        if not isinstance(self.methods, (list, tuple)) or not all(m in DIM_METHODS for m in self.methods):
            raise ValueError(f"methods must be a list drawn from {', '.join(DIM_METHODS)}, got {self.methods!r}")
        object.__setattr__(self, "methods", tuple(self.methods))
        if "gap_sum" in self.methods and not isinstance(self.set.generator, ds.PowerSequence):
            raise ValueError("gap_sum method needs a power-sequence generator")
        if (self.expect_method, self.target) != (None, None):
            if self.expect_method not in self.methods:
                raise ValueError(f"expect.method {self.expect_method!r} is not among the methods {list(self.methods)}")
            if self.target is None:
                raise KeyError("expect.value")
        if not all(0 < a < 1 for a in self.exponents):
            raise ValueError(f"bound_check.exponents must lie in (0, 1), got {list(self.exponents)}")
        if self.table_exponent is not None and not 0 <= self.table_exponent <= 1:
            raise ValueError(f"table_exponent must lie in [0, 1], got {self.table_exponent}")


def cmd_dim(args) -> Outcome:
    spec = _load_config(args.config)
    try:  # every field is read and checked before any work starts
        config = from_wire(DimConfig, spec)
        block = ds.rescaled_block(config.set, config.j)
    except INPUT_ERRORS as exc:
        raise InputError(f"bad dim config: {exc}")
    if block.empty and not block.tails:
        raise InputError(f"block {config.j} of the set is empty")

    counts = [ds.entropy_number(block, float(d)) for d in config.schedule]  # the block keeps them for the slope fits
    try:
        results = {method: asdict(DIM_METHODS[method](config, block)) for method in config.methods}
    except ValueError as exc:  # kappa over a j_range whose blocks are all empty
        raise InputError(f"bad dim config: {exc}")

    reports = config.exponents and ds.dimension_bound_check(block, config.exponents, config.schedule, config.constant)
    if reports:
        results["bound_checks"] = [asdict(r) for r in reports]
    failures = [f"bound check a={r.a}" for r in reports if not r.passed]

    if config.target is not None:
        est_value = results[config.expect_method]["value"]
        ok = abs(est_value - config.target) <= config.tol
        results["expectation"] = {"target": spec["expect"], "value": est_value, "passed": ok}
        if not ok:
            failures.append("expectation")

    table_a = config.table_exponent
    if table_a is None:
        table_a = float(results.get("minkowski", results.get("kappa", {"value": 0.5}))["value"])
    rows = [f"{repr(float(d))},{n},{repr(float(d**table_a * n))}" for d, n in zip(config.schedule, counts)]
    report = {"config": spec, "seed": args.seed, "workers": 1, "results": results, "failures": failures}
    files = {"counts.csv": ml.csv_text("delta,count,delta_pow_a_count", rows), "dim_report.json": _dump(report)}
    return files, EXIT_FAILED if failures else EXIT_OK, "", _note("dim", spec, to_wire(config))


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> Outcome:
    names = vf.SUITES if args.suite == "all" else [args.suite]
    with band_memo():  # the suites share band norms within this run only
        try:
            reports = [vf.run_suite(name, args.seed) for name in names]
        except KeyError as exc:
            raise InputError(str(exc.args[0]))
    passed = all(r.all_passed for r in reports)
    suites = [asdict(r) | {"all_passed": r.all_passed} for r in reports]
    report = {"seed": args.seed, "workers": 1, "all_passed": passed, "suites": suites}
    lines = "".join(f"[{'pass' if c.passed else 'FAIL'}] {r.suite}.{c.name}: {c.measured:.6g} ({c.criterion})\n"
                    for r in reports for c in r.checks)
    return {"verify_report.json": _dump(report)}, EXIT_OK if passed else EXIT_FAILED, lines, ""


# ---------------------------------------------------------------------------
# experiment


def cmd_experiment(args) -> Outcome:
    spec = _load_config(args.config)
    # every field is read and checked before any work starts; --seed fills a missing config.seed
    try:
        experiment = ml.EXPERIMENTS.from_json(dict(spec, config={"seed": args.seed, **object_field(spec, "config")}))
    except INPUT_ERRORS as exc:
        raise InputError(f"bad experiment config: {exc}")
    try:
        results, checks, files = experiment.run()
    except ValueError as exc:  # an input the run cannot use: an empty window, a vanishing f, too few times
        raise InputError(str(exc))
    echo = ml.EXPERIMENTS.to_json(experiment)
    report = {"kind": spec["kind"], "config": echo, "seed": args.seed, "workers": 1}
    report.update(results=results, checks=checks)
    code = EXIT_OK if all(c["passed"] for c in checks) else EXIT_FAILED
    return files | {"experiment_report.json": _dump(report)}, code, "", _note(spec["kind"], spec, echo)


# ---------------------------------------------------------------------------

# command -> (handler, help, the option it takes besides --out and --seed, that option's settings)
COMMANDS = {
    "dim": (cmd_dim, "dimension-theoretic reports for a dilation set",
            "--config", {"required": True, "help": "JSON config naming the set and methods"}),
    "verify": (cmd_verify, "run a named invariant suite",
               "--suite", {"default": "all", "help": "dimension|fraccalc|frames|multipliers|maximal|all"}),
    "experiment": (cmd_experiment, "run a maximal-operator experiment",
                   "--config", {"required": True, "help": "JSON experiment description"}),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracmax",
        description="Numerical laboratory for maximal Fourier multipliers over fractal dilation sets",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, option, settings) in COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        command.add_argument(option, **settings)
        command.add_argument("--out", default="out", help="output directory")
        command.add_argument("--seed", type=int, default=0)
        command.set_defaults(handler=handler)
    return parser


PARSER = _build_parser()


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    try:  # a command encodes every text it returns, so a refused report leaves no file behind
        files, code, stdout, stderr = args.handler(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            (out / name).write_text(text)
    except OSError as exc:  # --out names a file, or a directory that cannot be made or written
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_INPUT
    sys.stdout.write(stdout)
    sys.stderr.write(stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
