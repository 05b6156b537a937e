"""Closed-loop benchmark of fracmax's command line, with an optional traced run.

    python3 benchmarks/run.py --workload verify|experiments|dimension \
        --seed N --seconds S --trace 0|1

One client in one process runs the workload's op list (see workloads.py)
through `fracmax.cli.main`, sending each op after the previous one finished.
A pass is one run over the list; its time is the time until that batch of
reports is written. Set-up (import, input generation and one untimed warm-up
pass) is timed in this process and in two fresh child processes, and its
median is reported. Then passes run until S seconds have passed; for a
workload in `workloads.FRESH_PROCESS_PER_PASS` each one runs in a fresh child
process (pass_child.py) and is timed there, without the child's start-up.

Every op's output is checked: it must not raise, its exit code must match the
seed-commit reference, every JSON report must parse as strict JSON, its key
results must match the reference within a fixed tolerance, and its report
bytes must equal those of the warm-up pass. `--trace 1` traces the warm-up,
then alternates untraced and traced passes and reports per-layer self times
and work counts instead.

The last line of standard output is one JSON object: `correct`, `attempted`,
`failed` and `metrics`. Reports, spans and run metadata go to `.bench_out/`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"
REFERENCE = BENCH_DIR / "reference.json"

SETUP_CHILDREN = 2  # set-up is also timed in this many fresh processes
TAIL_BEYOND = 10  # wall_s_tail: highest percentile with this many passes beyond it ...
TAIL_SHARE = 4  # ... or with a quarter of the passes beyond it, in a shorter run
REL_TOL = 1e-5  # key results: |x - ref| <= ABS_TOL + REL_TOL * |ref|
ABS_TOL = 1e-6
MAX_REMAINDER = 0.01  # traced pass time outside the outermost spans, as a share
CHILD_TIMEOUT = 150  # seconds, for a set-up or pass child
LAYERS = ("multipliers", "lp_frames", "fractional_calculus", "maximal_lab", "dilation_sets", "driver")
COUNTS = (
    "multipliers.eval_points",
    "lp_frames.cutoff_points",
    "fractional_calculus.matrix_cells",
    "maximal_lab.dilations",
    "dilation_sets.block_points",
)


def limit_blas_threads() -> dict:
    """Cap OpenBLAS at the CPUs this process may use; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    requested = os.environ.get("OPENBLAS_NUM_THREADS")
    threads = nproc if requested is None else max(1, min(nproc, int(requested)))
    os.environ["OPENBLAS_NUM_THREADS"] = str(threads)
    return {"nproc": nproc, "openblas_num_threads": threads, "requested": requested}


def import_fracmax():
    if not (SRC / "fracmax" / "__init__.py").is_file():
        raise SystemExit(f"error: fracmax sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import fracmax
    from fracmax import cli

    if Path(fracmax.__file__).resolve().parent != SRC / "fracmax":
        raise SystemExit(f"error: imported fracmax from {fracmax.__file__}, not from {SRC}")
    return fracmax, cli


# ---------------------------------------------------------------------------
# op execution and output checks


def _strict_constant(name):
    raise ValueError(f"non-finite constant {name}")


def _flatten(node, prefix, out):
    if isinstance(node, dict):
        for key, value in node.items():
            _flatten(value, f"{prefix}.{key}" if prefix else key, out)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            _flatten(value, f"{prefix}.{i}", out)
    else:
        out[prefix] = node


def summarize(files: dict[str, bytes]) -> tuple[str, dict, list[str]]:
    """Digest of every file an op wrote, the key results of its JSON report
    (every leaf except the echoed config), and strict-JSON problems."""
    digest = hashlib.sha256()
    key: dict = {}
    problems = [] if files else ["no report written"]
    for name in sorted(files):
        digest.update(name.encode() + b"\0" + files[name] + b"\0")
        if name.endswith(".json"):
            try:
                report = json.loads(files[name], parse_constant=_strict_constant)
            except ValueError as exc:
                problems.append(f"{name} is not strict JSON: {exc}")
                continue
            report.pop("config", None)
            _flatten(report, "", key)
    return digest.hexdigest(), key, problems


def read_outputs(out_dir: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in out_dir.iterdir()} if out_dir.is_dir() else {}


def verify_expected(template: dict, seed: int) -> dict:
    """The seed-commit verify reference at any seed.

    The verify suites do not draw from the seed; it is only echoed in the
    `seed` fields, so the report at seed s is the template with those fields
    set to s (make_reference.py checks this on further seeds).
    """
    files = {
        name: re.sub(rb'"seed": \d+(?=[,\n])', b'"seed": %d' % seed, text.encode())
        for name, text in template["files"].items()
    }
    digest, key, _ = summarize(files)
    return {"exit": template["exit"], "digest": digest, "key": key}


def compare_key(key: dict, ref: dict) -> list[str]:
    if key.keys() != ref.keys():
        return [f"key results differ in fields: {sorted(key.keys() ^ ref.keys())[:5]}"]
    out = []
    for name, want in ref.items():
        got = key[name]
        numeric = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (got, want))
        if numeric:
            ok = math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL)
        else:
            ok = got == want
        if not ok:
            out.append(f"{name} = {got!r}, reference {want!r}")
    return out


def run_ops(cli, argvs, tracer=None) -> tuple[float, list]:
    """Run each argv through `cli.main`, each after the previous one finished.
    Return the summed op time and each op's [exit code, error]."""
    sink = io.StringIO()
    total = 0.0
    outcomes = []
    for i, argv in enumerate(argvs):
        if tracer is not None:
            tracer.op = i
        error = None
        rc = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = cli.main(argv)
        except Exception as exc:  # an op that raises is a failed op, not a failed run
            error = f"raised {type(exc).__name__}: {exc}"
        total += time.perf_counter() - start
        sink.seek(0)
        sink.truncate()
        outcomes.append([rc, error])
    return total, outcomes


class Runner:
    """Runs passes over one op list and checks every op's output."""

    def __init__(self, cli, ops, run_dir: Path, reference: dict):
        self.cli = cli
        self.ops = ops
        self.reference = reference
        self.out_dirs = []
        self.argvs = []
        for i, op in enumerate(ops):
            out_dir = run_dir / "ops" / f"{i:03d}"
            argv = [op.command, "--out", str(out_dir), "--seed", str(op.cli_seed)]
            if op.command == "verify":
                argv += ["--suite", "all"]
            else:
                config_path = run_dir / "configs" / f"{i:03d}.json"
                config_path.parent.mkdir(parents=True, exist_ok=True)
                config_path.write_text(json.dumps(op.config, indent=1, sort_keys=True))
                argv += ["--config", str(config_path)]
            self.out_dirs.append(out_dir)
            self.argvs.append(argv)
        self.first_digest: list[str | None] = [None] * len(ops)
        self.attempted = 0
        self.failures: list[dict] = []
        self.report_identical = 0
        self.report_compared = 0

    def expected(self, op) -> dict | None:
        if op.command == "verify":
            return verify_expected(self.reference["verify"], op.cli_seed)
        return self.reference["ops"].get(op.ref_id)

    def run_pass(self, label: str, tracer=None) -> float:
        """Run every op once in this process; return the summed op time
        (checks are untimed)."""
        self._clear()
        seconds, outcomes = run_ops(self.cli, self.argvs, tracer)
        self._check_all(outcomes, label)
        return seconds

    def run_pass_in_child(self, label: str, trace: bool) -> dict:
        """Run every op once in a fresh process (pass_child.py) and check the
        outputs here; return the child's result."""
        self._clear()
        job = json.dumps({"argvs": self.argvs, "trace": trace})
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "pass_child.py")],
            input=job, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT,
        )
        if proc.returncode != 0:
            raise SystemExit(f"error: pass child failed: {proc.stderr.strip()[-500:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self._check_all(result["outcomes"], label)
        return result

    def _clear(self):
        for out_dir in self.out_dirs:
            shutil.rmtree(out_dir, ignore_errors=True)

    def _check_all(self, outcomes, label):
        for i, (rc, error) in enumerate(outcomes):
            self._check(i, self.ops[i], rc, error, label)

    def _check(self, i, op, rc, error, label):
        self.attempted += 1
        reasons = [error] if error else []
        expected = self.expected(op)
        if expected is None:
            reasons.append("no seed-commit reference for this config")
        elif error is None and rc != expected["exit"]:
            reasons.append(f"exit code {rc}, reference {expected['exit']}")
        if error is None:
            digest, key, problems = summarize(read_outputs(self.out_dirs[i]))
            reasons += problems
            if expected is not None and not problems:
                reasons += compare_key(key, expected["key"])
            if self.first_digest[i] is None:
                self.first_digest[i] = digest
                if expected is not None:
                    self.report_compared += 1
                    self.report_identical += digest == expected["digest"]
            elif digest != self.first_digest[i]:
                reasons.append(f"{label}: report bytes differ from the warm-up pass")
        if reasons:
            self.failures.append({"op": i, "name": op.name, "ref_id": op.ref_id, "pass": label, "reasons": reasons})


# ---------------------------------------------------------------------------
# metrics


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with TAIL_BEYOND values beyond it, or a quarter of
    the values in a run too short for that: (value, percentile, count beyond)."""
    ordered = sorted(values)
    n = len(ordered)
    beyond = min(TAIL_BEYOND, n // TAIL_SHARE)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def peak_rss_mb() -> float:
    """Peak resident memory of this process and of every child it waited for."""
    peak = max(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return peak / 1024.0  # KiB on Linux


def blas_info(np, threads: dict) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name, version = blas.get("name"), blas.get("version")
    except (KeyError, TypeError):
        name = version = "unknown"
    return {"library": name, "version": version, "threads": threads["openblas_num_threads"]}


def setup_in_children(args) -> list[float]:
    """Set-up time of SETUP_CHILDREN fresh processes, run one after another."""
    out = []
    for k in range(SETUP_CHILDREN):
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", "1", "--trace", "0", "--setup-only", str(k + 1),
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up child failed: {proc.stderr.strip()[-500:]}")
        out.append(float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    threads = limit_blas_threads()
    child_setups = [] if args.trace or args.setup_only else setup_in_children(args)

    setup_start = time.perf_counter()
    import numpy as np

    fracmax, cli = import_fracmax()
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}")
    reference = json.loads(REFERENCE.read_text())
    ops = workloads.build(args.workload, args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.setup_only:
        tag += f"-setup{args.setup_only}"
    run_dir = OUT_ROOT / tag
    shutil.rmtree(run_dir, ignore_errors=True)
    runner = Runner(cli, ops, run_dir, reference)
    fresh = args.workload in workloads.FRESH_PROCESS_PER_PASS
    untraced: list[float] = []
    traced: list[float] = []
    layer_runs: list[dict] = []
    trace_checks: list[str] = []
    spans: list = []  # of the last traced pass
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()

    def check_tracer(trace: dict):
        if trace["patched"] == 0:
            trace_checks.append("tracer patched nothing")
        trace_checks.extend(f"wrapper left installed: {name}" for name in trace["leftovers"])

    def traced_in_process(label: str) -> tuple[float, dict]:
        tracer.reset()
        patched = tracer.install()
        try:
            seconds = runner.run_pass(label, tracer)
        finally:
            tracer.uninstall()
        trace = {**tracer.summary(), "patched": patched, "leftovers": tracer.leftovers(), "spans": tracer.spans}
        check_tracer(trace)
        return seconds, trace

    if tracer is None:
        runner.run_pass("warm-up")
    else:
        # traced, so that the tracer has seen every block key of this process
        traced_in_process("warm-up")
    own_setup = time.perf_counter() - setup_start
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup}))
        return 0

    start = time.perf_counter()
    while True:
        label = f"pass {len(untraced) + len(traced)}"
        untraced.append(runner.run_pass_in_child(label, False)["seconds"] if fresh else runner.run_pass(label))
        if tracer is not None:
            label = f"traced pass {len(traced)}"
            if fresh:
                result = runner.run_pass_in_child(label, True)
                seconds, trace = result["seconds"], result["trace"]
                check_tracer(trace)
            else:
                seconds, trace = traced_in_process(label)
            traced.append(seconds)
            layer_runs.append(_layer_sample(trace, seconds, trace_checks))
            spans = trace["spans"]
        if time.perf_counter() - start >= args.seconds:
            break

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_info(np, threads),
        "nproc": threads["nproc"],
        "fracmax": fracmax.__version__,
        "ops_per_pass": len(ops),
        "pass_in_fresh_process": fresh,
        "pass_s": untraced,
        "traced_pass_s": traced,
        "configs": [
            {"name": op.name, "command": op.command, "cli_seed": op.cli_seed, "ref_id": op.ref_id, "config": op.config}
            for op in ops
        ],
        "failures": runner.failures,
    }
    failed = len({(f["op"], f["pass"]) for f in runner.failures})
    print(f"workload {args.workload}: seed {args.seed}, {len(ops)} ops per pass, closed loop, 1 client")
    print(f"blas {meta['blas']['library']} {meta['blas']['version']}, {meta['blas']['threads']} threads, nproc {meta['nproc']}")
    for f in runner.failures:
        print(f"FAILED op {f['op']} {f['name']} [{f['ref_id']}] ({f['pass']}): {'; '.join(f['reasons'])}")
    print(f"failed_ratio = {failed / runner.attempted:.6g} ({failed} failed of {runner.attempted} attempted ops)")
    print(
        f"report_identical = {runner.report_identical} of {runner.report_compared} ops with a seed-commit digest"
    )

    if tracer is None:
        wall_tail, pct, beyond = tail(untraced)
        setups = child_setups + [own_setup]
        metrics = {
            "wall_s": (statistics.median(untraced), "s"),
            "wall_s_tail": (wall_tail, "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "ok_ratio": (1.0 - failed / runner.attempted, "ratio"),
        }
        print(f"wall_s = {metrics['wall_s'][0]:.6g} s (median of {len(untraced)} passes)")
        print(f"wall_s_tail = {wall_tail:.6g} s (p{pct:.4g} of {len(untraced)} passes, {beyond} beyond it)")
        print(f"setup_s = {metrics['setup_s'][0]:.6g} s (median of {len(setups)} set-ups: {', '.join(f'{s:.4g}' for s in setups)})")
        print(f"peak_rss_mb = {metrics['peak_rss_mb'][0]:.6g} MB (this process and its children)")
    else:
        metrics = _trace_metrics(layer_runs, untraced, traced, runner)
        spans_path = run_dir / "spans.jsonl"
        with spans_path.open("w") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")
        print(f"spans of the last traced pass: {len(spans)} in {spans_path.relative_to(ROOT)}")
        for name, (value, unit) in metrics.items():
            print(f"{name} = {value:.6g} {unit}")
        for problem in trace_checks:
            print(f"TRACE CHECK FAILED: {problem}")
        meta["trace_checks"] = trace_checks

    (run_dir / "run.json").write_text(json.dumps(meta, indent=1, sort_keys=True))
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": failed == 0 and not trace_checks,
                "attempted": runner.attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


def _layer_sample(trace: dict, pass_s: float, problems: list[str]) -> dict:
    """Per-layer numbers of one traced pass (`Tracer.summary()`), with the
    accounting self-check."""
    self_s, root_s = trace["self_s"], trace["root_s"]
    self_total = sum(self_s.values())
    remainder = pass_s - root_s
    # self times must add up to the outermost spans, and those must cover the
    # pass: every op is a call of the traced cli.main
    if abs(self_total - root_s) > 1e-6 * max(pass_s, 1.0) or not 0 <= remainder < MAX_REMAINDER * pass_s:
        problems.append(f"self times {self_total:.6f} s, outermost spans {root_s:.6f} s, pass {pass_s:.6f} s")
    sample = {f"{layer}.self_s": self_s.get(layer, 0.0) for layer in LAYERS}
    sample.update({name: trace["counts"].get(name, 0) for name in COUNTS})
    sample["block_calls"] = trace["block_calls"]
    sample["block_repeats"] = trace["block_repeats"]
    sample["accounting"] = f"traced pass {pass_s:.6g} s = layer self times {self_total:.6g} s + remainder {remainder:.3g} s"
    return sample


def _trace_metrics(layer_runs, untraced, traced, runner) -> dict:
    def med(key):
        return statistics.median(sample[key] for sample in layer_runs)

    metrics = {f"{layer}.self_s": (med(f"{layer}.self_s"), "s") for layer in LAYERS}
    metrics.update({name: (med(name), "count") for name in COUNTS})
    calls, repeats = med("block_calls"), med("block_repeats")
    metrics["dilation_sets.block_repeat_ratio"] = (repeats / calls if calls else 0.0, "ratio")
    metrics["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(untraced) - 1.0, "ratio")
    metrics["report_identical"] = (runner.report_identical, "count")
    print(f"block_repeat_ratio base: {repeats:g} keys already seen in the process, of {calls:g} rescaled_block calls per pass")
    for sample in layer_runs:
        print(sample["accounting"])
    print(
        f"trace overhead: median traced pass {statistics.median(traced):.6g} s over {len(traced)}, "
        f"median untraced pass {statistics.median(untraced):.6g} s over {len(untraced)}"
    )
    return metrics


if __name__ == "__main__":
    sys.exit(main())
