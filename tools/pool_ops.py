"""The benchmark pool's ops of a checkout, each ready to run through its `fracmax.cli.main`.

Shared by `pool_digests.py`, `op_peaks.py` and `unreached.py`, and `report_blas_threads` by `shipped_digests.py`
too; not a script of its own.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path


VERIFY_SEED = 7  # the benchmark's seed


def report_blas_threads() -> None:
    """One stderr line naming the BLAS thread count the digests are taken at: some reports differ in their last bits
    between one and two OpenBLAS threads, so two records compare only at the same count."""
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    print(f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', f'unset (nproc {nproc})')}", file=sys.stderr)


def pool_ops(root: Path, workload: str):
    """Yield, per op of the checkout's `workloads.pool(workload)` in order, its key `NNN name`, its `--out`
    directory and a function that runs it with stdout discarded and returns its exit code and stderr.

    The `verify` workload is one op, `verify --suite all`; its ops here are `verify --suite NAME`, one per
    suite of the checkout's `fracmax.verify.SUITES`, in the order `all` runs them, at VERIFY_SEED.
    Each op's config and output live in its own directory inside a temporary directory, removed once the
    ops are exhausted; nothing is written under the checkout.
    """
    sys.path[:0] = [str(root / "src"), str(root / "benchmarks")]
    import workloads
    from fracmax.cli import main as cli_main
    from fracmax.verify import SUITES

    if workload == "verify":
        ops = [workloads.Op(f"verify/{name}", "verify", None, VERIFY_SEED) for name in SUITES]
    else:
        ops = workloads.pool(workload)
    with tempfile.TemporaryDirectory() as tmp:
        for i, op in enumerate(ops):
            op_dir = Path(tmp) / f"{i:03d}"
            config = op_dir / "config.json"
            op_dir.mkdir()
            if op.config is None:  # a verify suite
                own = ["--suite", op.name.removeprefix("verify/")]
            else:
                config.write_text(json.dumps(op.config, indent=1, sort_keys=True))
                own = ["--config", str(config)]
            argv = [op.command, *own, "--out", str(op_dir / "out"), "--seed", str(op.cli_seed)]

            def run(argv=argv) -> tuple[int, str]:
                stderr = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                    code = cli_main(argv)
                return code, stderr.getvalue()

            yield f"{i:03d} {op.name}", op_dir / "out", run
