"""The benchmark pool's ops of a checkout, each ready to run through its `fracmax.cli.main`.

Shared by `pool_digests.py` and `op_peaks.py`; not a script of its own.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path


def pool_ops(root: Path, workload: str):
    """Yield, per op of the checkout's `workloads.pool(workload)` in order, its key `NNN name`, its `--out`
    directory and a function that runs it with stdout discarded and returns its exit code and stderr.

    Each op's config and output live in its own directory inside a temporary directory, removed once the
    ops are exhausted; nothing is written under the checkout.
    """
    sys.path[:0] = [str(root / "src"), str(root / "benchmarks")]
    import workloads
    from fracmax.cli import main as cli_main

    with tempfile.TemporaryDirectory() as tmp:
        for i, op in enumerate(workloads.pool(workload)):
            op_dir = Path(tmp) / f"{i:03d}"
            config = op_dir / "config.json"
            op_dir.mkdir()
            config.write_text(json.dumps(op.config, indent=1, sort_keys=True))
            argv = [op.command, "--config", str(config), "--out", str(op_dir / "out"), "--seed", str(op.cli_seed)]

            def run(argv=argv) -> tuple[int, str]:
                stderr = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                    code = cli_main(argv)
                return code, stderr.getvalue()

            yield f"{i:03d} {op.name}", op_dir / "out", run
