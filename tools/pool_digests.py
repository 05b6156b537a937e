"""Exit code, stderr and file digests of every op a benchmark workload can run, printed as JSON.

Loads `benchmarks/workloads.py` of the checkout, and runs every op of
`workloads.pool(W)` through that checkout's `fracmax.cli.main`, one after the
other in this process, each with its own `--out` directory inside a temporary
directory that is removed afterwards.  Nothing is written under the checkout.
For `verify` the ops are its suites, `verify --suite NAME` at seed 7, so a
moved byte names the suite that moved it.

    python tools/pool_digests.py --workload experiments                 # this checkout
    python tools/pool_digests.py --workload dimension --root OTHER      # another checkout, e.g. the parent commit
    python tools/pool_digests.py --workload verify --root OTHER

Per op, keyed by its index in the pool and its name, the JSON holds the exit
code, the SHA-256 of its stderr and the SHA-256 of every file it wrote.  Two
checkouts run the pool alike when the printed JSON is identical.
One line on stderr names the BLAS thread count it ran at: `OPENBLAS_NUM_THREADS=N`, or
`unset (nproc N)`.  Compare only records taken at the same count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
from pathlib import Path

from pool_ops import pool_ops, report_blas_threads


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(root: Path, workload: str) -> dict[str, dict]:
    out = {}
    for key, out_dir, run in pool_ops(root, workload):
        code, stderr = run()
        files = sorted(out_dir.rglob("*")) if out_dir.is_dir() else []
        out[key] = {
            "exit": code,
            "stderr_sha256": _sha(stderr.encode()),
            "files": {p.relative_to(out_dir).as_posix(): _sha(p.read_bytes()) for p in files if p.is_file()},
        }
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["verify", "experiments", "dimension"])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent, help="checkout to run")
    args = parser.parse_args()
    report_blas_threads()
    print(json.dumps(digests(args.root.resolve(), args.workload), indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
