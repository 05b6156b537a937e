"""Exit code, stderr and file digests of every op a benchmark workload can run, printed as JSON.

Loads `benchmarks/workloads.py` of the checkout, and runs every op of
`workloads.pool(W)` through that checkout's `fracmax.cli.main`, one after the
other in this process, each with its own `--out` directory inside a temporary
directory that is removed afterwards.  Nothing is written under the checkout.

    python tools/pool_digests.py --workload experiments                 # this checkout
    python tools/pool_digests.py --workload dimension --root OTHER      # another checkout, e.g. the parent commit

Per op, keyed by its index in the pool and its name, the JSON holds the exit
code, the SHA-256 of its stderr and the SHA-256 of every file it wrote.  Two
checkouts run the pool alike when the printed JSON is identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
from pathlib import Path

from pool_ops import pool_ops


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
    parser.add_argument("--workload", required=True, choices=["experiments", "dimension"])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent, help="checkout to run")
    args = parser.parse_args()
    print(json.dumps(digests(args.root.resolve(), args.workload), indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
