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
    python tools/pool_digests.py --workload experiments --against OTHER # both checkouts, only the ops that differ

Per op, keyed by its index in the pool and its name, the JSON holds the exit
code, the SHA-256 of its stderr and the SHA-256 of every file it wrote.  Two
checkouts run the pool alike when the printed JSON is identical.  With `--against OTHER` the tool runs the
pool of `--root` and of OTHER, each in a child process of its own (two checkouts' packages cannot share one
process's imports), prints one line per op whose exit code, stderr or file digests differ, keyed as above
and naming what differs, and exits 1 if any op differs.
One line on stderr names the BLAS thread count it ran at: `OPENBLAS_NUM_THREADS=N`, or
`unset (nproc N)`.  Compare only records taken at the same count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path

from pool_ops import pool_ops, report_blas_threads


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def pool_records(root: Path, workload: str) -> dict[str, dict]:
    """Per op key, its exit code and digests, the checkout's pool run in this process."""
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


def digests(root: Path, workload: str) -> dict[str, dict]:
    """`pool_records` of the checkout, taken by this tool in a child process of its own."""
    argv = [sys.executable, __file__, "--workload", workload, "--root", str(root)]
    return json.loads(subprocess.run(argv, capture_output=True, text=True, check=True).stdout)


def differences(ours: dict[str, dict], theirs: dict[str, dict]) -> dict[str, list[str]]:
    """Per op key whose records differ, what differs: `missing`, `exit`, `stderr` or the names of its files."""
    out = {}
    for key in sorted(ours.keys() | theirs.keys()):
        if key not in ours or key not in theirs:
            out[key] = ["missing"]
            continue
        a, b = ours[key], theirs[key]
        parts = [part for part, field in (("exit", "exit"), ("stderr", "stderr_sha256")) if a[field] != b[field]]
        files = sorted(a["files"].keys() | b["files"].keys())
        parts += [name for name in files if a["files"].get(name) != b["files"].get(name)]
        if parts:
            out[key] = parts
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["verify", "experiments", "dimension"])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent, help="checkout to run")
    parser.add_argument("--against", type=Path, help="another checkout: print only the ops whose records differ")
    args = parser.parse_args()
    report_blas_threads()
    if args.against is None:
        print(json.dumps(pool_records(args.root.resolve(), args.workload), indent=2, sort_keys=True))
        return
    ours, theirs = (digests(root.resolve(), args.workload) for root in (args.root, args.against))
    differ = differences(ours, theirs)
    for key, parts in differ.items():
        print(f"{key}: {', '.join(parts)}")
    print(f"{len(differ)} of {len(ours.keys() | theirs.keys())} ops differ", file=sys.stderr)
    sys.exit(1 if differ else 0)


if __name__ == "__main__":
    main()
