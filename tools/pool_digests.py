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
    python tools/pool_digests.py --workload verify --against OTHER --leaves  # and each JSON leaf that differs

Per op, keyed by its index in the pool and its name, the JSON holds the exit
code, the SHA-256 of its stderr and the SHA-256 of every file it wrote.  Two
checkouts run the pool alike when the printed JSON is identical.  With `--against OTHER` the tool runs the
pool of `--root` and of OTHER, each in a child process of its own (two checkouts' packages cannot share one
process's imports), prints one line per op whose exit code, stderr or file digests differ, keyed as above
and naming what differs, and exits 1 if any op differs.  `--leaves` adds, under each such op, one line per JSON
leaf that differs in its files, OTHER's value first: `  FILE PATH: OLD -> NEW`, and for two numbers their relative
change and whether it lies within the benchmark's key-result tolerance 1e-6 + 1e-5 |OLD|.
One line on stderr names the BLAS thread count it ran at: `OPENBLAS_NUM_THREADS=N`, or
`unset (nproc N)`.  Compare only records taken at the same count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import subprocess
import sys
from pathlib import Path

from pool_ops import pool_ops, report_blas_threads

ABS_TOL, REL_TOL = 1e-6, 1e-5  # benchmarks/run.py's tolerance on a key result: |x - ref| <= ABS_TOL + REL_TOL |ref|


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def pool_records(root: Path, workload: str, parsed: bool = False) -> dict[str, dict]:
    """Per op key, its exit code and digests, the checkout's pool run in this process; with `parsed`, also the
    parsed content of each JSON file it wrote, under "json"."""
    out = {}
    for key, out_dir, run in pool_ops(root, workload):
        code, stderr = run()
        files = [p for p in sorted(out_dir.rglob("*")) if p.is_file()] if out_dir.is_dir() else []
        reports = [p for p in files if p.suffix == ".json"]
        out[key] = {
            "exit": code,
            "stderr_sha256": _sha(stderr.encode()),
            "files": {p.relative_to(out_dir).as_posix(): _sha(p.read_bytes()) for p in files},
        }
        if parsed:
            out[key]["json"] = {p.relative_to(out_dir).as_posix(): json.loads(p.read_text()) for p in reports}
    return out


def digests(root: Path, workload: str, *flags: str) -> dict[str, dict]:
    """`pool_records` of the checkout, taken by this tool in a child process of its own run with `flags`."""
    argv = [sys.executable, __file__, "--workload", workload, "--root", str(root), *flags]
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


def leaves(value, path: str = "") -> dict[str, object]:
    """Each scalar of a parsed JSON value, keyed by its path: `results.max_ratio`, `checks[3].measured`."""
    if isinstance(value, dict):
        items = ((f"{path}.{key}" if path else key, item) for key, item in value.items())
    elif isinstance(value, list):
        items = ((f"{path}[{i}]", item) for i, item in enumerate(value))
    else:
        return {path: value}
    return {leaf: scalar for sub, item in items for leaf, scalar in leaves(item, sub).items()}


def leaf_changes(old, new) -> list[str]:
    """One line per leaf whose value differs between two parsed JSON files, `PATH: OLD -> NEW`; between two numbers
    with the relative change and whether it lies within ABS_TOL + REL_TOL |OLD|."""
    a, b, out = leaves(old), leaves(new), []
    for path in sorted(a.keys() | b.keys()):
        x, y = a.get(path, "<missing>"), b.get(path, "<missing>")
        if type(x) is type(y) and x == y:
            continue
        line = f"{path}: {x!r} -> {y!r}"
        if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (x, y)):
            rel = abs(y - x) / abs(x) if x else math.inf
            within = "within" if abs(y - x) <= ABS_TOL + REL_TOL * abs(x) else "outside"
            line += f" (relative change {rel:.3g}, {within} tolerance)"
        out.append(line)
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["verify", "experiments", "dimension"])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent, help="checkout to run")
    parser.add_argument("--against", type=Path, help="another checkout: print only the ops whose records differ")
    parser.add_argument("--leaves", action="store_true", help="with --against: each differing JSON leaf, old -> new")
    args = parser.parse_args()
    report_blas_threads()
    if args.against is None:
        print(json.dumps(pool_records(args.root.resolve(), args.workload, args.leaves), indent=2, sort_keys=True))
        return
    flags = ["--leaves"] if args.leaves else []
    ours, theirs = (digests(root.resolve(), args.workload, *flags) for root in (args.root, args.against))
    differ = differences(ours, theirs)
    for key, parts in differ.items():
        print(f"{key}: {', '.join(parts)}")
        for name in parts if args.leaves and "missing" not in parts else []:
            if name in ours[key]["json"] and name in theirs[key]["json"]:
                for line in leaf_changes(theirs[key]["json"][name], ours[key]["json"][name]):
                    print(f"  {name} {line}")
    print(f"{len(differ)} of {len(ours.keys() | theirs.keys())} ops differ", file=sys.stderr)
    sys.exit(1 if differ else 0)


if __name__ == "__main__":
    main()
