"""Traced memory peak and RSS growth of every op a benchmark workload can run, largest peak first, printed as JSON.

Loads `benchmarks/workloads.py` of the checkout, and runs each op of
`workloads.pool(W)` through that checkout's `fracmax.cli.main` in a fresh child
process of its own, under `tracemalloc`, with its own `--out` directory inside
a temporary directory that is removed afterwards.  So an op's peak does not
depend on the ops before it in the pool.  Nothing is written under the checkout.
For `verify` the ops are its suites, `verify --suite NAME` at seed 7, so the
workload's memory shows per layer.

    python tools/op_peaks.py --workload experiments                 # this checkout
    python tools/op_peaks.py --workload verify --root OTHER         # another checkout, e.g. the parent commit

An op's `peak_mb` is the most traced memory (Python objects and NumPy buffers)
held while it ran, less what its process held just before, in MB (1e6 bytes).
Its `rss_growth_mb` is how far the run raised its process's peak resident set
(`ru_maxrss`, in the same MB) above the peak the process had reached after its
imports.  Memory that tracing does not see (pages the allocator keeps) shows
there, and so does the tracer's own bookkeeping.
Ops are keyed by their index in the pool and their name, so a memory claim can
name the op that sets it.  Tracing slows every op down: read no times here.
The children run one at a time.
One line on stderr names the BLAS thread count it ran at: `OPENBLAS_NUM_THREADS=N`, or
`unset (nproc N)`.  Compare only records taken at the same count.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

from pool_ops import pool_ops, report_blas_threads


def op_peak(root: Path, workload: str, index: int) -> dict:
    """The traced peak and RSS growth of the pool's op `index`, run in this process; the ops before it are skipped."""
    tracemalloc.start()
    try:
        for i, (key, _, run) in enumerate(pool_ops(root, workload)):
            if i == index:
                rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
                start, _ = tracemalloc.get_traced_memory()
                tracemalloc.reset_peak()
                code, _ = run()
                _, peak = tracemalloc.get_traced_memory()
                grown = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss) * 1024
                mb = {"peak_mb": round((peak - start) / 1e6, 2), "rss_growth_mb": round(grown / 1e6, 2)}
                return {"op": key, "exit": code, **mb}
    finally:
        tracemalloc.stop()
    raise IndexError(f"the {workload} pool has no op {index}")


def peaks(root: Path, workload: str) -> list[dict]:
    out = []
    for index in range(sum(1 for _ in pool_ops(root, workload))):
        argv = [sys.executable, __file__, "--workload", workload, "--root", str(root), "--op", str(index)]
        out.append(json.loads(subprocess.run(argv, capture_output=True, text=True, check=True).stdout))
    return sorted(out, key=lambda row: (-row["peak_mb"], row["op"]))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["verify", "experiments", "dimension"])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent, help="checkout to run")
    parser.add_argument("--op", type=int, help="run only the op of this pool index here and print its row")
    args = parser.parse_args()
    root = args.root.resolve()
    if args.op is not None:
        print(json.dumps(op_peak(root, args.workload, args.op)))
        return
    report_blas_threads()
    print("[\n" + ",\n".join(json.dumps(row) for row in peaks(root, args.workload)) + "\n]")


if __name__ == "__main__":
    main()
