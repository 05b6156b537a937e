"""Traced memory peak of every op a benchmark workload can run, largest first, printed as JSON.

Loads `benchmarks/workloads.py` of the checkout, and runs every op of
`workloads.pool(W)` through that checkout's `fracmax.cli.main`, one after the
other in this process under `tracemalloc`, each with its own `--out` directory
inside a temporary directory that is removed afterwards.  Nothing is written
under the checkout.

    python tools/op_peaks.py --workload experiments                 # this checkout
    python tools/op_peaks.py --workload dimension --root OTHER      # another checkout, e.g. the parent commit

An op's peak is the most traced memory (Python objects and NumPy buffers) held
while it ran, less what the process held when it started, in MB (1e6 bytes).
Ops are keyed by their index in the pool and their name, so a memory claim can
name the op that sets it.  Tracing slows every op down: read no times here.
"""

from __future__ import annotations

import argparse
import json
import tracemalloc
from pathlib import Path

from pool_ops import pool_ops


def peaks(root: Path, workload: str) -> list[dict]:
    out = []
    tracemalloc.start()
    try:
        for key, _, run in pool_ops(root, workload):
            start, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            code, _ = run()
            _, peak = tracemalloc.get_traced_memory()
            out.append({"op": key, "exit": code, "peak_mb": round((peak - start) / 1e6, 2)})
    finally:
        tracemalloc.stop()
    return sorted(out, key=lambda row: (-row["peak_mb"], row["op"]))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["experiments", "dimension"])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent, help="checkout to run")
    args = parser.parse_args()
    print("[\n" + ",\n".join(json.dumps(row) for row in peaks(args.root.resolve(), args.workload)) + "\n]")


if __name__ == "__main__":
    main()
