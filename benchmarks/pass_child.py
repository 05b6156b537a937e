"""Run one pass of fracmax ops in this fresh process and report it.

    echo '{"argvs": [...], "trace": false}' | python3 benchmarks/pass_child.py

run.py starts this for every timed pass of a workload in
`workloads.FRESH_PROCESS_PER_PASS`. It runs every argv through
`fracmax.cli.main`, each after the previous one finished, and prints one JSON
line: the summed op time and each op's [exit code, error]; when traced, also
the tracer's numbers for the pass, how many bindings it patched, any wrapper
left installed, and the spans. run.py checks the reports the ops wrote.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    job = json.loads(sys.stdin.read())
    run.limit_blas_threads()
    _, cli = run.import_fracmax()
    if not job["trace"]:
        seconds, outcomes = run.run_ops(cli, job["argvs"])
        print(json.dumps({"seconds": seconds, "outcomes": outcomes}))
        return 0

    from tracer import Tracer

    tracer = Tracer()
    patched = tracer.install()
    try:
        seconds, outcomes = run.run_ops(cli, job["argvs"], tracer)
    finally:
        tracer.uninstall()
    trace = {**tracer.summary(), "patched": patched, "leftovers": tracer.leftovers(), "spans": tracer.spans}
    print(json.dumps({"seconds": seconds, "outcomes": outcomes, "trace": trace}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
