"""Write reference.json: exit code, report digest and key results of every op
the benchmark can generate.

    python3 benchmarks/make_reference.py

The reference pins the reports of the commit it was taken at, so the
benchmark can tell a changed result from a faster one. Rerun it only when
the workloads change, at a commit whose reports are the accepted ones.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import time

import run

VERIFY_SEEDS = (0, 1, 2)  # the first is the template; the others check it


def _run(cli, argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def main() -> int:
    run.limit_blas_threads()
    _, cli = run.import_fracmax()
    sys.path.insert(0, str(run.BENCH_DIR))
    import workloads

    work_dir = run.OUT_ROOT / "reference"
    shutil.rmtree(work_dir, ignore_errors=True)
    ops = {}
    for workload in ("experiments", "dimension"):
        pool = workloads.pool(workload)
        runner = run.Runner(cli, pool, work_dir / workload, {})
        start = time.perf_counter()
        for i, op in enumerate(pool):
            rc = _run(cli, runner.argvs[i])
            digest, key, problems = run.summarize(run.read_outputs(runner.out_dirs[i]))
            if problems:
                raise SystemExit(f"{op.name} ({op.ref_id}): {problems}")
            ops[op.ref_id] = {"name": op.name, "exit": rc, "digest": digest, "key": key}
        print(f"{workload}: {len(pool)} ops in {time.perf_counter() - start:.1f} s", file=sys.stderr)

    verify = None
    for seed in VERIFY_SEEDS:
        out_dir = work_dir / "verify" / str(seed)
        rc = _run(cli, ["verify", "--suite", "all", "--seed", str(seed), "--out", str(out_dir)])
        files = run.read_outputs(out_dir)
        if verify is None:
            verify = {"exit": rc, "files": {name: data.decode() for name, data in files.items()}}
        expected = run.verify_expected(verify, seed)
        if rc != expected["exit"] or run.summarize(files)[0] != expected["digest"]:
            raise SystemExit(f"verify at seed {seed} is not the seed-{VERIFY_SEEDS[0]} report with the seed replaced")

    payload = {"ops": ops, "verify": verify}
    run.REFERENCE.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(ops)} references to {run.REFERENCE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
