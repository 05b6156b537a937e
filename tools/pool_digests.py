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
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(root: Path, workload: str) -> dict[str, dict]:
    sys.path[:0] = [str(root / "src"), str(root / "benchmarks")]
    import workloads
    from fracmax.cli import main as cli_main

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for i, op in enumerate(workloads.pool(workload)):
            op_dir = Path(tmp) / f"{i:03d}"
            config = op_dir / "config.json"
            op_dir.mkdir()
            config.write_text(json.dumps(op.config, indent=1, sort_keys=True))
            argv = [op.command, "--config", str(config), "--out", str(op_dir / "out"), "--seed", str(op.cli_seed)]
            stderr = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                code = cli_main(argv)
            files = sorted((op_dir / "out").rglob("*")) if (op_dir / "out").is_dir() else []
            out[f"{i:03d} {op.name}"] = {
                "exit": code,
                "stderr_sha256": _sha(stderr.getvalue().encode()),
                "files": {p.relative_to(op_dir / "out").as_posix(): _sha(p.read_bytes()) for p in files if p.is_file()},
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
