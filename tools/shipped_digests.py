"""SHA-256 of every file the six shipped commands write, printed as JSON.

Runs `verify --suite all` (its stdout is kept as `verify_stdout.txt`), `dim`
on `configs/dim_power.json` and `configs/dim_cantor.json`, and `experiment`
on `configs/domination.json`, `configs/halfwave.json` and `configs/probe.json`,
each in a fresh process, inside a temporary directory that is removed
afterwards.  Nothing is written under the checkout.

    python tools/shipped_digests.py                 # this checkout
    python tools/shipped_digests.py --root OTHER    # another checkout, e.g. the parent commit

Two checkouts write identical reports when the printed JSON is identical.
One line on stderr names the BLAS thread count it ran at: `OPENBLAS_NUM_THREADS=N`, or
`unset (nproc N)`.  Compare only records taken at the same count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from pool_ops import report_blas_threads

COMMANDS = {
    "verify": ["verify", "--suite", "all"],
    "dim_power": ["dim", "--config", "configs/dim_power.json"],
    "dim_cantor": ["dim", "--config", "configs/dim_cantor.json"],
    "domination": ["experiment", "--config", "configs/domination.json"],
    "halfwave": ["experiment", "--config", "configs/halfwave.json"],
    "probe": ["experiment", "--config", "configs/probe.json"],
}


def digests(root: Path) -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        for name, argv in COMMANDS.items():
            argv = [arg if not arg.startswith("configs/") else str(root / arg) for arg in argv]
            run = subprocess.run(
                [sys.executable, "-m", "fracmax.cli", *argv, "--out", str(out / name)],
                env=env,
                cwd=tmp,
                capture_output=True,
                text=True,
            )
            if run.returncode != 0:
                raise SystemExit(f"{name} exited {run.returncode}: {run.stderr.strip()}")
            if name == "verify":
                (out / "verify_stdout.txt").write_text(run.stdout)
        return {
            path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.rglob("*"))
            if path.is_file()
        }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent, help="checkout to run")
    args = parser.parse_args()
    report_blas_threads()
    print(json.dumps(digests(args.root.resolve()), indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
