"""Fixtures shared across test modules."""

import contextlib
import io
import time
from dataclasses import dataclass

import pytest

from fracmax import cli
from fracmax.multipliers import _BAND_MEMO


@dataclass(frozen=True)
class VerifyRun:
    code: int
    seconds: float
    report: bytes
    stdout: str
    memo_closed: bool  # no band memo scope is left open after the run


@pytest.fixture(scope="session")
def verify_all_twice(tmp_path_factory):
    """Two `verify --suite all --seed 0` runs in this process, one after the other.

    Several tests check the same pair (determinism, run time, stdout), and each
    run takes seconds, so the pair is made once per session.
    """
    runs = []
    for name in ("run1", "run2"):
        out = tmp_path_factory.mktemp(name)
        stdout = io.StringIO()
        t0 = time.monotonic()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(["verify", "--suite", "all", "--out", str(out), "--seed", "0"])
        seconds = time.monotonic() - t0
        closed = _BAND_MEMO.get() is None
        runs.append(VerifyRun(code, seconds, (out / "verify_report.json").read_bytes(), stdout.getvalue(), closed))
    return tuple(runs)
