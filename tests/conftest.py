"""Fixtures shared across test modules."""

import contextlib
import io
import time
from dataclasses import dataclass

import numpy as np
import pytest

from fracmax import cli
from fracmax.lp_frames import GridFunction
from fracmax.maximal_lab import _batched_dilate
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


def apply_dilated_multiplier(f, m, t):
    """T_{m(t .)} f for one t > 0: the one-row dilation the batched maximal-function kernels are compared against."""
    return GridFunction(f.extent, _batched_dilate(f, m, np.array([t]))[0])
