import os
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(TOOLS))
try:
    import pool_digests
    from pool_ops import report_blas_threads
finally:
    sys.path.pop(0)


def test_digest_tools_name_their_blas_thread_count(monkeypatch, capsys):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    report_blas_threads()
    monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    report_blas_threads()
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert capsys.readouterr() == ("", f"OPENBLAS_NUM_THREADS=2\nOPENBLAS_NUM_THREADS=unset (nproc {nproc})\n")
    # each digest tool reports it before its JSON, on stderr, and leaves its stdout as it was
    for tool in ("shipped_digests.py", "pool_digests.py", "op_peaks.py"):
        assert "    report_blas_threads()\n" in (TOOLS / tool).read_text(), tool


def _record(exit=0, stderr="e", **files):
    return {"exit": exit, "stderr_sha256": stderr, "files": files}


PARENT = {
    "000 a": _record(report="r0"),
    "001 b": _record(report="r1", csv="c1"),
    "002 c": _record(exit=1, stderr="s"),
    "003 d": _record(report="r3"),
}


@pytest.mark.parametrize(
    "change, lines",
    [
        pytest.param(PARENT, [], id="identical"),
        pytest.param(
            {
                "000 a": _record(report="r0"),
                "001 b": _record(report="r1", csv="moved"),
                "002 c": _record(exit=0, stderr="t", report="new"),
                "004 e": _record(),
            },
            ["001 b: csv", "002 c: exit, stderr, report", "003 d: missing", "004 e: missing"],
            id="differing",
        ),
    ],
)
def test_pool_digests_against_prints_only_the_ops_that_differ(monkeypatch, capsys, change, lines):
    roots = {Path("/change").resolve(): change, Path("/parent").resolve(): PARENT}
    monkeypatch.setattr(pool_digests, "digests", lambda root, workload: roots[root])
    argv = ["pool_digests.py", "--workload", "experiments", "--root", "/change", "--against", "/parent"]
    monkeypatch.setattr(sys, "argv", argv)
    with pytest.raises(SystemExit) as exit:
        pool_digests.main()
    assert exit.value.code == (1 if lines else 0)
    out, err = capsys.readouterr()
    assert out.splitlines() == lines
    assert err.splitlines()[-1] == f"{len(lines)} of {len(PARENT.keys() | change.keys())} ops differ"
