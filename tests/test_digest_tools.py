import os
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(TOOLS))
try:
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
