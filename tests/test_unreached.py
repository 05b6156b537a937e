import sys
import textwrap
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
try:
    from unreached import unreached
finally:
    sys.path.pop(0)

MODULE = textwrap.dedent(
    '''\
    """A module."""


    def used(x):
        """Runs with x > 0 only."""
        if x > 0:
            return (
                1
            )
        raise ValueError("negative")


    def unused():
        """Never runs."""
        return 2


    try:
        import os
    except ImportError:
        os = None
        raise
    '''
)


def test_unreached_groups_what_a_traced_run_skips(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(MODULE)
    ran = set()

    def tracer(frame, event, arg):
        if frame.f_code.co_filename == str(path):
            if event == "line":
                ran.add(frame.f_lineno)
            return tracer
        return None

    namespace = {}
    sys.settrace(tracer)
    try:
        exec(compile(MODULE, str(path), "exec"), namespace)
        namespace["used"](1)
    finally:
        sys.settrace(None)
    lines = MODULE.splitlines()
    # the handler is no statement: its body is listed in its place, each statement in its group
    assert unreached(path, ran) == {
        "code": [lines.index("def unused():") + 1, lines.index("    os = None") + 1],
        "raise": [lines.index('    raise ValueError("negative")') + 1, lines.index("    raise") + 1],
        "docstring": [lines.index('    """Never runs."""') + 1],
    }
