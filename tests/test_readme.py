import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_sketch_runs(capsys):
    section = README.read_text().split("## Library sketch", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md library sketch", "exec"), {})
    total, stale = capsys.readouterr().out.split()
    assert float(total) > 0 and stale in ("True", "False")
