from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "fracmax"
MAX_SOURCE_LINES = 3125  # ROADMAP standing rule "The line ceiling": cat src/fracmax/*.py | wc -l stays at or below it


def test_package_source_stays_under_the_line_ceiling():
    # counted as wc -l counts: one line per newline
    lines = sum(path.read_bytes().count(b"\n") for path in SOURCE.glob("*.py"))
    assert lines <= MAX_SOURCE_LINES, f"src/fracmax/*.py holds {lines} lines, over the ceiling of {MAX_SOURCE_LINES}"
