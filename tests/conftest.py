"""Suite-wide pytest hooks."""

from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "edgestat"


def pytest_report_header(config):
    """The non-blank line count of the package, counted as
    ``grep -v '^\\s*$' src/edgestat/*.py | wc -l`` counts it."""
    lines = sum(
        1
        for path in sorted(SRC.glob("*.py"))
        for line in path.read_text(encoding="utf-8").split("\n")
        if line.strip()
    )
    return f"src/edgestat: {lines} non-blank lines"
