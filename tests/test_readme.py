"""The README's examples, run as written.

Every ``$ edgestat ...`` command in a README code block runs in-process
through ``edgestat.cli.main`` and must print the lines shown under it, with
timings masked: the ``(0.00s)`` figures and the ``wall_time`` column.  In the
Library block, every expression line whose comment shows a value must
evaluate to an object with that ``repr``.
"""

import ast
import re
import shlex
from pathlib import Path

import pytest

from edgestat.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _blocks(language: str) -> list[list[str]]:
    """The lines of each README code block whose fence names ``language``."""
    blocks, current, fence = [], None, ""
    for line in README.read_text(encoding="utf-8").splitlines():
        if not line.startswith("```"):
            if current is not None:
                current.append(line)
        elif current is None:
            current, fence = [], line[3:].strip()
        else:
            if fence == language:
                blocks.append(current)
            current = None
    return blocks


def _examples() -> list[tuple[str, list[str]]]:
    """``(command, expected stdout lines)`` for every ``$ edgestat`` line."""
    examples = []
    for block in _blocks(""):
        if not block or not block[0].startswith("$ edgestat "):
            continue
        for line in block:
            if line.startswith("$ edgestat "):
                examples.append((line[len("$ edgestat "):], []))
            else:
                examples[-1][1].append(line)
    # a blank line separates one command's output from the next command
    return [(command, out[:-1] if out and not out[-1] else out) for command, out in examples]


def _mask(lines: list[str]) -> list[str]:
    """Mask ``(1.23s)`` timings and the field under a ``wall_time`` header."""
    out = []
    for i, line in enumerate(lines):
        line = re.sub(r"\(\d+\.\d+s\)", "(T)", line)
        if i and lines[i - 1].endswith(",wall_time"):
            line = line.rsplit(",", 1)[0] + ",T"
        out.append(line)
    return out


EXAMPLES = _examples()


def test_readme_has_command_examples():
    assert len(EXAMPLES) >= 6


@pytest.mark.parametrize("command, expected", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_command_example(command, expected, capsys):
    assert main(shlex.split(command)) == 0
    assert _mask(capsys.readouterr().out.splitlines()) == _mask(expected)


def test_readme_library_example():
    (block,) = _blocks("python")
    namespace: dict = {}
    checked = 0
    for line in block:
        code, _, comment = (part.strip() for part in line.partition("#"))
        if not code:
            continue
        (statement,) = ast.parse(code).body
        if isinstance(statement, ast.Expr) and comment:
            assert repr(eval(code, namespace)) == comment, line
            checked += 1
        else:
            exec(code, namespace)
    assert checked == 7
