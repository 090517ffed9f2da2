"""Replay the README's command-line examples.

Every ``$ betticone ...`` line in a ``sh`` block of README.md is run through
``cli.main`` from the repository root, and its stdout must equal the lines
shown under it (up to the next blank line or the end of the block).  A
trailing ``| tail -N`` is applied by keeping the last N lines.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from betticone.cli import main

ROOT = Path(__file__).resolve().parent.parent


def _examples():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    examples = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S):
        command = None
        for line in block.splitlines() + [""]:
            if line.startswith("$ betticone "):
                command, shown = line[len("$ betticone "):], []
            elif command is not None and line:
                shown.append(line)
            elif command is not None:
                examples.append((command, "".join(s + "\n" for s in shown)))
                command = None
    return examples


@pytest.mark.parametrize("command, shown", _examples(), ids=[c for c, _ in _examples()])
def test_readme_example_prints_what_the_readme_shows(command, shown, monkeypatch):
    monkeypatch.chdir(ROOT)
    command, _, pipe = command.partition(" | ")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(shlex.split(command)) == 0
    lines = out.getvalue().splitlines(keepends=True)
    if pipe:
        tail, count = shlex.split(pipe)
        assert tail == "tail" and count.startswith("-")
        lines = lines[-int(count[1:]):]
    assert "".join(lines) == shown


def test_the_readme_has_examples():
    assert len(_examples()) == 6
