"""README transcripts: each ``$ hanoiduel ...`` line in a fenced block is
run in-process and must exit 0 and print exactly the lines shown under it."""

import io
import shlex
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from hanoiduel.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def transcripts():
    """(command, expected stdout) for every prompt line in a fenced block."""
    found = []
    current = None
    in_block = False
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_block = not in_block
            current = None
        elif in_block and line.startswith("$ hanoiduel "):
            current = []
            found.append((line[len("$ hanoiduel "):], current))
        elif line.startswith("$ "):
            current = None
        elif current is not None:
            current.append(line)
    return [(cmd, "".join(out + "\n" for out in lines)) for cmd, lines in found]


TRANSCRIPTS = transcripts()


def test_readme_has_transcripts():
    assert len(TRANSCRIPTS) >= 2


@pytest.mark.parametrize(
    "command,expected", TRANSCRIPTS, ids=[cmd for cmd, _ in TRANSCRIPTS]
)
def test_readme_transcript(command, expected):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(shlex.split(command))
    assert code == 0
    assert out.getvalue() == expected
