"""The README's examples run as written.

Its python blocks run in order in one namespace, as a reader would paste
them.  Each transcript block (a fence whose first line is a ``gdruin``
command) is the command's output: it is run through ``main`` in an empty
working directory and its stdout, plus its stderr without the timing lines,
must be the block's remaining lines.
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from gdruin.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
_FENCE = re.compile(r"^```(\w*)\n(.*?)^```", re.M | re.S)
# the per-method and per-verb runtimes, e.g. "E: 0.01s"
_TIMING = re.compile(r"^\w+: \d+\.\d+s$")


def _blocks(lang: str) -> list[str]:
    return [body for tag, body in _FENCE.findall(README.read_text()) if tag == lang]


TRANSCRIPTS = [b for b in _blocks("") if b.startswith("gdruin ")]


def test_readme_python_blocks_run():
    blocks = _blocks("python")
    assert blocks
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


@pytest.mark.parametrize("block", TRANSCRIPTS, ids=[b.split("\n")[0] for b in TRANSCRIPTS])
def test_readme_transcript(block, tmp_path, monkeypatch, capsys):
    command, *expected = block.rstrip("\n").split("\n")
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("GDRUIN_OUT_DIR", raising=False)
    assert main(shlex.split(command)[1:]) == 0
    out, err = capsys.readouterr()
    printed = out.splitlines() + [line for line in err.splitlines() if not _TIMING.match(line)]
    assert printed == expected
