"""The README as a spec: its Library example and its CLI example session run
as written, from the repository root, and the session exits as the README
says.

:func:`example_session` is also what the workflow's console-script step runs,
one ``phasekit`` process per command.
"""

from __future__ import annotations

import io
import re
import shlex
from pathlib import Path

from phasekit.cli import run

README = Path(__file__).resolve().parent.parent / "README.md"


def _block(text: str, heading: str, language: str) -> str:
    """The first fenced ``language`` block of ``text`` after ``heading``."""
    return re.compile(rf"```{language}\n(.*?)```", re.S).search(text, text.index(heading)).group(1)


def example_session(out) -> list[tuple[list[str], int]]:
    """Each command of the README's CLI example session as an argv, with the
    exit code the README gives it: 0, and for the last the code of "The last
    command exits". A file named after ``-o`` is put in the directory
    ``out``."""
    text = README.read_text(encoding="utf-8")
    commands = [shlex.split(line) for line in _block(text, "Example session", "sh").splitlines()]
    last = re.search(r"The last command exits `(\d)`", text)
    for argv in commands:
        for i in range(1, len(argv)):
            if argv[i - 1] == "-o":
                argv[i] = str(Path(out) / argv[i])
    return [(argv, 0) for argv in commands[:-1]] + [(commands[-1], int(last.group(1)))]


def test_library_example_runs_as_written(monkeypatch):
    monkeypatch.chdir(README.parent)
    example = _block(README.read_text(encoding="utf-8"), "## Library", "python")
    exec(compile(example, str(README), "exec"), {})


def test_cli_example_session_exits_as_documented(monkeypatch, tmp_path):
    monkeypatch.chdir(README.parent)
    session = example_session(tmp_path)
    assert [code for _, code in session] == [0, 0, 0, 0, 1]
    assert "--fail-on-change" in session[-1][0]
    for argv, code in session:
        assert argv[0] == "phasekit"
        stdout, stderr = io.StringIO(), io.StringIO()
        assert run(argv[1:], stdout=stdout, stderr=stderr) == code, (argv, stderr.getvalue())
    assert (tmp_path / "c2_sb2.dot").read_text(encoding="utf-8").startswith("digraph")
