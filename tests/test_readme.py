"""The README as a spec: its Library example and its CLI example session run
as written, from the repository root, and the session exits as the README
says. The flags of its CLI block are the parser's, the diagnostic codes it
lists are those of the ``dsl`` and ``analysis`` tables, it names every hint
code, and each threshold flag it lists exits 1 on a document that trips it.

:func:`example_session` is also what the workflow's console-script step runs,
one ``phasekit`` process per command.
"""

from __future__ import annotations

import argparse
import io
import re
import shlex
from pathlib import Path

import pytest

import phasekit.analysis
import phasekit.dsl
from phasekit.analysis import HintCode
from phasekit.cli import _build_parser, run

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


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    parser = _build_parser(None)
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_cli_block_flags_are_the_parsers():
    """Every subcommand has a line in the CLI block, and every flag written
    there is one its subcommand takes, with the values it lists."""
    subcommands = _subcommands()
    block = _block(README.read_text(encoding="utf-8"), "## CLI", "sh")
    lines = {line.split()[1]: line.split("#")[0] for line in block.splitlines()}
    assert list(lines) == list(subcommands)
    for name, line in lines.items():
        actions = subcommands[name]._option_string_actions
        for flag, values in re.findall(r"(?<![\w-])(--?[a-z][\w-]*)(?: ([a-z|]+\|[a-z]+))?", line):
            assert flag in actions, (name, flag)
            if values:
                assert tuple(values.split("|")) == actions[flag].choices, (name, flag)


def _table_codes(module) -> set[str]:
    return set(re.findall(r"^([A-Z]\d{3})  ", module.__doc__, re.M))


def test_diagnostic_codes_are_the_tables():
    listed = set(re.findall(r"`([PVC]\d{3})`", README.read_text(encoding="utf-8")))
    tables = _table_codes(phasekit.dsl) | _table_codes(phasekit.analysis)
    assert {"P001", "V001", "C001"} <= tables
    assert listed == tables


def test_every_hint_code_is_named():
    text = README.read_text(encoding="utf-8")
    assert [code.value for code in HintCode if f"`{code.value}`" not in text] == []


#: A command that trips each threshold flag, run from the repository root.
_TRIPPED = {
    "--strict": ["check", "tests/goldens/inputs/control_cycle.phase", "--strict"],
    "--fail-under": ["coverage", "fixtures/c1.phase", "--fail-under", "1"],
    "--fail-on-change": None,  # the example session's last command
    "fmt --check": ["fmt", "fixtures/c1.phase", "--check"],
}


def test_threshold_flags_are_those_the_exit_codes_list():
    text = README.read_text(encoding="utf-8")
    listed = re.search(r"`1` findings above a requested threshold\s*\(([^)]*)\)", text)
    assert re.findall(r"`([^`]+)`", listed.group(1)) == list(_TRIPPED)


@pytest.mark.parametrize("flag", list(_TRIPPED))
def test_each_threshold_flag_exits_1_when_tripped(flag, monkeypatch, tmp_path):
    monkeypatch.chdir(README.parent)
    argv = _TRIPPED[flag] or example_session(tmp_path)[-1][0][1:]
    stdout, stderr = io.StringIO(), io.StringIO()
    assert run(argv, stdout=stdout, stderr=stderr) == 1, stderr.getvalue()
    # The same command without the flag (and its value) exits 0.
    at = argv.index(flag.split()[-1])
    without = argv[:at] + argv[at + 1 + (flag == "--fail-under"):]
    assert run(without, stdout=io.StringIO(), stderr=io.StringIO()) == 0
