"""The README as a spec: its Library example and its CLI example session run
as written, from the repository root, and the session exits as the README
says. The flags of its CLI block are the parser's, the diagnostic codes it
lists are those of the ``dsl`` and ``analysis`` tables, it names every hint
code, each threshold flag it lists exits 1 on a document that trips it, and
each of its prose rules on streams (``_PROSE_RULES``) holds.

:func:`example_session` is also what the workflow's console-script step runs,
one ``phasekit`` process per command.
"""

from __future__ import annotations

import argparse
import io
import re
import shlex
import sys
from pathlib import Path

import pytest

import phasekit.analysis
import phasekit.dsl
from phasekit.analysis import HintCode
from phasekit.cli import _build_parser, run

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
C1 = str(ROOT / "fixtures" / "c1.phase")
SEMANTIC_ERRORS = str(ROOT / "tests" / "goldens" / "inputs" / "semantic_errors.phase")


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


class _Terminal(io.StringIO):
    """A text stream that says it is a terminal."""

    def isatty(self) -> bool:
        return True


def _dash_o_writes_stdout(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    stdout = io.StringIO()
    assert run(["report", C1, "--format", "md", "-o", "-"], stdout=stdout) == 0
    golden = (ROOT / "tests" / "goldens" / "c1_report.md").read_bytes().decode("utf-8")
    assert stdout.getvalue() == golden
    assert list(tmp_path.iterdir()) == []  # no file named -


def _diff_takes_one_dash(monkeypatch, tmp_path):
    text = Path(C1).read_text(encoding="utf-8")
    for argv in (["diff", "-", C1], ["diff", C1, "-"]):
        assert run(argv, stdin=io.StringIO(text), stdout=io.StringIO()) == 0, argv
    stdin, stderr = io.StringIO(text), io.StringIO()
    assert run(["diff", "-", "-"], stdin=stdin, stdout=io.StringIO(), stderr=stderr) == 3
    assert stdin.tell() == 0 and stderr.getvalue()


def _fmt_write_refuses_dash(monkeypatch, tmp_path):
    copy = tmp_path / "c1.phase"
    copy.write_text(Path(C1).read_text(encoding="utf-8"), encoding="utf-8")
    assert run(["fmt", str(copy), "--write"], stdout=io.StringIO()) == 0
    # Refused before stdin is read, so an invalid document gives no exit 2.
    stdin = io.StringIO('loss L1 "x" category=zzz\n')
    assert run(["fmt", "-", "--write"], stdin=stdin, stdout=io.StringIO(),
               stderr=io.StringIO()) == 3
    assert stdin.tell() == 0


def _closed_stdin_and_stdout_exit_3(monkeypatch, tmp_path):
    # A process started with fd 0 or fd 1 closed has None for that stream.
    monkeypatch.setattr(sys, "stdin", None)
    stderr = io.StringIO()
    assert run(["check", "-"], stdout=io.StringIO(), stderr=stderr) == 3
    assert stderr.getvalue().startswith("cannot read <stdin>: standard input is closed")
    monkeypatch.setattr(sys, "stdout", None)
    stderr = io.StringIO()
    assert run(["report", C1, "--format", "md"], stderr=stderr) == 3
    assert stderr.getvalue().startswith("cannot write <stdout>: standard output is closed")


def _no_color_suppresses_styling(monkeypatch, tmp_path):
    monkeypatch.delenv("NO_COLOR", raising=False)
    styled = _Terminal()
    assert run(["check", SEMANTIC_ERRORS], stdout=io.StringIO(), stderr=styled) == 2
    assert "\x1b[" in styled.getvalue()
    monkeypatch.setenv("NO_COLOR", "1")
    plain = _Terminal()
    assert run(["check", SEMANTIC_ERRORS], stdout=io.StringIO(), stderr=plain) == 2
    assert "\x1b[" not in plain.getvalue()
    assert plain.getvalue() == re.sub(r"\x1b\[\d*m", "", styled.getvalue())


#: Each prose rule of the README on streams, as written there (line breaks
#: read as spaces), and the behaviour it states, run through ``cli.run``.
_PROSE_RULES = {
    "`-o -` writes to stdout": _dash_o_writes_stdout,
    "only one of `diff`'s OLD and NEW may be `-`": _diff_takes_one_dash,
    "`fmt --write` cannot take `-`": _fmt_write_refuses_dash,
    "Reading `-` when stdin is closed, or writing an artifact when stdout is closed, is an IO "
    "error (`3`)": _closed_stdin_and_stdout_exit_3,
    "Set `NO_COLOR` to suppress terminal styling": _no_color_suppresses_styling,
}


@pytest.mark.parametrize("sentence", list(_PROSE_RULES))
def test_each_prose_rule_is_in_the_readme_and_holds(sentence, monkeypatch, tmp_path):
    assert sentence in " ".join(README.read_text(encoding="utf-8").split())
    _PROSE_RULES[sentence](monkeypatch, tmp_path)
