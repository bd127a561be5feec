from __future__ import annotations

import io
import json
from itertools import chain

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import phasekit.analysis
import phasekit.cli
from phasekit.analysis import validate
from phasekit.cli import run

from .conftest import fixture_path

C1 = str(fixture_path("c1"))
C1_TEXT = fixture_path("c1").read_text(encoding="utf-8")
C1_REV = fixture_path("c1").parent.parent / "tests/goldens/inputs/c1_rev.phase"
C1_REPORT = C1_REV.parent.parent / "c1_report.md"
C2 = str(fixture_path("c2"))

INVALID_REF = (
    'boundary SB "s"\nloss L1 "l" category=sociotechnical\n'
    'hazard H1 "h" boundary=SB leads_to=[L1]\n'
    'uca U1 action=CA9 type=provided category=functional context="c" hazards=[H1]\n'
)

FIVE_ACTIONS = (
    'node A "a" kind=human\nnode B "b" kind=human\n'
    + "".join(f'action CA{i} from=A to=B "act"\n' for i in range(5))
    + 'boundary SB "s"\nloss L1 "l" category=sociotechnical\n'
    + 'hazard H1 "h" boundary=SB leads_to=[L1]\n'
    + 'uca U1 action=CA0 type=provided category=functional context="c" hazards=[H1]\n'
)


def cli(*argv, stdin=""):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), stdin=io.StringIO(stdin), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def write(tmp_path, text, name="doc.phase"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_check_valid_fixture():
    code, out, err = cli("check", C1)
    assert code == 0
    assert out == ""
    assert err == ""


def test_check_parse_error_exit_2(tmp_path):
    path = write(tmp_path, 'loss L1 "x" category=bogus')
    code, out, err = cli("check", path)
    assert code == 2
    assert out == ""
    assert f"{path}:1:" in err
    assert "error[P004]" in err


def test_check_validation_error_exit_2(tmp_path):
    path = write(tmp_path, INVALID_REF)
    code, _, err = cli("check", path)
    assert code == 2
    assert "error[V001]" in err
    assert "CA9" in err


def test_check_strict_warnings_exit_1(tmp_path):
    path = write(tmp_path, 'node A "a" kind=human\naction CA1 from=A to=A "self"')
    code, _, err = cli("check", path)
    assert code == 0
    assert "warning[V100]" in err
    code, _, _ = cli("check", path, "--strict")
    assert code == 1


def test_check_reads_stdin():
    code, out, err = cli("check", "-", stdin='loss L1 "x" category=sociotechnical\n')
    assert code == 0
    code, _, err = cli("check", "-", stdin='loss L1 "x" category=zzz\n')
    assert code == 2
    assert "<stdin>:1:" in err


def test_coverage_fail_under(tmp_path):
    path = write(tmp_path, FIVE_ACTIONS)
    code, out, _ = cli("coverage", path, "--fail-under", "0.5")
    assert code == 1
    assert "ratio 0.05" in out
    code, _, _ = cli("coverage", path, "--fail-under", "0.04")
    assert code == 0


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "7", "-0.1", "1.5", "half"])
def test_coverage_fail_under_rejects_non_ratios(tmp_path, value):
    path = write(tmp_path, FIVE_ACTIONS)
    code, out, err = cli("coverage", path, f"--fail-under={value}")
    assert code == 3
    assert out == ""
    assert "--fail-under" in err


def test_coverage_fail_under_accepts_bounds(tmp_path):
    path = write(tmp_path, FIVE_ACTIONS)
    assert cli("coverage", path, "--fail-under", "0")[0] == 0
    assert cli("coverage", path, "--fail-under", "1")[0] == 1


def test_coverage_formats(tmp_path):
    path = write(tmp_path, FIVE_ACTIONS)
    code, out, _ = cli("coverage", path, "--format", "csv")
    assert code == 0
    assert out.startswith("controller,action,")
    code, out, _ = cli("coverage", path, "--format", "json")
    assert json.loads(out)["counts"]["gap"] == 19


def test_coverage_boundary_scoped():
    code, out, _ = cli("coverage", C2, "--boundary", "SB2", "--format", "csv")
    assert code == 0
    actions = [line.split(",")[1] for line in out.splitlines()[1:]]
    assert actions == ["CA4", "CA3"]


def test_coverage_unknown_boundary_exit_3():
    code, _, err = cli("coverage", C2, "--boundary", "ZZ")
    assert code == 3
    assert "unknown boundary 'ZZ'" in err


def test_coverage_rejects_invalid_model(tmp_path):
    path = write(tmp_path, INVALID_REF)
    code, out, err = cli("coverage", path)
    assert code == 2
    assert out == ""
    assert "V001" in err


def test_trace_loss_text():
    code, out, _ = cli("trace", C1, "--loss", "L1")
    assert code == 0
    assert out.startswith('loss L1 "Loss of life or injury to the preterm infants"')
    assert "does not meet performance requirements" in out
    assert "does not understand the reason for the alarm" in out
    # Indentation encodes the five chain levels.
    assert "\n  hazard " in out
    assert "\n    uca " in out


def test_trace_node_text():
    code, out, _ = cli("trace", C2, "--node", "InsulinPump")
    assert code == 0
    assert "not able to release the necessary amount" in out
    assert "controls:" in out and "losses reached:" in out


def test_trace_requires_exactly_one_selector():
    code, _, err = cli("trace", C1)
    assert code == 3
    code, _, err = cli("trace", C1, "--loss", "L1", "--node", "Physician")
    assert code == 3


def test_trace_unknown_id_exit_3():
    code, _, err = cli("trace", C1, "--loss", "L99")
    assert code == 3
    assert "unknown loss 'L99'" in err


def test_hints_exit_zero_even_when_findings_exist():
    code, out, _ = cli("hints", C1)
    assert code == 0
    assert "missing-feedback" in out


def test_render_stdout_and_file(tmp_path):
    code, out, _ = cli("render", C1)
    assert code == 0
    assert out.startswith("digraph")
    target = tmp_path / "c1.dot"
    code, out, _ = cli("render", C1, "-o", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text(encoding="utf-8").startswith("digraph")


def test_render_boundary():
    code, out, _ = cli("render", C2, "--boundary", "SB2")
    assert code == 0
    assert "InsulinPump" in out and "Clinician" not in out


def test_report_json_and_md(tmp_path):
    code, out, _ = cli("report", C1, "--format", "json")
    assert code == 0
    assert json.loads(out)["metrics"]["losses"] == 4
    target = tmp_path / "r.md"
    code, out, _ = cli("report", C1, "--format", "md", "-o", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text(encoding="utf-8").startswith("# Hazard analysis report")


@pytest.mark.parametrize(
    "argv, golden", [(["report", C1, "--format", "md"], C1_REPORT), (["render", C1], None)]
)
def test_output_dash_writes_to_stdout(monkeypatch, tmp_path, argv, golden):
    """``-o -`` writes the artifact to stdout, as no ``-o`` does, and creates
    no file named ``-``."""
    monkeypatch.chdir(tmp_path)
    code, out, err = cli(*argv, "-o", "-")
    assert (code, err) == (0, "")
    assert out == (golden.read_text(encoding="utf-8") if golden else cli(*argv)[1])
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("fmt", ["md", "json"])
def test_report_validates_once(monkeypatch, fmt):
    calls = []

    def counted(model):
        calls.append(model)
        return validate(model)

    # Both bindings: the CLI's and the one analyze reaches.
    monkeypatch.setattr(phasekit.cli, "validate", counted)
    monkeypatch.setattr(phasekit.analysis, "validate", counted)
    code, _, _ = cli("report", C1, "--format", fmt)
    assert code == 0
    assert len(calls) == 1


def test_report_keeps_validation_warnings(tmp_path):
    path = write(tmp_path, 'node A "a" kind=human\naction CA1 from=A to=A "self"\n')
    code, out, err = cli("report", path, "--format", "md")
    assert (code, err) == (0, "")
    assert "warning[V100]: edge 'CA1' is a self-loop on 'A'" in out
    code, out, err = cli("report", path, "--format", "json")
    assert (code, err) == (0, "")
    (diagnostic,) = json.loads(out)["diagnostics"]
    assert (diagnostic["severity"], diagnostic["code"]) == ("warning", "V100")
    assert diagnostic["span"] == {"file": path, "line": 2, "column": 1}


def test_report_format_required():
    code, _, err = cli("report", C1)
    assert code == 3


def test_diff_identical_files():
    code, out, _ = cli("diff", C1, C1, "--fail-on-change")
    assert code == 0
    assert out == "no changes\n"


def test_diff_fail_on_change(tmp_path):
    old = write(tmp_path, 'loss L1 "a" category=sociotechnical\n', "old.phase")
    new = write(tmp_path, 'loss L1 "b" category=sociotechnical\n', "new.phase")
    code, out, _ = cli("diff", old, new)
    assert code == 0
    assert "modified:" in out
    code, _, _ = cli("diff", old, new, "--fail-on-change")
    assert code == 1


def test_diff_json_with_impact(tmp_path):
    old = write(
        tmp_path,
        'node A "a" kind=human\nnode B "b" kind=human\naction CA1 from=A to=B "x"\n',
        "old.phase",
    )
    new = write(
        tmp_path,
        'node A "a" kind=human\nnode B "b" kind=human\naction CA1 from=A to=B "y"\n',
        "new.phase",
    )
    code, out, _ = cli("diff", old, new, "--impact", "--format", "json")
    assert code == 0
    document = json.loads(out)
    assert document["modified"][0]["ref"] == {"class": "edge", "id": "CA1"}
    assert document["impact"]["re_review"][0]["subject"]["id"] == "CA1"


def test_fmt_prints_canonical(tmp_path):
    path = write(tmp_path, '# c\nloss   L1   "x"   category=sociotechnical\n')
    code, out, _ = cli("fmt", path)
    assert code == 0
    assert out == 'loss L1 "x" category=sociotechnical\n'


def test_fmt_check_flags_non_canonical(tmp_path):
    messy = write(tmp_path, 'loss   L1 "x" category=sociotechnical\n')
    code, out, err = cli("fmt", messy, "--check")
    assert code == 1
    assert "not in canonical form" in err
    canonical = write(tmp_path, 'loss L1 "x" category=sociotechnical\n', "ok.phase")
    code, _, _ = cli("fmt", canonical, "--check")
    assert code == 0


def test_fmt_write_then_check(tmp_path):
    path = write(tmp_path, 'loss   L1 "x"    category=sociotechnical\n')
    code, out, _ = cli("fmt", path, "--write")
    assert code == 0
    assert out == ""
    code, _, _ = cli("fmt", path, "--check")
    assert code == 0


def test_fmt_check_is_idempotent_on_own_output(tmp_path):
    source = write(tmp_path, 'loss  L1  "x" category=sociotechnical\n')
    _, formatted, _ = cli("fmt", source)
    again = write(tmp_path, formatted, "formatted.phase")
    code, _, _ = cli("fmt", again, "--check")
    assert code == 0


def test_unknown_subcommand_exit_3():
    code, out, err = cli("frobnicate")
    assert code == 3
    assert out == ""
    assert "usage:" in err


def test_unknown_flag_exit_3():
    code, _, err = cli("check", C1, "--wibble")
    assert code == 3


def test_unreadable_file_exit_3(tmp_path):
    code, _, err = cli("check", str(tmp_path / "missing.phase"))
    assert code == 3
    assert "cannot read" in err


def test_non_utf8_file_exit_3(tmp_path):
    path = tmp_path / "binary.phase"
    path.write_bytes(b"loss L1 \xff\xfe")
    code, _, err = cli("check", str(path))
    assert code == 3
    assert "not valid UTF-8" in err


def _bytes_stdin(data: bytes) -> io.TextIOWrapper:
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape")


def test_non_utf8_stdin_exit_3():
    out, err = io.StringIO(), io.StringIO()
    code = run(["fmt", "-"], stdin=_bytes_stdin(b'model "\xff"\n'), stdout=out, stderr=err)
    assert code == 3
    assert out.getvalue() == ""
    assert "cannot read <stdin>: not valid UTF-8" in err.getvalue()


def test_stdin_reads_like_a_file(tmp_path):
    data = b'model "caf\xc3\xa9"\r\nloss L1 "x" category=sociotechnical\r\n'
    path = tmp_path / "crlf.phase"
    path.write_bytes(data)
    from_file = cli("fmt", "--check", str(path))
    out, err = io.StringIO(), io.StringIO()
    code = run(["fmt", "--check", "-"], stdin=_bytes_stdin(data), stdout=out, stderr=err)
    assert from_file == (0, "", "")
    assert (code, out.getvalue(), err.getvalue()) == from_file


_BOM = b"\xef\xbb\xbf"


def _run_stdin_bytes(argv, data: bytes):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdin=_bytes_stdin(data), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def test_leading_byte_order_mark_is_skipped(tmp_path):
    data = _BOM + fixture_path("c1").read_bytes()
    path = tmp_path / "bom.phase"
    path.write_bytes(data)
    assert cli("check", str(path)) == (0, "", "")
    assert _run_stdin_bytes(["check", "-"], data) == (0, "", "")
    canonical = cli("fmt", C1)
    assert not canonical[1].startswith("\ufeff")
    assert cli("fmt", str(path)) == canonical
    assert _run_stdin_bytes(["fmt", "-"], data) == canonical


def test_byte_order_mark_after_the_start_is_an_unknown_character(tmp_path):
    data = b'loss L1 "x" category=safety-critical\n' + _BOM + b'loss L2 "y" category=sociotechnical\n'
    path = tmp_path / "bom2.phase"
    path.write_bytes(data)
    code, out, err = cli("check", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"{path}:2:1: error[P001]: unknown character '\\ufeff'")
    code, out, err = _run_stdin_bytes(["check", "-"], data)
    assert (code, out) == (2, "")
    assert err.startswith("<stdin>:2:1: error[P001]: unknown character '\\ufeff'")


def test_stdout_stderr_separation(tmp_path):
    path = write(tmp_path, 'node A "a" kind=human\naction CA1 from=A to=A "self"')
    code, out, err = cli("hints", path)
    assert code == 0
    assert "self-loop" in out
    assert err == ""


class _Terminal(io.StringIO):
    """A text stream that says it is a terminal."""

    def isatty(self) -> bool:
        return True


SEMANTIC_ERRORS = str(C1_REV.parent / "semantic_errors.phase")
SEMANTIC_ERRORS_STDERR = (C1_REV.parent.parent / "cli/semantic_errors_check.stderr").read_text(
    encoding="utf-8"
)


def _check_on(stderr, monkeypatch, no_color=None):
    if no_color is None:
        monkeypatch.delenv("NO_COLOR", raising=False)
    else:
        monkeypatch.setenv("NO_COLOR", no_color)
    out = io.StringIO()
    assert run(["check", SEMANTIC_ERRORS], stdout=out, stderr=stderr) == 2
    assert out.getvalue() == ""
    # The golden names the input by its path from the repository root.
    return stderr.getvalue().replace(SEMANTIC_ERRORS, "tests/goldens/inputs/semantic_errors.phase")


@pytest.mark.parametrize("no_color", [None, ""], ids=["unset", "empty"])
def test_diagnostics_on_a_terminal_are_coloured_by_severity(monkeypatch, no_color):
    # no-color.org: only a non-empty NO_COLOR turns colour off.
    lines = _check_on(_Terminal(), monkeypatch, no_color).splitlines()
    plain = SEMANTIC_ERRORS_STDERR.splitlines()
    assert len(lines) == len(plain) == 15
    for line, text in zip(lines, plain):
        code = "33" if "warning[V100]" in text else "31"
        assert line == f"\x1b[{code}m{text}\x1b[0m"
    assert sum(line.startswith("\x1b[33m") for line in lines) == 1


@pytest.mark.parametrize(
    "stderr,no_color",
    [(_Terminal, "1"), (io.StringIO, None)],
    ids=["terminal-no-color", "not-a-terminal"],
)
def test_diagnostics_are_plain_with_no_color_or_off_a_terminal(monkeypatch, stderr, no_color):
    assert _check_on(stderr(), monkeypatch, no_color) == SEMANTIC_ERRORS_STDERR


@pytest.mark.parametrize(
    "argv",
    [["hints", C1], ["coverage", C1], ["report", C1, "--format", "md"], ["fmt", C1]],
)
def test_an_artifact_on_a_terminal_is_never_styled(monkeypatch, argv):
    monkeypatch.delenv("NO_COLOR", raising=False)
    plain, terminal = io.StringIO(), _Terminal()
    assert run(argv, stdout=plain, stderr=io.StringIO()) == 0
    assert run(argv, stdout=terminal, stderr=_Terminal()) == 0
    assert terminal.getvalue() == plain.getvalue()
    assert "\x1b" not in terminal.getvalue()


def test_diff_of_an_optional_field_that_is_set_or_cleared(tmp_path):
    pump = 'node InsulinPump "Insulin pump" kind=technical-artifact'
    old_text = fixture_path("c2").read_text(encoding="utf-8")
    new_text = old_text.replace(pump, f'{pump} process_model="dose queue"')
    assert new_text != old_text
    new = write(tmp_path, new_text, "c2_pump.phase")
    code, out, err = cli("diff", C2, new)
    assert (code, err) == (0, "")
    assert out == 'modified:\n  node InsulinPump:\n    process_model: (unset) -> "dose queue"\n'
    # The reverse diff clears the field, and JSON writes an unset value as null.
    code, out, err = cli("diff", new, C2, "--format", "json")
    assert (code, err) == (0, "")
    (entry,) = json.loads(out)["modified"]
    assert entry["ref"] == {"class": "node", "id": "InsulinPump"}
    assert entry["changes"] == [{"field": "process_model", "old": "dose queue", "new": None}]


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_help_and_version_exit_zero(flag, capsys):
    code = run([flag])
    assert code == 0
    # A run given no stdout writes to the process's own.
    assert capsys.readouterr().out

@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["check", "--help"]])
def test_help_and_version_go_to_the_stdout_of_the_run(argv, capsys):
    out, err = io.StringIO(), io.StringIO()
    assert run(argv, stdout=out, stderr=err) == 0
    assert capsys.readouterr() == ("", "")
    assert err.getvalue() == ""
    assert out.getvalue().startswith("phasekit " if argv == ["--version"] else "usage: phasekit")


@pytest.mark.parametrize("argv", [["check", "a\x00b"], ["fmt", "--write", "a\x00"]])
def test_nul_byte_in_an_input_path_exit_3(argv):
    code, out, err = cli(*argv)
    assert (code, out) == (3, "")
    message, usage = err.splitlines()
    assert message == f"cannot read {argv[-1]}: embedded null byte"
    assert usage.startswith("usage: phasekit")


@pytest.mark.parametrize("argv", [["render", C1], ["report", C1, "--format", "md"]])
def test_nul_byte_in_an_output_path_exit_3(argv):
    code, out, err = cli(*argv, "-o", "x\x00y")
    assert (code, out) == (3, "")
    message, usage = err.splitlines()
    assert message == "cannot write x\x00y: embedded null byte"
    assert usage.startswith("usage: phasekit")


def test_closed_stdin_stream_exit_3():
    stdin = io.StringIO("")
    stdin.close()
    out, err = io.StringIO(), io.StringIO()
    assert run(["check", "-"], stdin=stdin, stdout=out, stderr=err) == 3
    assert err.getvalue().startswith("cannot read <stdin>: I/O operation on closed file")


@pytest.mark.parametrize("argv", [["check", C1], ["coverage", C1]])
def test_a_closed_stderr_stream_is_not_asked_when_there_is_nothing_to_print(argv):
    stderr = io.StringIO()
    stderr.close()
    assert run(argv, stdout=io.StringIO(), stderr=stderr) == 0


@pytest.mark.parametrize("flags", [[], ["--fail-on-change"], ["--impact", "--format", "json"]])
def test_diff_of_stdin_with_itself_exit_3_before_reading(flags):
    # A second read of stdin would give an empty model, and every element of
    # the first would be listed as removed.
    stdin = io.StringIO(C1_TEXT)
    out, err = io.StringIO(), io.StringIO()
    assert run(["diff", "-", "-", *flags], stdin=stdin, stdout=out, stderr=err) == 3
    assert (out.getvalue(), stdin.tell()) == ("", 0)
    message, usage = err.getvalue().splitlines()
    assert message == "OLD and NEW cannot both be stdin"
    assert usage.startswith("usage: phasekit")


def test_fmt_write_of_stdin_exit_3_before_reading():
    # A valid and an invalid document give the same refusal: neither is read.
    outcomes = set()
    for text in ('loss L1 "x" category=sociotechnical\n', 'loss L1 "x" category=zzz\n'):
        stdin = io.StringIO(text)
        out, err = io.StringIO(), io.StringIO()
        code = run(["fmt", "--write", "-"], stdin=stdin, stdout=out, stderr=err)
        assert (code, out.getvalue(), stdin.tell()) == (3, "", 0)
        outcomes.add(err.getvalue())
    (stderr,) = outcomes
    message, usage = stderr.splitlines()
    assert message == "--write cannot be used with stdin"
    assert usage.startswith("usage: phasekit")


# Placeholders the totality property draws; the test maps them to paths
# under tmp_path, so every file the runs read or write lives there. An output
# of "-" is the run's stdout.
_INPUTS = (
    "GOOD", "REV", "INVALID", "BROKEN", "BINARY", "MISSING", "DIR", "SURROGATE", "-", "a\x00b",
)
_OUTPUTS = ("OUT", "DIR", "MISSING_DIR", "SURROGATE_OUT", "x\x00y", "-")
_STDINS = ("text", "bytes", "non-utf8", "surrogate", "closed")


def _option(flag, values):
    return st.one_of(st.just([]), st.sampled_from(values).map(lambda value: [flag, value]))


def _switch(*flags):
    return st.sampled_from([[], *([flag] for flag in flags)])


def _command(name, *parts):
    return st.tuples(*parts).map(lambda drawn: [name, *chain.from_iterable(drawn)])


_FILE = st.sampled_from(_INPUTS).map(lambda path: [path])
_BOUNDARY = _option("--boundary", ["SB1", "SB9", ""])
_ARGV = st.tuples(
    st.one_of(
        st.sampled_from([[], ["--help"], ["--version"], ["frobnicate"], ["--wibble"]]),
        _command("check", _FILE, _switch("--strict")),
        _command(
            "coverage", _FILE, _BOUNDARY,
            _option("--format", ["table", "csv", "json", "xml"]),
            _option("--fail-under", ["0.5", "1", "nan", "2", "-1", "-1e999", "inf", "x"]),
        ),
        _command(
            "trace", _FILE, _option("--loss", ["L1", "L99"]),
            _option("--node", ["Physician", "Nobody"]),
        ),
        _command("hints", _FILE),
        _command("render", _FILE, _option("-o", _OUTPUTS), _BOUNDARY),
        _command(
            "report", _FILE, _option("--format", ["md", "json", "pdf"]),
            _option("-o", _OUTPUTS),
        ),
        _command(
            "diff", _FILE, _FILE, _switch("--impact"),
            _option("--format", ["text", "json", "yaml"]), _switch("--fail-on-change"),
        ),
        _command("fmt", _FILE, _switch("--write", "--check")),
    ),
    _switch("--help", "--strict", "-o", "extra"),
).map(lambda drawn: drawn[0] + drawn[1])


def _stdin(kind: str) -> io.TextIOBase:
    if kind == "text":
        return io.StringIO(C1_TEXT)
    if kind == "surrogate":
        return io.StringIO(f'model "\udcff"\n{C1_TEXT}')
    if kind == "closed":
        stream = io.StringIO(C1_TEXT)
        stream.close()
        return stream
    return _bytes_stdin(C1_TEXT.encode("utf-8") if kind == "bytes" else b'model "\xff\xfe"\n')


@settings(
    derandomize=True,
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(argv=_ARGV, stdin=st.sampled_from(_STDINS))
@example(argv=["check", "a\x00b"], stdin="text")
@example(argv=["render", "GOOD", "-o", "x\x00y"], stdin="text")
@example(argv=["report", "GOOD", "--format", "md", "-o", "x\x00y"], stdin="text")
@example(argv=["fmt", "--write", "a\x00"], stdin="text")
@example(argv=["--version"], stdin="text")
@example(argv=["check", "-"], stdin="closed")
@example(argv=["diff", "GOOD", "REV", "--impact", "--fail-on-change"], stdin="text")
def test_run_is_total(argv, stdin, tmp_path, capsys):
    """Whatever the argv and stdin, a run returns an exit code from 0 to 3,
    raises nothing and writes only to the streams it is given."""
    paths = {
        "GOOD": tmp_path / "good.phase",
        "REV": tmp_path / "rev.phase",
        "INVALID": tmp_path / "invalid.phase",
        "BROKEN": tmp_path / "broken.phase",
        "BINARY": tmp_path / "binary.phase",
        "MISSING": tmp_path / "missing.phase",
        "DIR": tmp_path,
        "SURROGATE": tmp_path / "\udcff.phase",
        "OUT": tmp_path / "out.txt",
        "MISSING_DIR": tmp_path / "missing" / "out.txt",
        "SURROGATE_OUT": tmp_path / "missing" / "\udcff",
    }
    if not paths["GOOD"].exists():
        paths["GOOD"].write_text(C1_TEXT, encoding="utf-8")
        paths["REV"].write_text(C1_REV.read_text(encoding="utf-8"), encoding="utf-8")
        paths["INVALID"].write_text(INVALID_REF, encoding="utf-8")
        paths["BROKEN"].write_text('loss L1 "x" category=bogus\n', encoding="utf-8")
        paths["BINARY"].write_bytes(b"loss L1 \xff\xfe")
    resolved = [str(paths[token]) if token in paths else token for token in argv]
    out, err = io.StringIO(), io.StringIO()
    code = run(resolved, stdin=_stdin(stdin), stdout=out, stderr=err)
    assert code in (0, 1, 2, 3)
    assert capsys.readouterr() == ("", "")
