"""``cli.main`` is the process entry point of ``python -m phasekit`` and of
the console script. Every other CLI test goes through ``cli.run`` in
process; these start real processes and require the exit code and the
bytes that ``run`` gives for the same argv."""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import phasekit
from phasekit.cli import run

from .conftest import fixture_path

SRC = Path(phasekit.__file__).resolve().parent.parent
C1 = str(fixture_path("c1"))
C3 = str(fixture_path("c3"))
INPUTS = SRC.parent / "tests" / "goldens" / "inputs"
SEMANTIC_ERRORS = str(INPUTS / "semantic_errors.phase")
C1_REV = str(INPUTS / "c1_rev.phase")
INVALID = 'loss L1 "l" category=sociotechnical\nhazard H1 "h" boundary=SB leads_to=[L1]\n'
SELF_LOOP = 'node A "a" kind=human\naction CA1 from=A to=A "self"\n'


def _python(*args: str, stdin: str = "", closed: int | None = None) -> subprocess.CompletedProcess:
    """Run Python on ``args``; ``closed`` names a descriptor, 0, 1 or 2, that
    the child starts without, as after ``<&-``, ``>&-`` or ``2>&-`` in a shell
    (CPython then sets that stream to None)."""
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
        "PYTHONIOENCODING": "utf-8",
    }
    return subprocess.run(
        [sys.executable, *args],
        input=stdin.encode("utf-8"),
        capture_output=True,
        env=env,
        timeout=120,
        preexec_fn=None if closed is None else lambda: os.close(closed),
    )


def _in_process(argv: list[str], stdin: str = "") -> tuple[int, bytes, bytes]:
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdin=io.StringIO(stdin), stdout=out, stderr=err)
    return code, out.getvalue().encode("utf-8"), err.getvalue().encode("utf-8")


@pytest.mark.parametrize(
    "argv,stdin,code",
    [
        (["check", C1], "", 0),
        (["check", "-", "--strict"], SELF_LOOP, 1),
        (["check", "-"], INVALID, 2),
        (["frobnicate"], "", 3),
        # More than stdout's buffer holds, so its end reaches the pipe only
        # through the flush at exit.
        (["report", C3, "--format", "json"], "", 0),
    ],
    ids=["exit-0", "exit-1", "exit-2", "exit-3", "report-json-through-a-pipe"],
)
def test_process_matches_run(argv, stdin, code):
    process = _python("-m", "phasekit", *argv, stdin=stdin)
    assert (process.returncode, process.stdout, process.stderr) == _in_process(argv, stdin)
    assert process.returncode == code


def test_report_json_is_more_than_stdout_buffers():
    assert len(_in_process(["report", C3, "--format", "json"])[1]) > 2 * io.DEFAULT_BUFFER_SIZE


def test_render_to_a_file_writes_all_of_it(tmp_path):
    by_process, in_process = tmp_path / "process.dot", tmp_path / "run.dot"
    process = _python("-m", "phasekit", "render", C3, "-o", str(by_process))
    assert (process.returncode, process.stdout, process.stderr) == (0, b"", b"")
    assert _in_process(["render", C3, "-o", str(in_process)]) == (0, b"", b"")
    assert by_process.read_bytes() == in_process.read_bytes()
    assert by_process.read_bytes().endswith(b"}\n")


def test_main_freezes_the_import_time_heap():
    process = _python(
        "-c",
        "import gc, phasekit.cli\n"
        "before = gc.get_freeze_count()\n"
        "code = phasekit.cli.main(['--version'])\n"
        "print(code, before, gc.get_freeze_count() > 0, gc.isenabled())",
    )
    assert process.stdout.decode().splitlines()[-1] == "0 0 True True"


#: Imports the CLI, then runs every subcommand in process, printing which of
#: dataclasses and inspect are loaded after each step, and the exit codes.
CLI_IMPORTS = """
import io, json, sys
import phasekit.cli
print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))
codes = [
    phasekit.cli.run(argv, stdin=io.StringIO(), stdout=io.StringIO(), stderr=io.StringIO())
    for argv in json.loads(sys.argv[1])
]
print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))
print(*codes)
"""


def test_importing_and_running_the_cli_loads_neither_dataclasses_nor_inspect():
    inputs = SRC.parent / "tests" / "goldens" / "inputs"
    c2, rev = str(fixture_path("c2")), str(inputs / "c1_rev.phase")
    calls = [
        ["check", C1, "--strict"], ["check", str(inputs / "parse_errors.phase")],
        ["check", str(inputs / "semantic_errors.phase")], ["coverage", c2, "--format", "json"],
        ["coverage", C3, "--format", "csv"], ["trace", C1, "--loss", "L1"],
        ["trace", C1, "--node", "DataProcessingTeam"], ["hints", C3],
        ["render", c2, "--boundary", "SB2"], ["report", C3, "--format", "md"],
        ["report", C3, "--format", "json"], ["diff", C1, rev, "--impact"],
        ["diff", C1, rev, "--format", "json"], ["fmt", C1],
    ]
    # -S: no site module, which may import either on its own.
    process = _python("-S", "-c", CLI_IMPORTS, json.dumps(calls))
    assert process.stdout.decode().splitlines() == [
        "[]", "[]", "0 2 2 0 0 0 0 0 0 0 0 0 0 0"
    ], process.stderr


#: Imports phasekit before dataclasses, then compares fields() and replace()
#: on a Span and a Model with stdlib twins declared with the same fields.
LATE_DATACLASSES = """
import phasekit
import dataclasses
from phasekit import Model, Node, NodeKind, Ref, Span

SpanTwin = dataclasses.make_dataclass(
    "Span", [("file", "str"), ("line", "int"), ("column", "int")], frozen=True
)
collections = [
    ("losses", "tuple[Loss, ...]"),
    ("boundaries", "tuple[SystemBoundary, ...]"),
    ("hazards", "tuple[Hazard, ...]"),
    ("nodes", "tuple[Node, ...]"),
    ("edges", "tuple[Edge, ...]"),
    ("ucas", "tuple[Uca, ...]"),
    ("scenarios", "tuple[LossScenario, ...]"),
    ("requirements", "tuple[SafetyRequirement, ...]"),
    ("assessments", "tuple[Assessment, ...]"),
]
ModelTwin = dataclasses.make_dataclass(
    "Model",
    [
        ("name", "str", dataclasses.field(default="")),
        *((name, kind, dataclasses.field(default=())) for name, kind in collections),
        ("source_spans", "dict[Ref, Span]",
         dataclasses.field(default_factory=dict, compare=False, repr=False)),
    ],
    frozen=True,
)


def table(cls):
    return [
        (f.name, f.type, f.default, f.default_factory, f.init, f.repr, f.hash, f.compare)
        for f in dataclasses.fields(cls)
    ]


span, twin_span = Span("a.phase", 1, 2), SpanTwin("a.phase", 1, 2)
spans = {Ref("node", "A"): span}
node = Node("A", "a", NodeKind.HUMAN)
model = Model(name="m", nodes=(node,), source_spans=spans)
twin_model = ModelTwin(name="m", nodes=(node,), source_spans=spans)
new_model, new_twin = dataclasses.replace(model, name="n"), dataclasses.replace(twin_model, name="n")
print(
    table(Span) == table(SpanTwin),
    table(Model) == table(ModelTwin),
    repr(dataclasses.replace(span, line=5)) == repr(dataclasses.replace(twin_span, line=5)),
    repr(new_model) == repr(new_twin),
    new_model.source_spans is new_twin.source_spans is spans,
    dataclasses.replace(Model()).source_spans == {},
)
"""


def test_dataclasses_imported_after_phasekit_sees_the_twins_fields_and_replace():
    process = _python("-S", "-c", LATE_DATACLASSES)
    assert process.stdout.decode().splitlines()[-1] == "True True True True True True"


@pytest.mark.skipif(os.name != "posix", reason="closes a descriptor in the child")
@pytest.mark.parametrize(
    "fd,argv,code,message",
    [
        (0, ["check", "-"], 3, b"cannot read <stdin>: standard input is closed"),
        (0, ["fmt", "--check", "-"], 3, b"cannot read <stdin>: standard input is closed"),
        (1, ["report", C1, "--format", "md"], 3,
         b"cannot write <stdout>: standard output is closed"),
        (1, ["fmt", C1], 3, b"cannot write <stdout>: standard output is closed"),
        # Nothing to write: check reports only on stderr.
        (1, ["check", C1], 0, None),
        (0, ["check", C1], 0, None),
        # An unknown id is named before any artifact is written.
        (1, ["trace", C1, "--loss", "Nope"], 3, b"phasekit: unknown loss 'Nope'"),
        (1, ["render", C1, "--boundary", "Nope"], 3, b"phasekit: unknown boundary 'Nope'"),
        (1, ["coverage", C1, "--boundary", "Nope"], 3, b"phasekit: unknown boundary 'Nope'"),
        # With no stderr, diagnostics and messages are dropped, never sent to
        # stdout, and the exit code stays.
        (2, ["check", SEMANTIC_ERRORS], 2, None),
        (2, ["check", "--bogus"], 3, None),
        (2, ["fmt", "--check", C1_REV], 1, None),
        (2, ["trace", C1, "--loss", "Nope"], 3, None),
    ],
    ids=[
        "check-no-stdin", "fmt-no-stdin", "report-no-stdout", "fmt-no-stdout",
        "check-no-stdout", "file-no-stdin", "trace-unknown-loss-no-stdout",
        "render-unknown-boundary-no-stdout", "coverage-unknown-boundary-no-stdout",
        "check-errors-no-stderr", "usage-error-no-stderr", "fmt-check-no-stderr",
        "trace-unknown-loss-no-stderr",
    ],
)
def test_a_closed_standard_stream_is_a_usage_error(fd, argv, code, message):
    process = _python("-m", "phasekit", *argv, closed=fd)
    assert process.returncode == code
    if message is None:
        assert process.stderr == b""
    else:
        assert process.stderr.splitlines()[0] == message
        assert b"Traceback" not in process.stderr
    assert process.stdout == b""


@pytest.mark.skipif(os.name != "posix", reason="closes a descriptor in the child")
def test_an_artifact_needs_no_stderr():
    process = _python("-m", "phasekit", "report", C1, "--format", "md", closed=2)
    assert (process.returncode, process.stderr) == (0, b"")
    assert process.stdout == _in_process(["report", C1, "--format", "md"])[1]


@pytest.mark.skipif(os.name != "posix", reason="closes a descriptor in the child")
def test_an_artifact_written_to_a_file_needs_no_stdout(tmp_path):
    target = tmp_path / "c3.dot"
    process = _python("-m", "phasekit", "render", C3, "-o", str(target), closed=1)
    assert (process.returncode, process.stderr) == (0, b"")
    assert target.read_bytes() == _in_process(["render", C3])[1]
