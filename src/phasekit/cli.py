"""Command-line front end: argv in, one artifact and an exit code out.

:func:`run` parses argv, reads the document from a file or from stdin
(``-``), calls the analysis the subcommand names and writes the artifact
that :mod:`phasekit.export` builds for it to stdout, or to the ``-o`` file.
It writes only to the streams it is given, help and version text included;
a stream left as None is the process's own.

Exit codes: 0 success, 1 findings above a requested threshold, 2 parse or
validation errors, 3 usage or IO errors. Diagnostics go to stderr in
``file:line:col: severity[code]: message`` form so editors can jump to
spans; stdout carries only the requested artifact.
"""

from __future__ import annotations

import argparse
import functools
import gc
import io
import math
import os
import sys
from typing import Sequence, TextIO

from . import __version__
from .analysis import (
    _analyze,
    coverage,
    hints,
    trace_loss,
    trace_node,
    validate,
)
from .diagnostics import Diagnostic, Severity, has_errors
from .diff import diff, impact
from .dsl import parse, serialize
from .export import (
    RenderOptions,
    coverage_csv,
    coverage_json,
    coverage_table,
    diff_json,
    diff_text,
    hints_text,
    report_json,
    report_markdown,
    to_dot,
    trace_loss_text,
    trace_node_text,
)
from .model import Model, UnknownReferenceError

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_INVALID = 2
EXIT_USAGE = 3


class _UsageError(Exception):
    pass


class _Invalid(Exception):
    """The document has errors, and their diagnostics are printed."""


class _ArgumentParser(argparse.ArgumentParser):
    """argparse that reports usage problems through our exit-code scheme and
    writes help and version text to the run's stdout."""

    def __init__(self, *args, stdout: TextIO | None = None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._stdout = stdout

    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(f"{self.prog}: {message}")

    def _print_message(self, message: str, file=None) -> None:
        # --help and --version name sys.stdout; with no stdout at all,
        # argparse falls back to sys.stderr.
        super()._print_message(message, self._stdout if file is sys.stdout else file)


class _Streams:
    def __init__(self, stdin: TextIO | None, stdout: TextIO | None, stderr: TextIO) -> None:
        self.stdin = stdin
        self._stdout = stdout
        self.stderr = stderr

    @property
    def stdout(self) -> TextIO:
        """Where the artifact goes. A process started with its stdout closed
        has None there, so only writing an artifact is an error."""
        if self._stdout is None:
            raise _UsageError("cannot write <stdout>: standard output is closed")
        return self._stdout


def _styled(stream: TextIO, text: str, color: str) -> str:
    if os.environ.get("NO_COLOR"):
        return text
    if not getattr(stream, "isatty", lambda: False)():
        return text
    codes = {"red": "31", "yellow": "33"}
    return f"\x1b[{codes[color]}m{text}\x1b[0m"


def _print_diagnostics(diagnostics: Sequence[Diagnostic], streams: _Streams) -> None:
    for diagnostic in diagnostics:
        line = diagnostic.format()
        if diagnostic.severity is Severity.ERROR:
            line = _styled(streams.stderr, line, "red")
        else:
            line = _styled(streams.stderr, line, "yellow")
        print(line, file=streams.stderr)


def _read_stdin(stdin: TextIO | None) -> str:
    """Read stdin the way a file is read: strict UTF-8 with universal
    newlines. Streams without a byte buffer (such as an injected
    ``io.StringIO``) are already decoded and are read as they are. A process
    started with its stdin closed has None there."""
    if stdin is None:
        raise _UsageError("cannot read <stdin>: standard input is closed")
    buffer = getattr(stdin, "buffer", None)
    if buffer is None:
        return stdin.read()
    return io.StringIO(buffer.read().decode("utf-8"), newline=None).read()


def _read_source(path: str, streams: _Streams) -> tuple[str, str]:
    name = "<stdin>" if path == "-" else path
    try:
        if path == "-":
            return _read_stdin(streams.stdin), name
        with open(path, encoding="utf-8") as handle:
            return handle.read(), name
    except UnicodeDecodeError as exc:
        raise _UsageError(f"cannot read {name}: not valid UTF-8 ({exc.reason})") from exc
    # ValueError: a path holding a NUL byte, or a stream already closed.
    except (OSError, ValueError) as exc:
        raise _UsageError(f"cannot read {name}: {getattr(exc, 'strerror', None) or exc}") from exc


def _write(document: str, path: str | None, streams: _Streams) -> None:
    """Write ``document`` to the file at ``path``, or to stdout for none or ``-``."""
    if not path or path == "-":
        streams.stdout.write(document)
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(document)
    except (OSError, ValueError) as exc:
        raise _UsageError(f"cannot write {path}: {getattr(exc, 'strerror', None) or exc}") from exc


def _parsed(text: str, name: str, streams: _Streams) -> Model:
    """The parsed model; on a parse error print the diagnostics, raise _Invalid."""
    result = parse(text, name)
    if result.model is None:
        _print_diagnostics(result.diagnostics, streams)
        raise _Invalid
    return result.model


def _load(path: str, streams: _Streams) -> tuple[Model, list[Diagnostic]]:
    """Parse and validate: the model and its warnings, as a parse that gives a
    model reports nothing. On any error print the diagnostics, raise _Invalid."""
    model = _parsed(*_read_source(path, streams), streams)
    problems = validate(model)
    if has_errors(problems):
        _print_diagnostics(problems, streams)
        raise _Invalid
    return model, problems


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_check(args: argparse.Namespace, streams: _Streams) -> int:
    _, warnings = _load(args.file, streams)
    _print_diagnostics(warnings, streams)
    return EXIT_FINDINGS if args.strict and warnings else EXIT_OK


def _cmd_coverage(args: argparse.Namespace, streams: _Streams) -> int:
    model, _ = _load(args.file, streams)
    matrix = coverage(model, args.boundary)
    _print_diagnostics(matrix.warnings, streams)
    writer = {"table": coverage_table, "csv": coverage_csv, "json": coverage_json}[args.format]
    streams.stdout.write(writer(matrix))
    if args.fail_under is not None and matrix.ratio() < args.fail_under:
        return EXIT_FINDINGS
    return EXIT_OK


def _cmd_trace(args: argparse.Namespace, streams: _Streams) -> int:
    model, _ = _load(args.file, streams)
    if args.loss is not None:
        streams.stdout.write(trace_loss_text(model, trace_loss(model, args.loss)))
    else:
        streams.stdout.write(trace_node_text(model, trace_node(model, args.node)))
    return EXIT_OK


def _cmd_hints(args: argparse.Namespace, streams: _Streams) -> int:
    model, _ = _load(args.file, streams)
    streams.stdout.write(hints_text(hints(model)))
    return EXIT_OK


def _cmd_render(args: argparse.Namespace, streams: _Streams) -> int:
    model, _ = _load(args.file, streams)
    _write(to_dot(model, RenderOptions(args.boundary)), args.output, streams)
    return EXIT_OK


def _cmd_report(args: argparse.Namespace, streams: _Streams) -> int:
    model, problems = _load(args.file, streams)
    writer = report_json if args.format == "json" else report_markdown
    _write(writer(model, _analyze(model, problems)), args.output, streams)
    return EXIT_OK


def _cmd_diff(args: argparse.Namespace, streams: _Streams) -> int:
    # Checked before either is read: stdin can be read only once.
    if args.old == args.new == "-":
        raise _UsageError("OLD and NEW cannot both be stdin")
    old_model, _ = _load(args.old, streams)
    new_model, _ = _load(args.new, streams)
    changes = diff(old_model, new_model)
    report = impact(changes, new_model) if args.impact else None
    writer = diff_json if args.format == "json" else diff_text
    streams.stdout.write(writer(changes, report))
    if args.fail_on_change and not changes.is_empty():
        return EXIT_FINDINGS
    return EXIT_OK


def _cmd_fmt(args: argparse.Namespace, streams: _Streams) -> int:
    # Checked before stdin is read, as diff checks its two sources.
    if args.write and args.file == "-":
        raise _UsageError("--write cannot be used with stdin")
    text, name = _read_source(args.file, streams)
    canonical = serialize(_parsed(text, name, streams))
    if args.check:
        if text != canonical:
            print(f"{name}: not in canonical form", file=streams.stderr)
            return EXIT_FINDINGS
        return EXIT_OK
    _write(canonical, args.file if args.write else None, streams)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------


def _ratio(text: str) -> float:
    """argparse type for a coverage ratio: a finite number in [0, 1]."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    # NaN fails both comparisons, infinities fail one.
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"expected a ratio between 0 and 1, got {text!r}")
    return value


def _build_parser(stdout: TextIO | None) -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="phasekit",
        description="Model, analyze, render, and diff PHASE hazard analyses.",
        stdout=stdout,
    )
    parser.add_argument("--version", action="version", version=f"phasekit {__version__}")
    commands = parser.add_subparsers(
        dest="command",
        metavar="COMMAND",
        parser_class=functools.partial(_ArgumentParser, stdout=stdout),
    )
    commands.required = True

    check = commands.add_parser("check", help="parse and validate a document")
    check.add_argument("file")
    check.add_argument("--strict", action="store_true", help="exit 1 on warnings")
    check.set_defaults(handler=_cmd_check)

    cov = commands.add_parser("coverage", help="show the control action x guide type grid")
    cov.add_argument("file")
    cov.add_argument("--boundary")
    cov.add_argument("--format", choices=("table", "csv", "json"), default="table")
    cov.add_argument("--fail-under", type=_ratio, dest="fail_under")
    cov.set_defaults(handler=_cmd_coverage)

    trace = commands.add_parser("trace", help="trace a loss chain or a node's accountability")
    trace.add_argument("file")
    group = trace.add_mutually_exclusive_group(required=True)
    group.add_argument("--loss")
    group.add_argument("--node")
    trace.set_defaults(handler=_cmd_trace)

    hint = commands.add_parser("hints", help="list advisory structural findings")
    hint.add_argument("file")
    hint.set_defaults(handler=_cmd_hints)

    render = commands.add_parser("render", help="emit a control diagram in dot form")
    render.add_argument("file")
    render.add_argument("-o", "--output")
    render.add_argument("--boundary")
    render.set_defaults(handler=_cmd_render)

    report = commands.add_parser("report", help="emit a full analysis report")
    report.add_argument("file")
    report.add_argument("--format", choices=("md", "json"), required=True)
    report.add_argument("-o", "--output")
    report.set_defaults(handler=_cmd_report)

    diff_cmd = commands.add_parser("diff", help="compare two document versions")
    diff_cmd.add_argument("old")
    diff_cmd.add_argument("new")
    diff_cmd.add_argument("--impact", action="store_true")
    diff_cmd.add_argument("--format", choices=("text", "json"), default="text")
    diff_cmd.add_argument("--fail-on-change", action="store_true", dest="fail_on_change")
    diff_cmd.set_defaults(handler=_cmd_diff)

    fmt = commands.add_parser("fmt", help="print or rewrite the canonical form")
    fmt.add_argument("file")
    flags = fmt.add_mutually_exclusive_group()
    flags.add_argument("--write", action="store_true")
    flags.add_argument("--check", action="store_true")
    fmt.set_defaults(handler=_cmd_fmt)

    return parser


def run(
    argv: Sequence[str],
    stdin: TextIO | None = None,
    stdout: TextIO | None = None,
    stderr: TextIO | None = None,
) -> int:
    """Execute one CLI invocation and return its exit code.

    A stream left as None is the process's own. ``--help`` and ``--version``
    write to ``stdout`` like any artifact.

    The cyclic garbage collector is paused for the run and turned back on
    afterwards only if it was on when the run began, so a caller that keeps
    it off finds it off. Pausing it is safe because reference counting frees
    what a run allocates: models, their index and analysis results hold no
    reference cycles. The one cycle a run leaves, argparse's own parser,
    waits for the collector's next pass.
    """
    streams = _Streams(
        stdin if stdin is not None else sys.stdin,
        stdout if stdout is not None else sys.stdout,
        stderr if stderr is not None else sys.stderr,
    )
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv, streams)
    finally:
        if enabled:
            gc.enable()


def _run(argv: Sequence[str], streams: _Streams) -> int:
    parser = _build_parser(streams._stdout)
    try:
        args = parser.parse_args(list(argv))
        return args.handler(args, streams)
    except _UsageError as exc:
        print(str(exc), file=streams.stderr)
        print(parser.format_usage().rstrip(), file=streams.stderr)
        return EXIT_USAGE
    except _Invalid:
        return EXIT_INVALID
    except UnknownReferenceError as exc:
        print(f"phasekit: {exc}", file=streams.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        return EXIT_OK
    except SystemExit as exc:  # argparse --help / --version
        return int(exc.code or 0)


def main(argv: Sequence[str] | None = None) -> int:
    """The process entry point of the ``phasekit`` console script and of
    ``python -m phasekit``: freeze the heap that importing phasekit built,
    then run one invocation on the process's own streams and return its
    exit code. In-process callers use :func:`run`, which freezes nothing.
    """
    # The imports leave thousands of objects for the collector to track
    # (record methods, enums, compiled regexes, argparse), and the
    # collection CPython runs at shutdown would walk them all, about 15-19 ms
    # per call. gc.freeze() moves them into the permanent generation, which
    # no collection visits. The process ends after this one run, so none of
    # them would have been freed anyway. Unlike os._exit, this keeps atexit
    # handlers and the flush of the standard streams.
    gc.freeze()
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    raise SystemExit(main())
