"""Command-line front end: parse, analyze, export, diff, format.

Exit codes: 0 success, 1 findings above a requested threshold, 2 parse or
validation errors, 3 usage or IO errors. Diagnostics go to stderr in
``file:line:col: severity[code]: message`` form so editors can jump to
spans; stdout carries only the requested artifact.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
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
from .diff import ChangeSet, ImpactReport, diff, impact
from .dsl import ParseResult, parse, serialize
from .export import (
    RenderOptions,
    _json_text,
    coverage_cell_text,
    coverage_csv,
    coverage_json,
    json_value,
    report_json,
    report_markdown,
    to_dot,
)
from .model import GUIDE_TYPES, SCHEMA, STRING, Model, UnknownReferenceError, lookup

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_INVALID = 2
EXIT_USAGE = 3


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    """argparse that reports usage problems through our exit-code scheme."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(f"{self.prog}: {message}")


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
    try:
        text = buffer.read().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _UsageError(f"cannot read <stdin>: not valid UTF-8 ({exc.reason})") from exc
    return io.StringIO(text, newline=None).read()


def _read_source(path: str, streams: _Streams) -> tuple[str, str]:
    if path == "-":
        return _read_stdin(streams.stdin), "<stdin>"
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read(), path
    except UnicodeDecodeError as exc:
        raise _UsageError(f"cannot read {path}: not valid UTF-8 ({exc.reason})") from exc
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc.strerror or exc}") from exc


def _write_output(path: str, document: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(document)
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _parse_source(path: str, streams: _Streams) -> tuple[ParseResult, str]:
    text, name = _read_source(path, streams)
    return parse(text, name), name


def _load_validated(path: str, streams: _Streams) -> tuple[Model | None, list[Diagnostic]]:
    """Parse and validate: the model and the diagnostics found. On any
    error print the diagnostics and return None for the model."""
    result, _ = _parse_source(path, streams)
    if result.model is None:
        _print_diagnostics(result.diagnostics, streams)
        return None, list(result.diagnostics)
    problems = validate(result.model)
    if has_errors(problems):
        _print_diagnostics(problems, streams)
        return None, problems
    return result.model, problems


def _load_valid_model(path: str, streams: _Streams) -> Model | None:
    """Parse and validate; on any error print diagnostics and return None."""
    return _load_validated(path, streams)[0]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_check(args: argparse.Namespace, streams: _Streams) -> int:
    result, _ = _parse_source(args.file, streams)
    diagnostics = list(result.diagnostics)
    if result.model is not None:
        diagnostics.extend(validate(result.model))
    _print_diagnostics(diagnostics, streams)
    if has_errors(diagnostics):
        return EXIT_INVALID
    if args.strict and diagnostics:
        return EXIT_FINDINGS
    return EXIT_OK


def _coverage_table(matrix) -> str:
    header = ["controller", "action", *(g.value for g in GUIDE_TYPES)]
    rows = [header]
    for row in matrix.rows:
        cells = [coverage_cell_text(cell) for cell in row.cells]
        rows.append([row.controller, row.action, *cells])
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip() for row in rows]
    covered, waived, gap = matrix.counts()
    lines.append(f"{covered} covered, {waived} waived, {gap} gaps; ratio {matrix.ratio()!r}")
    return "\n".join(lines) + "\n"


def _cmd_coverage(args: argparse.Namespace, streams: _Streams) -> int:
    model = _load_valid_model(args.file, streams)
    if model is None:
        return EXIT_INVALID
    matrix = coverage(model, args.boundary)
    _print_diagnostics(matrix.warnings, streams)
    if args.format == "csv":
        streams.stdout.write(coverage_csv(matrix))
    elif args.format == "json":
        streams.stdout.write(coverage_json(matrix))
    else:
        streams.stdout.write(_coverage_table(matrix))
    if args.fail_under is not None and matrix.ratio() < args.fail_under:
        return EXIT_FINDINGS
    return EXIT_OK


#: The field that describes an element of each class: its first string field.
_TEXT_FIELDS = {
    c.name: next(s.field for s in c.slots if s.kind == STRING) for c in SCHEMA
}


def _describe(model: Model, element_class: str, element_id: str) -> str:
    element = lookup(model, element_class, element_id)
    if element is None:
        return element_id
    return f'{element_id} "{getattr(element, _TEXT_FIELDS[element_class])}"'


def _cmd_trace(args: argparse.Namespace, streams: _Streams) -> int:
    model = _load_valid_model(args.file, streams)
    if model is None:
        return EXIT_INVALID
    out = streams.stdout
    if args.loss is not None:
        # Depth first, children in order, each indented one step more.
        stack = [(trace_loss(model, args.loss), 0)]
        while stack:
            node, depth = stack.pop()
            out.write("  " * depth + f"{node.element_class} "
                      + _describe(model, node.element_class, node.element_id) + "\n")
            stack.extend((child, depth + 1) for child in reversed(node.children))
    else:
        report = trace_node(model, args.node)
        out.write(f"node {_describe(model, 'node', report.node)}\n")
        sections = (
            ("controls", "edge", report.actions),
            ("ucas", "uca", report.ucas),
            ("hazards reached", "hazard", report.hazards),
            ("losses reached", "loss", report.losses),
            ("cited in scenarios", "scenario", report.scenarios),
        )
        for title, cls, ids in sections:
            if not ids:
                continue
            out.write(f"{title}:\n")
            for element_id in ids:
                out.write(f"  {_describe(model, cls, element_id)}\n")
    return EXIT_OK


def _cmd_hints(args: argparse.Namespace, streams: _Streams) -> int:
    model = _load_valid_model(args.file, streams)
    if model is None:
        return EXIT_INVALID
    for hint in hints(model):
        subjects = ",".join(ref.id for ref in hint.subjects)
        streams.stdout.write(f"{hint.code.value} {subjects}: {hint.message}\n")
    return EXIT_OK


def _cmd_render(args: argparse.Namespace, streams: _Streams) -> int:
    model = _load_valid_model(args.file, streams)
    if model is None:
        return EXIT_INVALID
    document = to_dot(model, RenderOptions(boundary=args.boundary))
    if args.output:
        _write_output(args.output, document)
    else:
        streams.stdout.write(document)
    return EXIT_OK


def _cmd_report(args: argparse.Namespace, streams: _Streams) -> int:
    model, problems = _load_validated(args.file, streams)
    if model is None:
        return EXIT_INVALID
    bundle = _analyze(model, problems)
    if args.format == "json":
        document = report_json(model, bundle)
    else:
        document = report_markdown(model, bundle)
    if args.output:
        _write_output(args.output, document)
    else:
        streams.stdout.write(document)
    return EXIT_OK


def _changeset_text(changes: ChangeSet) -> str:
    if changes.is_empty():
        return "no changes\n"
    lines: list[str] = []
    if changes.added:
        lines.append("added:")
        lines.extend(f"  {ref.cls} {ref.id}" for ref in changes.added)
    if changes.removed:
        lines.append("removed:")
        lines.extend(f"  {ref.cls} {ref.id}" for ref in changes.removed)
    if changes.modified:
        lines.append("modified:")
        for entry in changes.modified:
            lines.append(f"  {entry.ref.cls} {entry.ref.id}:")
            for change in entry.changes:
                lines.append(
                    f"    {change.field}: {_change_value(change.old)} -> "
                    f"{_change_value(change.new)}"
                )
    return "\n".join(lines) + "\n"


def _change_value(value) -> str:
    if isinstance(value, tuple):
        return "[" + ",".join(str(v) for v in value) + "]"
    if value is None:
        return "(unset)"
    if hasattr(value, "value"):
        return str(value.value)
    return json.dumps(value, ensure_ascii=False)


def _ref_json(ref) -> dict:
    return {"class": ref.cls, "id": ref.id}


def _changeset_json(changes: ChangeSet, report: ImpactReport | None) -> dict:
    document = {
        "added": [_ref_json(r) for r in changes.added],
        "removed": [_ref_json(r) for r in changes.removed],
        "modified": [
            {
                "ref": _ref_json(entry.ref),
                "changes": [
                    {
                        "field": change.field,
                        "old": json_value(change.old),
                        "new": json_value(change.new),
                    }
                    for change in entry.changes
                ],
            }
            for entry in changes.modified
        ],
    }
    if report is not None:
        document["impact"] = {
            "re_review": [
                {
                    "subject": _ref_json(entry.subject),
                    "ucas": list(entry.ucas),
                    "scenarios": list(entry.scenarios),
                    "hazards": list(entry.hazards),
                    "losses": list(entry.losses),
                }
                for entry in report.re_review
            ],
            "dangling": [
                {
                    "removed": _ref_json(entry.removed),
                    "referenced_by": [_ref_json(r) for r in entry.referenced_by],
                }
                for entry in report.dangling
            ],
        }
    return document


def _impact_text(report: ImpactReport) -> str:
    lines: list[str] = []
    if report.re_review:
        lines.append("re-review required:")
        for entry in report.re_review:
            lines.append(f"  {entry.subject.cls} {entry.subject.id}:")
            for title, ids in (
                ("ucas", entry.ucas),
                ("scenarios", entry.scenarios),
                ("hazards", entry.hazards),
                ("losses", entry.losses),
            ):
                if ids:
                    lines.append(f"    {title}: {', '.join(ids)}")
    if report.dangling:
        lines.append("dangling after removal:")
        for entry in report.dangling:
            refs = ", ".join(f"{r.cls} {r.id}" for r in entry.referenced_by)
            lines.append(
                f"  {entry.removed.cls} {entry.removed.id}: {refs or '(no references)'}"
            )
    if not lines:
        return ""
    return "\n".join(lines) + "\n"


def _cmd_diff(args: argparse.Namespace, streams: _Streams) -> int:
    old_model = _load_valid_model(args.old, streams)
    if old_model is None:
        return EXIT_INVALID
    new_model = _load_valid_model(args.new, streams)
    if new_model is None:
        return EXIT_INVALID
    changes = diff(old_model, new_model)
    report = impact(changes, new_model) if args.impact else None
    if args.format == "json":
        streams.stdout.write(_json_text(_changeset_json(changes, report)) + "\n")
    else:
        streams.stdout.write(_changeset_text(changes))
        if report is not None:
            streams.stdout.write(_impact_text(report))
    if args.fail_on_change and not changes.is_empty():
        return EXIT_FINDINGS
    return EXIT_OK


def _cmd_fmt(args: argparse.Namespace, streams: _Streams) -> int:
    text, name = _read_source(args.file, streams)
    result = parse(text, name)
    if result.model is None:
        _print_diagnostics(result.diagnostics, streams)
        return EXIT_INVALID
    canonical = serialize(result.model)
    if args.check:
        if text != canonical:
            print(f"{name}: not in canonical form", file=streams.stderr)
            return EXIT_FINDINGS
        return EXIT_OK
    if args.write:
        if args.file == "-":
            raise _UsageError("--write cannot be used with stdin")
        _write_output(args.file, canonical)
        return EXIT_OK
    streams.stdout.write(canonical)
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


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="phasekit",
        description="Model, analyze, render, and diff PHASE hazard analyses.",
    )
    parser.add_argument("--version", action="version", version=f"phasekit {__version__}")
    commands = parser.add_subparsers(dest="command", metavar="COMMAND")
    commands.required = True

    def cmd(name: str, help_text: str) -> argparse.ArgumentParser:
        sub = commands.add_parser(name, help=help_text)
        return sub

    check = cmd("check", "parse and validate a document")
    check.add_argument("file")
    check.add_argument("--strict", action="store_true", help="exit 1 on warnings")
    check.set_defaults(handler=_cmd_check)

    cov = cmd("coverage", "show the control action x guide type grid")
    cov.add_argument("file")
    cov.add_argument("--boundary")
    cov.add_argument("--format", choices=("table", "csv", "json"), default="table")
    cov.add_argument("--fail-under", type=_ratio, dest="fail_under")
    cov.set_defaults(handler=_cmd_coverage)

    trace = cmd("trace", "trace a loss chain or a node's accountability")
    trace.add_argument("file")
    group = trace.add_mutually_exclusive_group(required=True)
    group.add_argument("--loss")
    group.add_argument("--node")
    trace.set_defaults(handler=_cmd_trace)

    hint = cmd("hints", "list advisory structural findings")
    hint.add_argument("file")
    hint.set_defaults(handler=_cmd_hints)

    render = cmd("render", "emit a control diagram in dot form")
    render.add_argument("file")
    render.add_argument("-o", "--output")
    render.add_argument("--boundary")
    render.set_defaults(handler=_cmd_render)

    report = cmd("report", "emit a full analysis report")
    report.add_argument("file")
    report.add_argument("--format", choices=("md", "json"), required=True)
    report.add_argument("-o", "--output")
    report.set_defaults(handler=_cmd_report)

    diff_cmd = cmd("diff", "compare two document versions")
    diff_cmd.add_argument("old")
    diff_cmd.add_argument("new")
    diff_cmd.add_argument("--impact", action="store_true")
    diff_cmd.add_argument("--format", choices=("text", "json"), default="text")
    diff_cmd.add_argument("--fail-on-change", action="store_true", dest="fail_on_change")
    diff_cmd.set_defaults(handler=_cmd_diff)

    fmt = cmd("fmt", "print or rewrite the canonical form")
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
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
        return args.handler(args, streams)
    except _UsageError as exc:
        print(str(exc), file=streams.stderr)
        print(parser.format_usage().rstrip(), file=streams.stderr)
        return EXIT_USAGE
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
    # The imports leave some 15,000 objects for the collector to track
    # (dataclass methods, enums, compiled regexes, argparse), and the
    # collection CPython runs at shutdown would walk them all, about 15-19 ms
    # per call. gc.freeze() moves them into the permanent generation, which
    # no collection visits. The process ends after this one run, so none of
    # them would have been freed anyway. Unlike os._exit, this keeps atexit
    # handlers and the flush of the standard streams.
    gc.freeze()
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    raise SystemExit(main())
