"""Deterministic writers of every artifact phasekit emits: the control
diagram in dot (``to_dot``); the coverage grid as text, CSV and JSON
(``coverage_table``, ``coverage_csv``, ``coverage_json``); a loss chain and a
node's accountability (``trace_loss_text``, ``trace_node_text``); the hint
list (``hints_text``); the full report in markdown and JSON
(``report_markdown``, ``report_json``); a change set and its impact
(``diff_text``, ``diff_json``).

Every function here is a pure function of its inputs and emits byte-equal
output for equal inputs: no timestamps, no absolute paths, no environment
leakage. A fragment two artifacts share, such as the coverage header row,
the totals line or the line of a hint, is written by one function.
"""

from __future__ import annotations

import csv
import io
import json

from .analysis import (
    AccountabilityReport,
    AnalysisBundle,
    CellState,
    CoverageCell,
    CoverageMatrix,
    Hint,
    Metrics,
    TraceTree,
    control_hierarchy,
    trace_loss,
)
from .diagnostics import Diagnostic, record
from .diff import ChangeSet, ImpactReport
from .model import (
    ENUM,
    GUIDE_TYPES,
    IDLIST,
    SCHEMA,
    STRING,
    EdgeKind,
    ElementClass,
    Model,
    NodeKind,
    Ref,
    elements_in_boundary,
    lookup,
)

_BOX_KINDS = frozenset({NodeKind.HUMAN, NodeKind.TEAM, NodeKind.ORGANIZATION})
_EDGE_STYLES = {
    EdgeKind.CONTROL_ACTION: "solid",
    EdgeKind.FEEDBACK: "dashed",
    EdgeKind.IO_LINK: "dotted",
}


@record
class RenderOptions:
    """What :func:`to_dot` draws, and in which direction."""
    boundary: str | None = None
    include_iolinks: bool = True
    rankdir: str = "TB"  # control diagrams read top to bottom


def _dot_quote(text: str) -> str:
    escaped = text.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def to_dot(model: Model, options: RenderOptions | None = None) -> str:
    """Emit the control structure in the dot graph language.

    Humans, teams, and organizations render as boxes, technical artifacts and
    models as ellipses. Control actions are solid, feedback dashed, io-links
    dotted. Nodes are pinned into same-rank rows so the highest control
    authority renders topmost.
    """
    opts = options or RenderOptions()
    if opts.boundary is None:
        nodes, edges = model.nodes, model.edges
    else:
        nodes, edges = elements_in_boundary(model, opts.boundary)
    if not opts.include_iolinks:
        edges = tuple(e for e in edges if e.kind != EdgeKind.IO_LINK)

    ranks, _ = control_hierarchy(model, nodes)

    lines = [f"digraph {_dot_quote(model.name or 'model')} {{"]
    lines.append(f"  rankdir={opts.rankdir};")
    for node in nodes:
        shape = "box" if node.kind in _BOX_KINDS else "ellipse"
        attrs = [f"label={_dot_quote(node.name)}", f"shape={shape}"]
        notes = []
        if node.process_model:
            notes.append(f"process model: {node.process_model}")
        if node.control_algorithm:
            notes.append(f"control algorithm: {node.control_algorithm}")
        if notes:
            attrs.append(f"tooltip={_dot_quote('; '.join(notes))}")
        lines.append(f"  {_dot_quote(node.id)} [{', '.join(attrs)}];")
    by_rank: dict[int, list[str]] = {}
    for node in nodes:
        by_rank.setdefault(ranks[node.id], []).append(node.id)
    for rank in sorted(by_rank):
        row = " ".join(f"{_dot_quote(nid)};" for nid in by_rank[rank])
        lines.append(f"  {{ rank=same; {row} }}")
    for edge in edges:
        attrs = [f"label={_dot_quote(edge.label)}", f"style={_EDGE_STYLES[edge.kind]}"]
        lines.append(
            f"  {_dot_quote(edge.source)} -> {_dot_quote(edge.target)} "
            f"[{', '.join(attrs)}];"
        )
    lines.append("}")
    return "".join(line + "\n" for line in lines)


# ---------------------------------------------------------------------------
# JSON report
# ---------------------------------------------------------------------------

_encode_text = json.encoder.encode_basestring
_INFINITY = float("inf")


def _json_text(value, newline: str = "\n") -> str:
    """``json.dumps(value, indent=2, ensure_ascii=False)``, written directly.

    json's indented encoder is pure Python and yields every token through a
    chain of generators; this writes the same text with one call per
    container. ``newline`` is the line break and indentation of the depth
    ``value`` sits at. Text goes through the C function json itself uses,
    numbers through ``int.__repr__`` and ``float.__repr__``. Dict keys must
    be text, and the value must be a tree: json would also write number,
    bool and None keys and would detect a cycle, where this raises
    ``TypeError`` and ``RecursionError``.
    """
    if type(value) is str:  # most leaves are text
        return _encode_text(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        return (
            "{" + inner
            + ("," + inner).join([
                _encode_text(key) + ": "
                + (_encode_text(item) if type(item) is str else _json_text(item, inner))
                for key, item in value.items()
            ])
            + newline + "}"
        )
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + "  "
        return (
            "[" + inner
            + ("," + inner).join([
                _encode_text(item) if type(item) is str else _json_text(item, inner)
                for item in value
            ])
            + newline + "]"
        )
    # In json's order: bool is a subclass of int, a str-Enum member of str.
    if isinstance(value, str):
        return _encode_text(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == _INFINITY:
            return "Infinity"
        if value == -_INFINITY:
            return "-Infinity"
        return float.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _span_json(diagnostic: Diagnostic) -> dict | None:
    if diagnostic.span is None:
        return None
    return {
        "file": diagnostic.span.file,
        "line": diagnostic.span.line,
        "column": diagnostic.span.column,
    }


def _diagnostic_json(diagnostic: Diagnostic) -> dict:
    return {
        "severity": diagnostic.severity.value,
        "code": diagnostic.code,
        "message": diagnostic.message,
        "span": _span_json(diagnostic),
    }


def _ref_json(ref: Ref) -> dict:
    return {"class": ref.cls, "id": ref.id}


def _hint_json(hint: Hint) -> dict:
    return {
        "code": hint.code.value,
        "subjects": [_ref_json(ref) for ref in hint.subjects],
        "message": hint.message,
    }


def json_value(value):
    """A field value as JSON: an id list as a list, an enum member as its
    value text, anything else (text, None) as it is."""
    if isinstance(value, tuple):
        return list(value)
    if hasattr(value, "value"):
        return value.value
    return value


def _element_json_steps(element_class: ElementClass) -> tuple:
    """(JSON key, field, whether to convert) per field, ``id`` first, slots
    in order. Identifiers and text are written as they are."""
    steps = [("id", "id", False)] if element_class.identity else []
    for slot in element_class.slots:
        key = "class" if slot.field == "scenario_class" else slot.field
        steps.append((key, slot.field, slot.kind in (ENUM, IDLIST)))
    return tuple(steps)


_MODEL_JSON_STEPS = tuple((c, _element_json_steps(c)) for c in SCHEMA)


def _model_json(model: Model) -> dict:
    document: dict = {"name": model.name}
    for element_class, steps in _MODEL_JSON_STEPS:
        document[element_class.collection] = [
            {
                key: json_value(getattr(element, name))
                if convert
                else getattr(element, name)
                for key, name, convert in steps
            }
            for element in model.elements_of(element_class.name)
        ]
    return document


def _coverage_json(matrix: CoverageMatrix) -> dict:
    rows = []
    for row in matrix.rows:
        cells = {}
        for guide, cell in zip(GUIDE_TYPES, row.cells):
            entry: dict = {"state": cell.state.value}
            if cell.state is CellState.COVERED:
                entry["ucas"] = list(cell.uca_ids)
            if cell.assessment is not None:
                entry["rationale"] = cell.assessment.rationale
            cells[guide.value] = entry
        rows.append({"controller": row.controller, "action": row.action, "cells": cells})
    covered, waived, gap = matrix.counts()
    return {
        "guide_types": [g.value for g in GUIDE_TYPES],
        "rows": rows,
        "counts": {"covered": covered, "waived": waived, "gap": gap},
        "ratio": matrix.ratio(),
        "warnings": [_diagnostic_json(d) for d in matrix.warnings],
    }


def coverage_json(matrix: CoverageMatrix) -> str:
    """The coverage grid alone, as a JSON document."""
    return _json_text(_coverage_json(matrix)) + "\n"


def report_json(model: Model, analyses: AnalysisBundle) -> str:
    """One structured document with model, diagnostics, coverage, hints and
    metrics sections and a mandatory schema version."""
    # The counts, then every ratio in Metrics field order.
    metrics = dict(analyses.metrics.counts)
    for field in Metrics.__record_fields__[1:]:
        metrics[field.name] = getattr(analyses.metrics, field.name)
    document = {
        "model": _model_json(model),
        "diagnostics": [_diagnostic_json(d) for d in analyses.diagnostics],
        "coverage": _coverage_json(analyses.coverage),
        "hints": [_hint_json(h) for h in analyses.hints],
        "metrics": metrics,
        "schema_version": "1",
    }
    return _json_text(document) + "\n"


#: The id lists of an impact entry, in the order both diff views write them.
_IMPACT_LISTS = ("ucas", "scenarios", "hazards", "losses")


def diff_json(changes: ChangeSet, report: ImpactReport | None) -> str:
    """A change set, and its impact when ``report`` is given, as a JSON
    document."""
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
                    **{name: list(getattr(entry, name)) for name in _IMPACT_LISTS},
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
    return _json_text(document) + "\n"


# ---------------------------------------------------------------------------
# Coverage grid
# ---------------------------------------------------------------------------

_COVERAGE_HEADER = ("controller", "action", *(g.value for g in GUIDE_TYPES))


def coverage_cell_text(cell: CoverageCell) -> str:
    """``covered:<uca ids>``, ``waived`` or ``gap``: one cell of the CSV and
    text coverage tables."""
    if cell.state is CellState.COVERED:
        return "covered:" + ";".join(cell.uca_ids)
    if cell.state is CellState.WAIVED:
        return "waived"
    return "gap"


def _coverage_rows(matrix: CoverageMatrix, cell_text=coverage_cell_text) -> list[list[str]]:
    """The header row, then one row per control action."""
    return [list(_COVERAGE_HEADER)] + [
        [row.controller, row.action, *map(cell_text, row.cells)] for row in matrix.rows
    ]


def _coverage_totals(matrix: CoverageMatrix) -> str:
    covered, waived, gap = matrix.counts()
    return f"{covered} covered, {waived} waived, {gap} gaps; ratio {matrix.ratio()!r}"


def coverage_table(matrix: CoverageMatrix) -> str:
    """The coverage grid as left-aligned text columns, then the totals."""
    rows = _coverage_rows(matrix)
    widths = [max(len(r[i]) for r in rows) for i in range(len(_COVERAGE_HEADER))]
    lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip() for row in rows]
    lines.append(_coverage_totals(matrix))
    return "\n".join(lines) + "\n"


def coverage_csv(matrix: CoverageMatrix) -> str:
    """RFC 4180 rendering of the coverage grid, one row per control action,
    rows presorted by (controller, action)."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(_coverage_rows(matrix))
    return buffer.getvalue()


# ---------------------------------------------------------------------------
# Text views: traces, hints, diffs
# ---------------------------------------------------------------------------

#: The field that describes an element of each class: its first string field.
_TEXT_FIELDS = {
    c.name: next(s.field for s in c.slots if s.kind == STRING) for c in SCHEMA
}


def _describe(model: Model, element_class: str, element_id: str) -> str:
    element = lookup(model, element_class, element_id)
    if element is None:
        return element_id
    return f'{element_id} "{getattr(element, _TEXT_FIELDS[element_class])}"'


def trace_loss_text(model: Model, tree: TraceTree) -> str:
    """A loss chain depth first, children in order, each indented one step
    more than its parent."""
    lines = []
    stack = [(tree, 0)]
    while stack:
        node, depth = stack.pop()
        lines.append("  " * depth + f"{node.element_class} "
                     + _describe(model, node.element_class, node.element_id))
        stack.extend((child, depth + 1) for child in reversed(node.children))
    return "\n".join(lines) + "\n"


def trace_node_text(model: Model, report: AccountabilityReport) -> str:
    """A node, then each non-empty section of what it can influence."""
    lines = [f"node {_describe(model, 'node', report.node)}"]
    for title, cls, ids in (
        ("controls", "edge", report.actions),
        ("ucas", "uca", report.ucas),
        ("hazards reached", "hazard", report.hazards),
        ("losses reached", "loss", report.losses),
        ("cited in scenarios", "scenario", report.scenarios),
    ):
        if ids:
            lines.append(f"{title}:")
            lines.extend(f"  {_describe(model, cls, element_id)}" for element_id in ids)
    return "\n".join(lines) + "\n"


def _hint_text(hint: Hint) -> str:
    return f"{hint.code.value} {','.join(ref.id for ref in hint.subjects)}: {hint.message}"


def hints_text(found: list[Hint]) -> str:
    """One line per hint: code, subject ids, message."""
    return "".join(_hint_text(hint) + "\n" for hint in found)


def _ref_text(ref: Ref) -> str:
    return f"{ref.cls} {ref.id}"


def _change_value(value) -> str:
    if isinstance(value, tuple):
        return "[" + ",".join(str(v) for v in value) + "]"
    if value is None:
        return "(unset)"
    if hasattr(value, "value"):
        return str(value.value)
    return _json_text(value)


def diff_text(changes: ChangeSet, report: ImpactReport | None) -> str:
    """A change set, then its impact when ``report`` is given."""
    lines = ["no changes"] if changes.is_empty() else []
    for title, refs in (("added", changes.added), ("removed", changes.removed)):
        if refs:
            lines.append(f"{title}:")
            lines.extend(f"  {_ref_text(ref)}" for ref in refs)
    if changes.modified:
        lines.append("modified:")
        for entry in changes.modified:
            lines.append(f"  {_ref_text(entry.ref)}:")
            lines.extend(
                f"    {change.field}: {_change_value(change.old)} -> {_change_value(change.new)}"
                for change in entry.changes
            )
    if report is not None and report.re_review:
        lines.append("re-review required:")
        for entry in report.re_review:
            lines.append(f"  {_ref_text(entry.subject)}:")
            for name in _IMPACT_LISTS:
                ids = getattr(entry, name)
                if ids:
                    lines.append(f"    {name}: {', '.join(ids)}")
    if report is not None and report.dangling:
        lines.append("dangling after removal:")
        for entry in report.dangling:
            refs = ", ".join(map(_ref_text, entry.referenced_by))
            lines.append(f"  {_ref_text(entry.removed)}: {refs or '(no references)'}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Markdown report
# ---------------------------------------------------------------------------


def _md_cell(text: str) -> str:
    return text.replace("\\", "\\\\").replace("|", "\\|")


def _md_table(header: list[str], rows: list[list[str]]) -> list[str]:
    lines = ["| " + " | ".join(header) + " |"]
    lines.append("|" + "|".join(" --- " for _ in header) + "|")
    for row in rows:
        lines.append("| " + " | ".join(_md_cell(cell) for cell in row) + " |")
    return lines


def _md_section(title: str, lines: list[str], empty: str) -> list[str]:
    """A heading, a blank line, ``lines`` (or ``empty`` when ``lines`` is
    empty or another false value), a blank line."""
    return [f"## {title}", "", *(lines or [empty]), ""]


def _markdown_cell_text(cell: CoverageCell) -> str:
    if cell.state is CellState.COVERED:
        return "✓ " + ";".join(cell.uca_ids)
    if cell.state is CellState.WAIVED:
        return "waived"
    return "GAP"


def _trace_line(model: Model, loss_id: str) -> str:
    """A loss and how many distinct ids of each class its trace reaches."""
    reached: dict[str, set[str]] = {
        cls: set() for cls in ("hazard", "uca", "scenario", "requirement")
    }
    below = list(trace_loss(model, loss_id).children)
    while below:
        node = below.pop()
        reached[node.element_class].add(node.element_id)
        below.extend(node.children)
    return f"- {loss_id}: " + ", ".join(f"{len(ids)} {cls}s" for cls, ids in reached.items())


def report_markdown(model: Model, analyses: AnalysisBundle) -> str:
    """Human-readable rendering of the same analysis bundle."""
    loss_ids = [l.id for l in model.losses]
    grid = analyses.coverage
    coverage_rows = _coverage_rows(grid, _markdown_cell_text)
    out = [f"# Hazard analysis report: {model.name or '(unnamed model)'}", ""]
    out += _md_section(
        "Losses",
        loss_ids and _md_table(
            ["id", "description", "category"],
            [[l.id, l.description, l.category.value] for l in model.losses],
        ),
        "No losses declared.",
    )
    out += _md_section(
        "Hazard-to-loss matrix",
        model.hazards and loss_ids and _md_table(
            ["hazard", "description", *loss_ids],
            [
                [h.id, h.description, *("x" if lid in h.leads_to else "" for lid in loss_ids)]
                for h in model.hazards
            ],
        ),
        "No hazards declared.",
    )
    out += _md_section(
        "Coverage",
        grid.rows and [*_md_table(coverage_rows[0], coverage_rows[1:]), "", _coverage_totals(grid)],
        "No control actions declared.",
    )
    out += _md_section(
        "Diagnostics", [f"- {d.format()}" for d in analyses.diagnostics], "No diagnostics."
    )
    out += _md_section("Hints", [f"- {_hint_text(h)}" for h in analyses.hints], "No hints.")
    out += _md_section(
        "Traceability", [_trace_line(model, lid) for lid in loss_ids], "No losses declared."
    )
    return "\n".join(out)
