"""Deterministic renderers: dot diagrams, JSON and markdown reports, CSV.

Every function here is a pure function of its inputs and emits byte-equal
output for equal inputs: no timestamps, no absolute paths, no environment
leakage.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import fields

from .analysis import (
    AnalysisBundle,
    CellState,
    CoverageCell,
    CoverageMatrix,
    Metrics,
    TraceTree,
    scope_ranks,
    trace_loss,
)
from .diagnostics import Diagnostic, record
from .model import (
    ENUM,
    GUIDE_TYPES,
    IDLIST,
    SCHEMA,
    EdgeKind,
    ElementClass,
    Model,
    NodeKind,
    elements_in_boundary,
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

    ranks = scope_ranks(model, list(nodes))

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
    for field in fields(Metrics)[1:]:
        metrics[field.name] = getattr(analyses.metrics, field.name)
    document = {
        "model": _model_json(model),
        "diagnostics": [_diagnostic_json(d) for d in analyses.diagnostics],
        "coverage": _coverage_json(analyses.coverage),
        "hints": [
            {
                "code": h.code.value,
                "subjects": [{"class": ref.cls, "id": ref.id} for ref in h.subjects],
                "message": h.message,
            }
            for h in analyses.hints
        ],
        "metrics": metrics,
        "schema_version": "1",
    }
    return _json_text(document) + "\n"


# ---------------------------------------------------------------------------
# Markdown report
# ---------------------------------------------------------------------------


def _md_cell(text: str) -> str:
    return text.replace("|", "\\|")


def _md_table(header: list[str], rows: list[list[str]]) -> list[str]:
    lines = ["| " + " | ".join(header) + " |"]
    lines.append("|" + "|".join(" --- " for _ in header) + "|")
    for row in rows:
        lines.append("| " + " | ".join(_md_cell(cell) for cell in row) + " |")
    return lines


def _markdown_cell_text(cell: CoverageCell) -> str:
    if cell.state is CellState.COVERED:
        return "✓ " + ";".join(cell.uca_ids)
    if cell.state is CellState.WAIVED:
        return "waived"
    return "GAP"


def _reached(tree: TraceTree) -> dict[str, set[str]]:
    """The distinct ids below the root of a loss trace, per class."""
    reached: dict[str, set[str]] = {
        cls: set() for cls in ("hazard", "uca", "scenario", "requirement")
    }
    below = list(tree.children)
    while below:
        node = below.pop()
        reached[node.element_class].add(node.element_id)
        below.extend(node.children)
    return reached


def report_markdown(model: Model, analyses: AnalysisBundle) -> str:
    """Human-readable rendering of the same analysis bundle."""
    out: list[str] = [f"# Hazard analysis report: {model.name or '(unnamed model)'}", ""]

    out.append("## Losses")
    out.append("")
    if model.losses:
        out.extend(
            _md_table(
                ["id", "description", "category"],
                [[l.id, l.description, l.category.value] for l in model.losses],
            )
        )
    else:
        out.append("No losses declared.")
    out.append("")

    out.append("## Hazard-to-loss matrix")
    out.append("")
    if model.hazards and model.losses:
        loss_ids = [l.id for l in model.losses]
        rows = []
        for hazard in model.hazards:
            marks = ["x" if lid in hazard.leads_to else "" for lid in loss_ids]
            rows.append([hazard.id, hazard.description, *marks])
        out.extend(_md_table(["hazard", "description", *loss_ids], rows))
    else:
        out.append("No hazards declared.")
    out.append("")

    out.append("## Coverage")
    out.append("")
    if analyses.coverage.rows:
        rows = [
            [row.controller, row.action, *(_markdown_cell_text(c) for c in row.cells)]
            for row in analyses.coverage.rows
        ]
        out.extend(
            _md_table(
                ["controller", "action", *(g.value for g in GUIDE_TYPES)], rows
            )
        )
        covered, waived, gap = analyses.coverage.counts()
        out.append("")
        out.append(
            f"{covered} covered, {waived} waived, {gap} gaps; "
            f"ratio {analyses.coverage.ratio()!r}"
        )
    else:
        out.append("No control actions declared.")
    out.append("")

    out.append("## Diagnostics")
    out.append("")
    if analyses.diagnostics:
        out.extend(f"- {d.format()}" for d in analyses.diagnostics)
    else:
        out.append("No diagnostics.")
    out.append("")

    out.append("## Hints")
    out.append("")
    if analyses.hints:
        out.extend(
            f"- {h.code.value} {','.join(ref.id for ref in h.subjects)}: {h.message}"
            for h in analyses.hints
        )
    else:
        out.append("No hints.")
    out.append("")

    out.append("## Traceability")
    out.append("")
    if model.losses:
        for loss in model.losses:
            reached = _reached(trace_loss(model, loss.id))
            out.append(
                f"- {loss.id}: {len(reached['hazard'])} hazards, "
                f"{len(reached['uca'])} ucas, {len(reached['scenario'])} scenarios, "
                f"{len(reached['requirement'])} requirements"
            )
    else:
        out.append("No losses declared.")
    out.append("")

    return "\n".join(out)


# ---------------------------------------------------------------------------
# CSV coverage table
# ---------------------------------------------------------------------------


def coverage_cell_text(cell: CoverageCell) -> str:
    """``covered:<uca ids>``, ``waived`` or ``gap``: one cell of the CSV and
    CLI coverage tables."""
    if cell.state is CellState.COVERED:
        return "covered:" + ";".join(cell.uca_ids)
    if cell.state is CellState.WAIVED:
        return "waived"
    return "gap"


def coverage_csv(matrix: CoverageMatrix) -> str:
    """RFC 4180 rendering of the coverage grid, one row per control action,
    rows presorted by (controller, action)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["controller", "action", *(g.value for g in GUIDE_TYPES)])
    for row in matrix.rows:
        writer.writerow(
            [row.controller, row.action, *(coverage_cell_text(c) for c in row.cells)]
        )
    return buffer.getvalue()
