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

Every JSON document is the text of ``json.dumps(..., indent=2,
ensure_ascii=False)``. The model, coverage and hints sections, nearly all
of a report, are written a field at a time over whole collections, with the
fields of each element class taken from ``SCHEMA``, and filled into one
template per kind of object. The other sections and the diff document are
json's own text, re-indented to the depth they sit at (``_json_text``).
"""

from __future__ import annotations

import csv
import io
import json
from itertools import accumulate, chain, compress
from operator import attrgetter, not_

from .analysis import (
    AccountabilityReport,
    AnalysisBundle,
    CellState,
    CoverageCell,
    CoverageMatrix,
    Hint,
    Metrics,
    TraceTree,
    _chain_levels,
    _coverage_ratio,
    control_hierarchy,
)
from .diagnostics import Diagnostic, record
from .diff import ChangeSet, ImpactReport
from .model import (
    ENUM,
    GUIDE_TYPES,
    ID,
    IDLIST,
    SCHEMA,
    STRING,
    EdgeKind,
    Model,
    NodeKind,
    Ref,
    elements_in_boundary,
    enum_text,
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


def _object_text(pairs, newline: str) -> str:
    """A JSON object of keys and values already written as JSON text."""
    if not pairs:
        return "{}"
    inner = newline + "  "
    pairs = ("," + inner).join([f"{_encode_text(key)}: {text}" for key, text in pairs])
    return "".join(["{", inner, pairs, newline, "}"])


def _list_text(texts: list[str], newline: str) -> str:
    """A JSON list of values already written as JSON text."""
    inner = newline + "  "
    return f"[{inner}{(',' + inner).join(texts)}{newline}]" if texts else "[]"


def _json_text(value, newline: str = "\n") -> str:
    """``json.dumps(value, indent=2, ensure_ascii=False)``, re-indented to the
    depth ``newline`` gives. json escapes every line break inside text, so
    each one left in its text is between tokens."""
    return json.dumps(value, indent=2, ensure_ascii=False).replace("\n", newline)


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


#: What json's C text encoder writes as its JSON value: text, and the enums
#: of SCHEMA, which mix in str with their value.
_TEXT_TYPES = {str, *(type(m) for c in SCHEMA for s in c.slots if s.members
                      for m in s.members.values())}


def _column_text(values: list, kind, newline: str) -> list[str]:
    """The JSON text of each value of one field of ``kind`` at ``newline``.

    Text, ids and enum members go through json's C encoder in one map, and a
    tuple of ids none of which needs escaping is joined whole. A column with
    any other value (None, a list, an enum given as text, a wrong type) is
    written value by value: text through the same encoder, None as ``null``,
    and anything else through :func:`_json_text`, so the text is the same.
    A kind that is a function writes the column itself.
    """
    if callable(kind):
        return kind(values, newline)
    try:
        if kind == IDLIST and set(map(type, values)) == {tuple}:
            ids = "".join(chain.from_iterable(values))
            if len(_encode_text(ids)) == len(ids) + 2:
                inner = newline + "  "
                wrap, join = f'[{inner}"%s"{newline}]'.__mod__, f'",{inner}"'.join
                texts = list(map(wrap, map(join, values)))
                for at in compress(range(len(values)), map(not_, values)):
                    texts[at] = "[]"
                return texts
        elif kind != IDLIST and (kind != ENUM or set(map(type, values)) <= _TEXT_TYPES):
            return list(map(_encode_text, values))
    except TypeError:
        pass
    if kind in (ENUM, IDLIST):
        values = list(map(enum_text, values))
    return [
        _encode_text(value) if type(value) is str
        else "null" if value is None
        else _json_text(value, newline)
        for value in values
    ]


def _objects_text(records, fields, newline: str) -> list[str]:
    """The JSON object of each record at ``newline``: a column per (key,
    getter, kind) of ``fields``, filled into one %-template."""
    template = _object_text([(key, "%s") for key, _, _ in fields], newline)
    inner = newline + "  "
    try:
        columns = [_column_text(list(map(get, records)), kind, inner) for _, get, kind in fields]
    except TypeError:  # raise what the first bad value in document order raises
        for record_ in records:
            for _, get, kind in fields:
                _column_text([get(record_)], kind, inner)
        raise
    return list(map(template.__mod__, zip(*columns)))


def _ref_lists(ref_lists: list, newline: str) -> list[str]:
    """Each tuple of refs as a JSON list at ``newline``: the refs of all of
    them written as one column of objects, then regrouped per tuple."""
    fields = [(key, attrgetter(name), ID) for key, name in (("class", "cls"), ("id", "id"))]
    refs = _objects_text(list(chain.from_iterable(ref_lists)), fields, newline + "  ")
    ends = list(accumulate(map(len, ref_lists)))
    return [_list_text(refs[start:end], newline) for start, end in zip([0, *ends], ends)]


def _model_text(model: Model, newline: str) -> str:
    inner = newline + "  "
    pairs = [("name", _json_text(model.name, inner))]
    for c in SCHEMA:
        fields = [("id", attrgetter("id"), ID)] * len(c.identity) + [
            ("class" if s.field == "scenario_class" else s.field, attrgetter(s.field), s.kind)
            for s in c.slots
        ]
        texts = _objects_text(getattr(model, c.collection), fields, inner + "  ")
        pairs.append((c.collection, _list_text(texts, inner)))
    return _object_text(pairs, newline)


def _row_cells(row_cells: list, newline: str) -> list[str]:
    """Each row's cells as a JSON object of guide types at ``newline``, the
    cells of all rows written a shape (covered or not, assessed or not) at a
    time."""
    cells = list(chain.from_iterable(row_cells))
    shapes: dict[tuple[bool, bool], list[int]] = {}
    for at, cell in enumerate(cells):
        shape = (cell.state is CellState.COVERED, cell.assessment is not None)
        shapes.setdefault(shape, []).append(at)
    texts: dict[int, str] = {}
    for (covered, assessed), positions in shapes.items():
        fields = [("state", attrgetter("state.value"), STRING)]
        fields += [("ucas", attrgetter("uca_ids"), IDLIST)] * covered
        fields += [("rationale", attrgetter("assessment.rationale"), STRING)] * assessed
        shaped = _objects_text([cells[at] for at in positions], fields, newline + "  ")
        texts.update(zip(positions, shaped))
    guides = _object_text([(g.value, "%s") for g in GUIDE_TYPES], newline)
    by_row = zip(*[map(texts.__getitem__, range(len(cells)))] * len(GUIDE_TYPES))
    return list(map(guides.__mod__, by_row))


def _coverage_text(matrix: CoverageMatrix, newline: str) -> str:
    inner = newline + "  "
    fields = [(key, attrgetter(key), ID) for key in ("controller", "action")]
    fields.append(("cells", attrgetter("cells"), _row_cells))
    covered, waived, gap = matrix.counts()
    return _object_text([
        ("guide_types", _json_text([g.value for g in GUIDE_TYPES], inner)),
        ("rows", _list_text(_objects_text(matrix.rows, fields, inner + "  "), inner)),
        ("counts", _json_text({"covered": covered, "waived": waived, "gap": gap}, inner)),
        ("ratio", _json_text(_coverage_ratio(covered, waived, gap), inner)),
        ("warnings", _json_text([_diagnostic_json(d) for d in matrix.warnings], inner)),
    ], newline)


def coverage_json(matrix: CoverageMatrix) -> str:
    """The coverage grid alone, as a JSON document."""
    return _coverage_text(matrix, "\n") + "\n"


def report_json(model: Model, analyses: AnalysisBundle) -> str:
    """One structured document with model, diagnostics, coverage, hints and
    metrics sections and a mandatory schema version."""
    # The counts, then every ratio in Metrics field order.
    metrics = dict(analyses.metrics.counts)
    for field in Metrics.__record_fields__[1:]:
        metrics[field.name] = getattr(analyses.metrics, field.name)
    hint_fields = [
        ("code", attrgetter("code.value"), STRING),
        ("subjects", attrgetter("subjects"), _ref_lists),
        ("message", attrgetter("message"), STRING),
    ]
    inner = "\n  "
    return _object_text([
        ("model", _model_text(model, inner)),
        ("diagnostics", _json_text([_diagnostic_json(d) for d in analyses.diagnostics], inner)),
        ("coverage", _coverage_text(analyses.coverage, inner)),
        ("hints", _list_text(_objects_text(analyses.hints, hint_fields, "\n    "), inner)),
        ("metrics", _json_text(metrics, inner)),
        ("schema_version", '"1"'),
    ], "\n") + "\n"


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
                        "old": enum_text(change.old),
                        "new": enum_text(change.new),
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
    ratio = _coverage_ratio(covered, waived, gap)
    return f"{covered} covered, {waived} waived, {gap} gaps; ratio {ratio!r}"


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
    """A loss and how many distinct ids its trace reaches at each level of
    the chain below it (see :func:`phasekit.analysis._chain_levels`)."""
    levels = _chain_levels(model, loss_id)[1:]
    return f"- {loss_id}: " + ", ".join(f"{len(ids)} {cls}s" for cls, ids in levels)


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
