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
ensure_ascii=False)``. Its records, down to a diagnostic's span and a
hint's subjects, are written a field at a time over whole collections
(``_objects_text``) from ``SCHEMA`` and the field tables here. Only plain
values (the model name, guide types, coverage counts and ratio, metrics)
are json's own text, re-indented to their depth (``_json_text``).
"""

from __future__ import annotations

import csv
import io
import json
from itertools import accumulate, chain, compress
from operator import attrgetter, itemgetter, not_

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
    control_hierarchy,
)
from .diagnostics import record
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
    """A JSON object of keys and values already written as JSON text; every
    caller gives at least one pair."""
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


#: What json's C text encoder writes as its JSON value: text, and the enums
#: of SCHEMA, which mix in str with their value.
_TEXT_TYPES = {str, *(type(m) for c in SCHEMA for s in c.slots if s.members
                      for m in s.members.values())}


def _column_text(values: list, kind, newline: str) -> list[str]:
    """The JSON text of each value of one field of ``kind`` at ``newline``.

    Text, ids and enum members go through json's C encoder in one map, and a
    tuple of ids none of which needs escaping is joined whole. A column with
    any other value (None, a number, a list, an enum given as text, a wrong
    type) is written value by value: text through the same encoder, None as
    ``null``, and anything else through :func:`_json_text`, so the text is
    the same. A kind that is a function writes the column itself: records
    as objects (:func:`_objects`), tuples of records as lists of objects
    (:func:`_lists`), or coverage cells (:func:`_cells`).
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


def _records_text(records, fields, newline: str) -> str:
    """A JSON list at ``newline`` of an object of ``fields`` per record."""
    return _list_text(_objects_text(records, fields, newline + "  "), newline)


def _objects(fields):
    """The kind of a field whose value is a record written as an object of
    ``fields``, or None written as ``null``."""
    def column(records: list, newline: str) -> list[str]:
        objects = iter(_objects_text([r for r in records if r is not None], fields, newline))
        return ["null" if r is None else next(objects) for r in records]
    return column


def _lists(fields):
    """The kind of a field whose value is a tuple of records, each written as
    an object of ``fields``: the records of all tuples are written as one
    column, then regrouped per tuple."""
    def column(record_lists: list, newline: str) -> list[str]:
        objects = _objects_text(list(chain.from_iterable(record_lists)), fields, newline + "  ")
        ends = list(accumulate(map(len, record_lists)))
        return [_list_text(objects[start:end], newline) for start, end in zip([0, *ends], ends)]
    return column


_REF_FIELDS = [("class", attrgetter("cls"), ID), ("id", attrgetter("id"), ID)]
#: A span's line and column go through ``_column_text``'s per-value path.
_SPAN_FIELDS = [(key, attrgetter(key), STRING) for key in ("file", "line", "column")]
_DIAGNOSTIC_FIELDS = [
    ("severity", attrgetter("severity.value"), STRING),
    ("code", attrgetter("code"), STRING),
    ("message", attrgetter("message"), STRING),
    ("span", attrgetter("span"), _objects(_SPAN_FIELDS)),
]
_HINT_FIELDS = [
    ("code", attrgetter("code.value"), STRING),
    ("subjects", attrgetter("subjects"), _lists(_REF_FIELDS)),
    ("message", attrgetter("message"), STRING),
]


def _model_text(model: Model, newline: str) -> str:
    inner = newline + "  "
    pairs = [("name", _json_text(model.name, inner))]
    for c in SCHEMA:
        fields = [("id", attrgetter("id"), ID)] * len(c.identity) + [
            ("class" if s.field == "scenario_class" else s.field, attrgetter(s.field), s.kind)
            for s in c.slots
        ]
        pairs.append((c.collection, _records_text(getattr(model, c.collection), fields, inner)))
    return _object_text(pairs, newline)


def _cells(cells: list, newline: str) -> list[str]:
    """Each coverage cell as a JSON object at ``newline``, the cells written
    a shape (covered or not, assessed or not) at a time."""
    shapes: dict[tuple[bool, bool], list[int]] = {}
    for at, cell in enumerate(cells):
        shape = (cell.state is CellState.COVERED, cell.assessment is not None)
        shapes.setdefault(shape, []).append(at)
    texts: dict[int, str] = {}
    for (covered, assessed), positions in shapes.items():
        fields = [("state", attrgetter("state.value"), STRING)]
        fields += [("ucas", attrgetter("uca_ids"), IDLIST)] * covered
        fields += [("rationale", attrgetter("assessment.rationale"), STRING)] * assessed
        shaped = _objects_text([cells[at] for at in positions], fields, newline)
        texts.update(zip(positions, shaped))
    return [texts[at] for at in range(len(cells))]


#: A row's cells as an object of guide types, a column of cells per type.
_GUIDE_FIELDS = [(g.value, itemgetter(at), _cells) for at, g in enumerate(GUIDE_TYPES)]


def _coverage_text(matrix: CoverageMatrix, newline: str) -> str:
    inner = newline + "  "
    fields = [(key, attrgetter(key), ID) for key in ("controller", "action")]
    fields.append(("cells", attrgetter("cells"), _objects(_GUIDE_FIELDS)))
    covered, waived, gap = matrix.counts()
    return _object_text([
        ("guide_types", _json_text([g.value for g in GUIDE_TYPES], inner)),
        ("rows", _records_text(matrix.rows, fields, inner)),
        ("counts", _json_text({"covered": covered, "waived": waived, "gap": gap}, inner)),
        ("ratio", _json_text(matrix.ratio(), inner)),
        ("warnings", _records_text(matrix.warnings, _DIAGNOSTIC_FIELDS, inner)),
    ], newline)


def coverage_json(matrix: CoverageMatrix) -> str:
    """The coverage grid alone, as a JSON document."""
    return _coverage_text(matrix, "\n") + "\n"


def report_json(model: Model, analyses: AnalysisBundle) -> str:
    """One structured document with model, diagnostics, coverage, hints and
    metrics sections and a mandatory schema version. A value of the wrong
    type raises the error of the first section, in document order, that
    holds one."""
    # The counts, then every ratio in Metrics field order.
    metrics = dict(analyses.metrics.counts)
    for field in Metrics.__record_fields__[1:]:
        metrics[field.name] = getattr(analyses.metrics, field.name)
    inner = "\n  "
    return _object_text([
        ("model", _model_text(model, inner)),
        ("diagnostics", _records_text(analyses.diagnostics, _DIAGNOSTIC_FIELDS, inner)),
        ("coverage", _coverage_text(analyses.coverage, inner)),
        ("hints", _records_text(analyses.hints, _HINT_FIELDS, inner)),
        ("metrics", _json_text(metrics, inner)),
        ("schema_version", '"1"'),
    ], "\n") + "\n"


#: The id lists of an impact entry, in the order both diff views write them.
_IMPACT_LISTS = ("ucas", "scenarios", "hazards", "losses")

#: A field change's name is written as given, its values as enum text.
_CHANGE_FIELDS = [("field", attrgetter("field"), STRING)]
_CHANGE_FIELDS += [(key, attrgetter(key), ENUM) for key in ("old", "new")]
_MODIFIED_FIELDS = [
    ("ref", attrgetter("ref"), _objects(_REF_FIELDS)),
    ("changes", attrgetter("changes"), _lists(_CHANGE_FIELDS)),
]
_RE_REVIEW_FIELDS = [("subject", attrgetter("subject"), _objects(_REF_FIELDS))]
_RE_REVIEW_FIELDS += [(name, attrgetter(name), IDLIST) for name in _IMPACT_LISTS]
_DANGLING_FIELDS = [
    ("removed", attrgetter("removed"), _objects(_REF_FIELDS)),
    ("referenced_by", attrgetter("referenced_by"), _lists(_REF_FIELDS)),
]


def diff_json(changes: ChangeSet, report: ImpactReport | None) -> str:
    """A change set, and its impact when ``report`` is given, as a JSON
    document. A value of the wrong type raises the error of the first
    section, in document order, that holds one."""
    inner = "\n  "
    pairs = [
        ("added", _records_text(changes.added, _REF_FIELDS, inner)),
        ("removed", _records_text(changes.removed, _REF_FIELDS, inner)),
        ("modified", _records_text(changes.modified, _MODIFIED_FIELDS, inner)),
    ]
    if report is not None:
        pairs.append(("impact", _object_text([
            ("re_review", _records_text(report.re_review, _RE_REVIEW_FIELDS, inner + "  ")),
            ("dangling", _records_text(report.dangling, _DANGLING_FIELDS, inner + "  ")),
        ], inner)))
    return _object_text(pairs, "\n") + "\n"


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
