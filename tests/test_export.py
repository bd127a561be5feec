from __future__ import annotations

import dataclasses
import json
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phasekit import (
    Assessment,
    Diagnostic,
    Hazard,
    Loss,
    LossCategory,
    Model,
    RenderOptions,
    SystemBoundary,
    Severity,
    Span,
    UnknownReferenceError,
    analyze,
    coverage,
    coverage_csv,
    diff,
    impact,
    parse,
    report_json,
    report_markdown,
    to_dot,
)
from phasekit.analysis import (
    CellState,
    CoverageCell,
    Hint,
    HintCode,
    control_hierarchy,
    trace_loss,
)
from phasekit.export import _json_text, _trace_line, coverage_json, diff_json
from phasekit.model import IDLIST, SCHEMA, STRING, EdgeKind, GuideType, Ref

from .json_oracle import oracle_coverage_document, oracle_diff_document, oracle_report_document
from .strategies import model_pairs, valid_models

GOLDENS = Path(__file__).resolve().parent / "goldens"

_NODE_LINE = re.compile(r'^  "((?:[^"\\]|\\.)*)" \[')
_EDGE_LINE = re.compile(r'^  "((?:[^"\\]|\\.)*)" -> "((?:[^"\\]|\\.)*)" \[')


def dot_nodes_and_edges(document: str) -> tuple[list[str], list[tuple[str, str]]]:
    nodes, edges = [], []
    for line in document.splitlines():
        edge_match = _EDGE_LINE.match(line)
        if edge_match:
            edges.append((edge_match.group(1), edge_match.group(2)))
            continue
        node_match = _NODE_LINE.match(line)
        if node_match:
            nodes.append(node_match.group(1))
    return nodes, edges


def model_of(text):
    result = parse(text)
    assert result.model is not None
    return result.model


TWO_NODE_LOOP = (
    'node A "Controller" kind=human\nnode B "Process" kind=technical-artifact\n'
    'action CA1 from=A to=B "push"\nfeedback FB1 from=B to=A "pull"\n'
)


def test_dot_two_node_loop():
    document = to_dot(model_of(TWO_NODE_LOOP))
    nodes, edges = dot_nodes_and_edges(document)
    assert nodes == ["A", "B"]
    assert edges == [("A", "B"), ("B", "A")]
    assert 'shape=box' in document and 'shape=ellipse' in document
    assert document.count("style=solid") == 1
    assert document.count("style=dashed") == 1
    # Rank rows: A (rank 0) is emitted before B (rank 1).
    assert document.index('rank=same; "A";') < document.index('rank=same; "B";')


def test_dot_empty_model():
    document = to_dot(Model())
    assert document == 'digraph "model" {\n  rankdir=TB;\n}\n'


def test_dot_c2_operation_rank_rows(c2):
    document = to_dot(c2, RenderOptions(boundary="SB2"))
    rows = [line for line in document.splitlines() if "rank=same" in line]
    assert rows == [
        '  { rank=same; "RLAgent"; }',
        '  { rank=same; "InsulinPump"; }',
        '  { rank=same; "Patient"; }',
    ]


def test_dot_one_edge_per_model_edge(c1):
    _, edges = dot_nodes_and_edges(to_dot(c1))
    assert len(edges) == len(c1.edges)


def test_dot_iolink_toggle(c1):
    with_links = to_dot(c1)
    without = to_dot(c1, RenderOptions(include_iolinks=False))
    assert with_links.count("style=dotted") == 1
    assert without.count("style=dotted") == 0


def test_dot_unknown_boundary(c1):
    with pytest.raises(UnknownReferenceError):
        to_dot(c1, RenderOptions(boundary="ZZ"))


def test_dot_escapes_quotes():
    model = model_of('node A "say \\"hi\\"" kind=human')
    document = to_dot(model)
    assert 'label="say \\"hi\\""' in document


def test_report_json_empty_model():
    document = json.loads(report_json(Model(), analyze(Model())))
    assert list(document) == [
        "model", "diagnostics", "coverage", "hints", "metrics", "schema_version",
    ]
    assert document["schema_version"] == "1"
    assert document["diagnostics"] == []
    assert document["hints"] == []
    assert document["coverage"]["rows"] == []
    assert document["metrics"]["coverage_ratio"] == 1.0
    assert document["metrics"]["losses"] == 0


def test_report_json_c1_metrics(c1):
    document = json.loads(report_json(c1, analyze(c1)))
    assert document["metrics"]["losses"] == 4
    assert document["metrics"]["boundaries"] == 3
    assert len(document["model"]["losses"]) == 4


def test_report_json_byte_determinism(c1):
    assert report_json(c1, analyze(c1)) == report_json(c1, analyze(c1))


def test_report_json_ratios_round_trip(c3):
    document = json.loads(report_json(c3, analyze(c3)))
    ratio = document["metrics"]["coverage_ratio"]
    assert ratio == analyze(c3).metrics.coverage_ratio


def test_markdown_c1_loss_row(c1):
    document = report_markdown(c1, analyze(c1))
    assert (
        "| L1 | Loss of life or injury to the preterm infants | safety-critical |"
        in document
    )


def test_markdown_single_gap_count():
    text = (
        'boundary SB "s"\nloss L1 "l" category=sociotechnical\n'
        'hazard H1 "h" boundary=SB leads_to=[L1]\n'
        'node A "a" kind=human\nnode B "b" kind=human\n'
        'action CA1 from=A to=B "act"\n'
        'uca U1 action=CA1 type=provided category=functional context="c" hazards=[H1]\n'
        'uca U2 action=CA1 type=not-provided category=functional context="c" hazards=[H1]\n'
        'uca U3 action=CA1 type=wrong-timing category=functional context="c" hazards=[H1]\n'
    )
    model = model_of(text)
    document = report_markdown(model, analyze(model))
    assert document.count("GAP") == 1


def markdown_cells(line: str) -> list[str]:
    """The cells of a markdown table row, split at the pipes no backslash
    escapes, still escaped."""
    segments, segment, chars = [], "", iter(line)
    for char in chars:
        if char == "|":
            segments.append(segment)
            segment = ""
        else:
            segment += char + (next(chars, "") if char == "\\" else "")
    segments.append(segment)
    return [cell[1:-1] for cell in segments[1:-1]]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.text(alphabet="\\|a", max_size=6), min_size=1, max_size=3))
@example(["a\\|b", "\\", "|", "a\\\\|b\\"])
def test_markdown_cells_split_and_unescape_to_their_text(texts):
    model = Model(
        name="escapes",
        losses=tuple(Loss(f"L{i}", t, LossCategory.SAFETY_CRITICAL) for i, t in enumerate(texts)),
        boundaries=(SystemBoundary("B1", "Boundary", includes=()),),
        hazards=tuple(Hazard(f"H{i}", t, "B1", ("L0",)) for i, t in enumerate(texts)),
    )
    rows, header = {}, None
    for line in report_markdown(model, analyze(model)).splitlines():
        if not line.startswith("|"):
            header = None
            continue
        cells = markdown_cells(line)
        header = header or cells
        assert len(cells) == len(header), line
        rows[cells[0]] = [re.sub(r"\\(.)", r"\1", cell) for cell in cells]
    marks = ["x"] + [""] * (len(texts) - 1)
    for i, text in enumerate(texts):
        assert rows[f"L{i}"] == [f"L{i}", text, "safety-critical"]
        assert rows[f"H{i}"] == [f"H{i}", text, *marks]


@pytest.mark.parametrize("name", ["c1", "c2", "c3"])
def test_markdown_golden(name, request):
    model = request.getfixturevalue(name)
    expected = (GOLDENS / f"{name}_report.md").read_text(encoding="utf-8")
    assert report_markdown(model, analyze(model)) == expected


def test_coverage_csv_all_gaps():
    text = (
        'node A "a" kind=human\nnode B "b" kind=human\n'
        + "".join(f'action CA{i} from=A to=B "act"\n' for i in range(5))
    )
    output = coverage_csv(coverage(model_of(text)))
    lines = output.splitlines()
    assert len(lines) == 6
    assert lines[0] == (
        "controller,action,provided,not-provided,wrong-timing,"
        "stopped-too-soon-applied-too-long"
    )
    assert all(line.endswith("gap,gap,gap,gap") for line in lines[1:])


def test_coverage_csv_sorted_uca_ids():
    text = (
        'boundary SB "s"\nloss L1 "l" category=sociotechnical\n'
        'hazard H1 "h" boundary=SB leads_to=[L1]\n'
        'node A "a" kind=human\nnode B "b" kind=human\n'
        'action CA1 from=A to=B "act"\n'
        'uca U2 action=CA1 type=provided category=functional context="c" hazards=[H1]\n'
        'uca U1 action=CA1 type=provided category=functional context="c" hazards=[H1]\n'
    )
    output = coverage_csv(coverage(model_of(text)))
    assert "covered:U1;U2" in output


def test_coverage_csv_empty_matrix():
    output = coverage_csv(coverage(Model()))
    assert output == (
        "controller,action,provided,not-provided,wrong-timing,"
        "stopped-too-soon-applied-too-long\n"
    )


def test_coverage_csv_rfc4180_quoting():
    model = model_of(
        'node A-x "with, comma" kind=human\nnode B "b" kind=human\n'
        'action CA1 from=A-x to=B "act"\n'
    )
    output = coverage_csv(coverage(model))
    # Controller ids cannot contain commas; quoting shows up only if a cell
    # needs it, so this asserts the writer stays RFC 4180 minimal.
    assert '"' not in output


# ---------------------------------------------------------------------------
# The JSON writer against json.dumps
# ---------------------------------------------------------------------------


def reference_json(value) -> str:
    return json.dumps(value, indent=2, ensure_ascii=False)


_SPECIAL_CHARACTERS = ["\x00", "\x1f", "\x7f", '"', "\\", "\u2028", "\u2029", "\ud800", "\udfff"]
_TEXT = st.text(
    st.one_of(st.characters(exclude_categories=()), st.sampled_from(_SPECIAL_CHARACTERS))
)
_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**200), max_value=2**200),
    st.floats(),
    st.sampled_from([-0.0, float("nan"), float("inf"), float("-inf"), 1e300, 5e-324]),
    _TEXT,
    st.sampled_from([*GuideType, *EdgeKind]),
)
_KEYS = st.one_of(_TEXT, st.sampled_from([*GuideType]))
_TREES = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(_KEYS, children, max_size=5),
    ),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(_TREES)
@example({"a": [], "b": {}, "c": [[], {}, ()], "d": {"e": {"f": []}}})
@example([True, 1, False, 0, 1.0, -0.0, None])
@example({"\u2028\ud800\x00": ["\udfff", "\x1f\x7f"]})
@example({GuideType.PROVIDED: GuideType.NOT_PROVIDED, "n": [1, 1.5, True, None]})
@example({1: "one"})  # json writes the key as "1"
def test_json_text_matches_json_dumps(value):
    for newline in ("\n", "\n  ", "\n      "):
        assert _json_text(value, newline) == reference_json(value).replace("\n", newline)


@pytest.mark.parametrize("value", [{1, 2}, [1, {2}], {"a": object()}, {(1, 2): "tuple key"}])
def test_json_text_rejects_what_json_rejects(value):
    with pytest.raises(TypeError):
        reference_json(value)
    with pytest.raises(TypeError):
        _json_text(value)


# ---------------------------------------------------------------------------
# The report writers against the dict oracle
# ---------------------------------------------------------------------------


def _outcome(write, *args):
    """The text a writer returns, or the type and message of what it raises."""
    try:
        return write(*args)
    except (TypeError, AttributeError) as error:
        return type(error), str(error)


def _oracle_report(model, analyses):
    return _json_text(oracle_report_document(model, analyses)) + "\n"


def _oracle_coverage(matrix):
    return _json_text(oracle_coverage_document(matrix)) + "\n"


def assert_writers_match_oracle(model, analyses):
    report = _outcome(report_json, model, analyses)
    assert report == _outcome(_oracle_report, model, analyses)
    grid = _outcome(coverage_json, analyses.coverage)
    assert grid == _outcome(_oracle_coverage, analyses.coverage)
    if isinstance(report, str):
        document = oracle_report_document(model, analyses)
        assert report == reference_json(document) + "\n"
    if isinstance(grid, str):
        assert grid == reference_json(oracle_coverage_document(analyses.coverage)) + "\n"


@pytest.mark.parametrize("name", ["c1", "c2", "c3"])
def test_report_writers_match_oracle_on_case_studies(name, request):
    model = request.getfixturevalue(name)
    assert_writers_match_oracle(model, analyze(model))


_WILD_TEXT = st.lists(
    st.one_of(
        st.characters(exclude_categories=()),
        st.sampled_from([*_SPECIAL_CHARACTERS, "%", "%s", "%%", "%(a)s"]),
    ),
    max_size=12,
).map("".join)


@st.composite
def wild_models(draw) -> Model:
    """Valid models whose name and text fields draw every character category,
    optional text left unset at times, and id lists that sometimes hold an id
    json must escape."""
    model = draw(valid_models())
    collections = {"name": draw(_WILD_TEXT)}
    for element_class in SCHEMA:
        elements = []
        for element in model.elements_of(element_class.name):
            changes = {}
            for slot in element_class.slots:
                if slot.kind == STRING:
                    unset = not slot.required and draw(st.booleans())
                    changes[slot.field] = None if unset else draw(_WILD_TEXT)
                elif slot.kind == IDLIST and draw(st.integers(0, 4)) == 0:
                    changes[slot.field] = (*getattr(element, slot.field), draw(_WILD_TEXT))
            elements.append(dataclasses.replace(element, **changes))
        collections[element_class.collection] = tuple(elements)
    return dataclasses.replace(model, **collections)


@settings(max_examples=150, deadline=None)
@given(wild_models())
def test_report_writers_match_oracle_on_any_text(model):
    assert_writers_match_oracle(model, analyze(model))


class _Tagged(str):
    """Text of a str subclass, which json writes as its text."""


class _Valued(str):
    """Text whose ``value`` is other text, as an enum member made by a custom
    ``__new__`` can be: json writes it as its text, the report an enum field
    as its value."""

    value = "its value"


_WRONG_VALUES = [
    None, 7, 2.5, True, "", "text", "safety-critical", (), ["N1", "N2"], ("N1", 7),
    ('say "hi"',), GuideType.PROVIDED, _Valued("its text"), {"k": ["v"]}, _Tagged("tagged"),
    object(), 3 + 4j,
]


def _every_field():
    for element_class in SCHEMA:
        for name in element_class.identity + tuple(s.field for s in element_class.slots):
            yield element_class, name


@pytest.mark.parametrize(
    "element_class, name", list(_every_field()), ids=lambda v: getattr(v, "name", v)
)
def test_report_writers_match_oracle_on_wrong_types(element_class, name, c1):
    """Every slot kind, given a wrong-typed value in a programmatic model,
    writes today's text or raises today's error."""
    analyses = analyze(c1)
    elements = c1.elements_of(element_class.name)
    assert elements
    for value in _WRONG_VALUES:
        wrong = dataclasses.replace(elements[-1], **{name: value})
        model = dataclasses.replace(
            c1, **{element_class.collection: (*elements[:-1], wrong)}
        )
        assert_writers_match_oracle(model, analyses)


def test_report_writers_raise_for_the_first_bad_value_in_document_order(c1):
    # The first loss is bad in a later column than the second: a column
    # writer meets the second's first, the document the first's.
    first, second = c1.losses[:2]
    model = dataclasses.replace(
        c1,
        losses=(
            dataclasses.replace(first, category=object()),
            dataclasses.replace(second, description=3 + 4j),
            *c1.losses[2:],
        ),
    )
    outcome = _outcome(report_json, model, analyze(c1))
    assert outcome == (TypeError, "Object of type object is not JSON serializable")
    assert outcome == _outcome(_oracle_report, model, analyze(c1))


def _control_cycle_bundle():
    model = model_of((GOLDENS / "inputs" / "control_cycle.phase").read_text(encoding="utf-8"))
    return model, analyze(model)


def test_report_writers_match_oracle_on_hints_of_every_subject_count():
    # analyze gives every hint one subject; add one of three and one of none.
    model, analyses = _control_cycle_bundle()
    _, cycles = control_hierarchy(model, model.nodes)
    assert cycles == [["Director", "Engineer", "Lead"]]
    cycle = Hint(
        HintCode.HIERARCHY_CYCLE,
        tuple(Ref("node", nid) for nid in cycles[0]),
        "control actions form a cycle among nodes 'Director', 'Engineer', 'Lead'",
    )
    bare = Hint(HintCode.ORPHAN_NODE, (), 'no subject: 100% "odd"\u2028 %s')
    hints = (*analyses.hints, cycle, bare)
    assert {len(hint.subjects) for hint in hints} == {0, 1, 3}
    assert_writers_match_oracle(model, dataclasses.replace(analyses, hints=hints))


@pytest.mark.parametrize(
    "first, second, raised",
    [
        # A subject that is not a Ref fails before any text is written.
        (
            {"message": object()},
            {"subjects": ("not a ref",)},
            (AttributeError, "'str' object has no attribute 'cls'"),
        ),
        # Of two values json cannot write, the first in document order.
        (
            {"message": object()},
            {"subjects": (Ref("node", 3 + 4j),)},
            (TypeError, "Object of type object is not JSON serializable"),
        ),
    ],
)
def test_report_writers_raise_for_wrong_typed_hints(first, second, raised):
    model, analyses = _control_cycle_bundle()
    hints = list(analyses.hints)
    hints[0] = dataclasses.replace(hints[0], **first)
    hints[1] = dataclasses.replace(hints[1], **second)
    analyses = dataclasses.replace(analyses, hints=tuple(hints))
    outcome = _outcome(report_json, model, analyses)
    assert outcome == raised
    assert outcome == _outcome(_oracle_report, model, analyses)


# Coverage grids as coverage() builds them, four cells a row and uca ids in a
# tuple, holding what a wrong-typed model puts there, and states and
# assessments of the wrong type.
_ROW_CHANGES = [("controller", None), ("controller", 7), ("action", object())]
_CELL_CHANGES = [
    ("state", "gap"), ("state", None), ("state", GuideType.PROVIDED),
    ("uca_ids", ()), ("uca_ids", ("U1", 7)), ("uca_ids", ('a"b',)),
    ("assessment", "not an assessment"),
    ("assessment", Assessment("CA1", GuideType.PROVIDED, None)),
    ("assessment", Assessment("CA1", GuideType.PROVIDED, 3 + 4j)),
]


@pytest.mark.parametrize("row_change", _ROW_CHANGES)
def test_coverage_writer_matches_oracle_on_wrong_rows(row_change, c1):
    name, value = row_change
    analyses = analyze(c1)
    rows = analyses.coverage.rows
    matrix = dataclasses.replace(
        analyses.coverage, rows=(*rows[:-1], dataclasses.replace(rows[-1], **{name: value}))
    )
    assert_writers_match_oracle(c1, dataclasses.replace(analyses, coverage=matrix))


@pytest.mark.parametrize("cell_change", _CELL_CHANGES)
def test_coverage_writer_matches_oracle_on_wrong_cells(cell_change, c1):
    name, value = cell_change
    analyses = analyze(c1)
    rows = analyses.coverage.rows
    for state in CellState:
        position, row = next(
            (i, r) for i, r in enumerate(rows) if any(c.state is state for c in r.cells)
        )
        at = next(i for i, c in enumerate(row.cells) if c.state is state)
        cells = list(row.cells)
        cells[at] = dataclasses.replace(cells[at], **{name: value})
        changed = list(rows)
        changed[position] = dataclasses.replace(row, cells=tuple(cells))
        matrix = dataclasses.replace(analyses.coverage, rows=tuple(changed))
        assert_writers_match_oracle(c1, dataclasses.replace(analyses, coverage=matrix))


def test_report_writers_raise_section_by_section(c1):
    # The writers raise the first bad section's error; the oracle builds the
    # whole document first, so a later section's AttributeError wins there.
    analyses = analyze(c1)
    model = dataclasses.replace(
        c1, losses=(dataclasses.replace(c1.losses[0], description=object()), *c1.losses[1:])
    )
    hints = (dataclasses.replace(analyses.hints[0], subjects=("not a ref",)), *analyses.hints[1:])
    analyses = dataclasses.replace(analyses, hints=hints)
    assert _outcome(report_json, model, analyses) == (
        TypeError, "Object of type object is not JSON serializable"
    )
    assert _outcome(_oracle_report, model, analyses) == (
        AttributeError, "'str' object has no attribute 'cls'"
    )


_GOOD_DIAGNOSTIC = Diagnostic(Severity.WARNING, "V100", "good", Span("f.phase", 3, 4))
_WRONG_DIAGNOSTICS = {
    "no-span": Diagnostic(Severity.ERROR, "V001", "no span"),
    "tuple-span": Diagnostic(Severity.ERROR, "V001", "tuple span", ("f.phase", 1, 2)),
    "text-severity": Diagnostic("error", "V001", "text severity", Span("f.phase", 1, 2)),
    "object-message": Diagnostic(Severity.ERROR, "V001", object(), Span("f.phase", 1, 2)),
    "odd-span": Diagnostic(Severity.ERROR, "V001", "odd span", Span("f", "5", float("nan"))),
}


@pytest.mark.parametrize("case", list(_WRONG_DIAGNOSTICS))
def test_report_writers_match_oracle_on_wrong_diagnostics(case, c1):
    analyses = analyze(c1)
    diagnostics = (_GOOD_DIAGNOSTIC, _WRONG_DIAGNOSTICS[case], _GOOD_DIAGNOSTIC)
    assert_writers_match_oracle(c1, dataclasses.replace(analyses, diagnostics=diagnostics))
    matrix = dataclasses.replace(analyses.coverage, warnings=diagnostics)
    assert_writers_match_oracle(c1, dataclasses.replace(analyses, coverage=matrix))


# ---------------------------------------------------------------------------
# The diff writer against the dict oracle
# ---------------------------------------------------------------------------


def _oracle_diff(changes, report):
    return _json_text(oracle_diff_document(changes, report)) + "\n"


def assert_diff_writer_matches_oracle(old, new):
    changes = diff(old, new)
    for report in (None, impact(changes, new)):
        expected = reference_json(oracle_diff_document(changes, report)) + "\n"
        assert diff_json(changes, report) == expected


@pytest.mark.parametrize("name", ["c1", "c2", "c3"])
def test_diff_writer_matches_oracle_on_case_studies(name, request):
    model = request.getfixturevalue(name)
    revision = model_of((GOLDENS / "inputs" / f"{name}_rev.phase").read_text(encoding="utf-8"))
    assert_diff_writer_matches_oracle(model, revision)
    assert_diff_writer_matches_oracle(revision, model)
    assert_diff_writer_matches_oracle(model, model)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(model_pairs())
def test_diff_writer_matches_oracle_on_model_pairs(pair):
    assert_diff_writer_matches_oracle(*pair)
    assert_diff_writer_matches_oracle(*reversed(pair))


def _first_replaced(records, **changes):
    return (dataclasses.replace(records[0], **changes), *records[1:])


def _with_field_changes(changes, change):
    """``changes`` with ``change`` applied to the field changes of its first
    modified element."""
    modified = _first_replaced(changes.modified, changes=change(changes.modified[0].changes))
    return dataclasses.replace(changes, modified=modified)


# One bad value per document: (how it changes the change set and the impact
# report, what the writers raise, or None when they write it as json does).
_WRONG_DIFFS = {
    "added-text": (
        lambda c, r: (dataclasses.replace(c, added=(*c.added, "not a ref")), r),
        (AttributeError, "'str' object has no attribute 'cls'"),
    ),
    "old-object": (
        lambda c, r: (_with_field_changes(c, lambda fc: _first_replaced(fc, old=object())), r),
        (TypeError, "Object of type object is not JSON serializable"),
    ),
    "change-text": (
        lambda c, r: (_with_field_changes(c, lambda fc: (*fc, "not a change")), r),
        (AttributeError, "'str' object has no attribute 'field'"),
    ),
    "ucas-list": (
        lambda c, r: (c, dataclasses.replace(r, re_review=_first_replaced(r.re_review, ucas=[7]))),
        None,
    ),
    "referenced-by-text": (
        lambda c, r: (c, dataclasses.replace(r, dangling=_first_replaced(
            r.dangling, referenced_by=(*r.dangling[0].referenced_by, "not a ref")))),
        (AttributeError, "'str' object has no attribute 'cls'"),
    ),
}


@pytest.mark.parametrize("case", list(_WRONG_DIFFS))
def test_diff_writer_matches_oracle_on_wrong_types(case, c1):
    revision = model_of((GOLDENS / "inputs" / "c1_rev.phase").read_text(encoding="utf-8"))
    changes = diff(c1, revision)
    change, raised = _WRONG_DIFFS[case]
    changes, report = change(changes, impact(changes, revision))
    outcome = _outcome(diff_json, changes, report)
    assert outcome == _outcome(_oracle_diff, changes, report)
    assert outcome == raised or (raised is None and isinstance(outcome, str))
    without_impact = _outcome(diff_json, changes, None)
    assert without_impact == _outcome(_oracle_diff, changes, None)


def test_coverage_writers_raise_for_the_first_bad_cell_in_document_order(c1):
    # The third cell has the first's shape, so a writer that took a row's
    # cells a shape at a time would meet its bad ucas before the second's
    # bad rationale.
    analyses = analyze(c1)
    row = analyses.coverage.rows[0]
    cells = (
        CoverageCell(CellState.COVERED, ("U1",)),
        CoverageCell(CellState.GAP, (), Assessment("CA1", GuideType.PROVIDED, 3 + 4j)),
        CoverageCell(CellState.COVERED, (object(),)),
        CoverageCell(CellState.GAP),
    )
    rows = (dataclasses.replace(row, cells=cells), *analyses.coverage.rows[1:])
    matrix = dataclasses.replace(analyses.coverage, rows=rows)
    assert _outcome(coverage_json, matrix) == (
        TypeError, "Object of type complex is not JSON serializable"
    )
    assert_writers_match_oracle(c1, dataclasses.replace(analyses, coverage=matrix))


# ---------------------------------------------------------------------------
# Traceability counts against a walk of the trace tree
# ---------------------------------------------------------------------------


def tree_walk_trace_line(model: Model, loss_id: str) -> str:
    """How the traceability line was counted before: every node of the
    loss's trace tree, by class."""
    reached: dict[str, set[str]] = {
        cls: set() for cls in ("hazard", "uca", "scenario", "requirement")
    }
    below = list(trace_loss(model, loss_id).children)
    while below:
        node = below.pop()
        reached[node.element_class].add(node.element_id)
        below.extend(node.children)
    return f"- {loss_id}: " + ", ".join(f"{len(ids)} {cls}s" for cls, ids in reached.items())


def assert_trace_lines_match_tree_walk(model: Model) -> None:
    for loss in model.losses:
        assert _trace_line(model, loss.id) == tree_walk_trace_line(model, loss.id)


@pytest.mark.parametrize("name", ["c1", "c2", "c3"])
def test_trace_lines_match_tree_walk_on_case_studies(name, request):
    assert_trace_lines_match_tree_walk(request.getfixturevalue(name))


@settings(max_examples=200, deadline=None)
@given(valid_models(max_per_class=6))
def test_trace_lines_match_tree_walk(model):
    # Hazards lead to several losses and ucas name several hazards, so
    # subtrees are shared between losses and within one.
    assert_trace_lines_match_tree_walk(model)


def test_trace_lines_count_shared_ids_once():
    model = model_of(
        'boundary SB "s"\nloss L1 "l" category=sociotechnical\n'
        'hazard H1 "h" boundary=SB leads_to=[L1]\nhazard H2 "h" boundary=SB leads_to=[L1]\n'
        'node A "a" kind=human\nnode B "b" kind=human\naction CA1 from=A to=B "act"\n'
        'uca U1 action=CA1 type=provided category=functional context="c" hazards=[H1,H2]\n'
        'scenario S1 uca=U1 class=technical "s"\nrequirement R1 scenarios=[S1] "r"\n'
    )
    assert _trace_line(model, "L1") == "- L1: 2 hazards, 1 ucas, 1 scenarios, 1 requirements"
    assert _trace_line(model, "L1") == tree_walk_trace_line(model, "L1")
