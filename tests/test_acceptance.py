"""Acceptance suite: one test per criterion, each printing a pass/fail line
in the terminal summary (see conftest)."""

from __future__ import annotations

import dataclasses
import io
import json
import re
import time

import networkx as nx
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from phasekit import (
    EdgeKind,
    HintCode,
    coverage,
    diff,
    hierarchy_ranks,
    parse,
    serialize,
    trace_loss,
    validate,
)
from phasekit.cli import run
from phasekit.model import Ref

from .conftest import fixture_path, load_fixture
from .diff_oracle import element_map
from .strategies import (
    breakable_models,
    documents,
    graph_models,
    model_pairs,
    valid_models,
)

BULK = settings(
    max_examples=1000,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def cli(*argv, stdin=""):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), stdin=io.StringIO(stdin), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# 1. Fixture fidelity
# ---------------------------------------------------------------------------

EXPECTED_LOSS_REGISTERS = {
    "c1": [
        ("L1", "safety-critical"),
        ("L2", "performance-related"),
        ("L3", "performance-related"),
        ("L4", "sociotechnical"),
    ],
    "c2": [
        ("L1", "safety-critical"),
        ("L2", "sociotechnical"),
        ("L3", "performance-related"),
        ("L4", "performance-related"),
    ],
    "c3": [
        ("L1", "sociotechnical"),
        ("L2", "sociotechnical"),
        ("L3", "sociotechnical"),
        ("L4", "performance-related"),
        ("L5", "performance-related"),
        ("L6", "performance-related"),
    ],
}


@pytest.mark.acceptance("1. fixture fidelity (loss registers)")
def test_fixture_fidelity():
    started = time.monotonic()
    for name, expected in EXPECTED_LOSS_REGISTERS.items():
        model = load_fixture(name)
        assert [(l.id, l.category.value) for l in model.losses] == expected
        code, out, err = cli("report", str(fixture_path(name)), "--format", "json")
        assert code == 0 and err == ""
        metrics = json.loads(out)["metrics"]
        assert metrics["losses"] == len(expected)
    assert time.monotonic() - started < 1.0


# ---------------------------------------------------------------------------
# 2. Nine-boundary corpus
# ---------------------------------------------------------------------------

# (nodes, edges) per boundary, enumerated by hand from the fixture sources.
BOUNDARY_CONTENTS = {
    ("c1", "SB1"): (4, 4),
    ("c1", "SB2"): (3, 3),
    ("c1", "SB3"): (3, 5),
    ("c2", "SB1"): (3, 4),
    ("c2", "SB2"): (3, 4),
    ("c2", "SB3"): (3, 4),
    ("c3", "SB1"): (4, 4),
    ("c3", "SB2"): (6, 7),
    ("c3", "SB3"): (3, 3),
}

_DOT_NODE = re.compile(r'^  "((?:[^"\\]|\\.)*)" \[')
_DOT_EDGE = re.compile(r'^  "((?:[^"\\]|\\.)*)" -> "((?:[^"\\]|\\.)*)" \[')


@pytest.mark.acceptance("2. nine-boundary corpus renders to valid dot")
def test_nine_boundary_corpus():
    seen = 0
    for name in ("c1", "c2", "c3"):
        model = load_fixture(name)
        assert len(model.boundaries) == 3
        for boundary in model.boundaries:
            seen += 1
            code, out, err = cli(
                "render", str(fixture_path(name)), "--boundary", boundary.id
            )
            assert code == 0 and err == ""
            assert out.startswith("digraph ") and out.rstrip().endswith("}")
            assert out.count("{") == out.count("}")
            nodes, edges = [], []
            for line in out.splitlines():
                edge_match = _DOT_EDGE.match(line)
                if edge_match:
                    edges.append(edge_match.groups())
                    continue
                node_match = _DOT_NODE.match(line)
                if node_match:
                    nodes.append(node_match.group(1))
            expected_nodes, expected_edges = BOUNDARY_CONTENTS[(name, boundary.id)]
            assert len(nodes) == expected_nodes, (name, boundary.id, nodes)
            assert len(edges) == expected_edges, (name, boundary.id, edges)
            assert all(a in nodes and b in nodes for a, b in edges)
    assert seen == 9


# ---------------------------------------------------------------------------
# 3. Paper-anchored traces
# ---------------------------------------------------------------------------


@pytest.mark.acceptance("3. case-study traces reach the documented elements")
def test_anchored_traces():
    code, out, err = cli("trace", str(fixture_path("c1")), "--loss", "L1")
    assert code == 0 and err == ""
    assert "does not meet performance requirements" in out
    assert "does not understand the reason for the alarm" in out

    code, out, err = cli("trace", str(fixture_path("c2")), "--node", "InsulinPump")
    assert code == 0 and err == ""
    assert "not able to release the necessary amount" in out
    c2 = load_fixture("c2")
    report_ucas = [u for u in c2.ucas if u.id in ("UCA1",)]
    assert report_ucas[0].category.value == "functional"


# ---------------------------------------------------------------------------
# 4. Coverage arithmetic
# ---------------------------------------------------------------------------


@pytest.mark.acceptance("4. coverage cells partition the 4n grid")
@BULK
@given(valid_models(n_control_actions=None, unique_assessment_cells=False), st.data())
def test_coverage_arithmetic(model, data):
    # Mix in large control-action counts up to the stated bound.
    if data.draw(st.booleans()):
        model = data.draw(
            valid_models(
                n_control_actions=data.draw(st.integers(0, 50)),
                unique_assessment_cells=False,
            )
        )
    n = sum(1 for e in model.edges if e.kind is EdgeKind.CONTROL_ACTION)
    matrix = coverage(model)
    covered, waived, gap = matrix.counts()
    assert covered + waived + gap == 4 * n
    assert len(matrix.rows) == n


@pytest.mark.acceptance("4b. five untreated actions give exactly 20 gaps")
def test_coverage_twenty_gaps():
    text = (
        'node A "a" kind=human\nnode B "b" kind=human\n'
        + "".join(f'action CA{i} from=A to=B "act"\n' for i in range(5))
    )
    matrix = coverage(parse(text).model)
    assert matrix.counts() == (0, 0, 20)


# ---------------------------------------------------------------------------
# 5. Round-trip and idempotence
# ---------------------------------------------------------------------------


@pytest.mark.acceptance("5. parse/serialize round-trip and idempotence")
@BULK
@given(documents())
def test_round_trip_and_idempotence(doc):
    first = parse(doc)
    assert first.model is not None, [d.format() for d in first.diagnostics]
    canonical = serialize(first.model)
    second = parse(canonical)
    assert second.model == first.model
    assert serialize(second.model) == canonical


# ---------------------------------------------------------------------------
# 6. Oracle equivalence (validate and trace_loss)
# ---------------------------------------------------------------------------

# Independent reference topology for the brute-force scan. Deliberately
# restated here rather than imported from the implementation. The boolean
# marks list fields that must not be empty.
_ORACLE_SINGLE = {
    "hazard": (("boundary", "boundary"),),
    "scenario": (("uca", "uca"),),
}
_ORACLE_MANY = {
    "boundary": (("includes", "node", False),),
    "hazard": (("leads_to", "loss", True),),
    "uca": (("hazards", "hazard", True),),
    "requirement": (("scenarios", "scenario", True),),
}


def _oracle_validate(model):
    """Exhaustive reference enumeration, restating every validation rule."""
    ids = {
        cls: {e.id for e in model.elements_of(cls)}
        for cls in ("loss", "boundary", "hazard", "node", "edge", "uca", "scenario")
    }
    # An id declared twice names its first edge.
    edge_by_id = {e.id: e for e in reversed(model.edges)}
    findings = []

    def span_of(ref):
        span = model.source_spans.get(ref)
        return (span.file, span.line, span.column) if span else None

    def dangle(code, ref):
        findings.append((code, span_of(ref)))

    for cls, fields in _ORACLE_SINGLE.items():
        for element in model.elements_of(cls):
            for field, target in fields:
                if getattr(element, field) not in ids[target]:
                    dangle("V001", Ref(cls, element.id))
    for cls, fields in _ORACLE_MANY.items():
        for element in model.elements_of(cls):
            for field, target, required in fields:
                values = getattr(element, field)
                for value in values:
                    if value not in ids[target]:
                        dangle("V001", Ref(cls, element.id))
                if required and not values:
                    dangle("V004", Ref(cls, element.id))

    for edge in model.edges:
        ref = Ref("edge", edge.id)
        if edge.source not in ids["node"]:
            dangle("V001", ref)
        if edge.target not in ids["node"]:
            dangle("V001", ref)
        if edge.source == edge.target:
            dangle("V100", ref)

    for uca in model.ucas:
        ref = Ref("uca", uca.id)
        action = edge_by_id.get(uca.action)
        if action is None:
            dangle("V001", ref)
            if uca.source and uca.source not in ids["node"]:
                dangle("V001", ref)
        else:
            if action.kind is not EdgeKind.CONTROL_ACTION:
                dangle("V003", ref)
            if uca.source and uca.source not in ids["node"]:
                dangle("V001", ref)
            if uca.source != action.source:
                dangle("V002", ref)

    for scenario in model.scenarios:
        for value in scenario.elements:
            if value not in ids["node"] and value not in ids["edge"]:
                dangle("V001", Ref("scenario", scenario.id))

    occurrences = {}
    for assessment in model.assessments:
        key = f"{assessment.action}/{assessment.guide_type.value}"
        count = occurrences.get(key, 0)
        occurrences[key] = count + 1
        ref = Ref("assessment", key if count == 0 else f"{key}#{count + 1}")
        if assessment.action not in ids["edge"]:
            dangle("V001", ref)
        if count:
            dangle("V005", ref)

    return sorted(findings, key=repr)


def _oracle_trace(model, loss_id):
    return {
        h.id: {
            u.id: {
                s.id: {
                    r.id: {} for r in model.requirements if s.id in r.scenarios
                }
                for s in model.scenarios
                if s.uca == u.id
            }
            for u in model.ucas
            if h.id in u.hazards
        }
        for h in model.hazards
        if loss_id in h.leads_to
    }


def _tree_as_dict(tree):
    return {child.element_id: _tree_as_dict(child) for child in tree.children}


@pytest.mark.acceptance("6. validate/trace agree with brute-force oracles")
@BULK
@given(breakable_models())
def test_oracle_equivalence(model):
    total = sum(
        len(model.elements_of(cls))
        for cls in (
            "loss", "boundary", "hazard", "node", "edge",
            "uca", "scenario", "requirement", "assessment",
        )
    )
    assume(total <= 20)

    expected = _oracle_validate(model)
    actual = sorted(
        (
            (d.code, (d.span.file, d.span.line, d.span.column) if d.span else None)
            for d in validate(model)
        ),
        key=repr,
    )
    assert actual == expected

    for loss in model.losses:
        tree = trace_loss(model, loss.id)
        assert _tree_as_dict(tree) == _oracle_trace(model, loss.id)


# ---------------------------------------------------------------------------
# 7. Diff laws
# ---------------------------------------------------------------------------

_SET_FIELDS = {
    ("boundary", "includes"),
    ("hazard", "leads_to"),
    ("uca", "hazards"),
    ("scenario", "elements"),
    ("requirement", "scenarios"),
}


def _normalized(ref, element):
    values = []
    for field in dataclasses.fields(element):
        value = getattr(element, field.name)
        if (ref.cls, field.name) in _SET_FIELDS:
            value = frozenset(value)
        values.append((field.name, value))
    return tuple(values)


@pytest.mark.acceptance("7. diff identity, symmetry, and replay laws")
@BULK
@given(model_pairs())
def test_diff_laws(pair):
    a, b = pair
    assert diff(a, a).is_empty()
    assert diff(b, b).is_empty()

    forward = diff(a, b)
    backward = diff(b, a)
    assert set(forward.added) == set(backward.removed)
    assert set(forward.removed) == set(backward.added)

    a_map, b_map = element_map(a), element_map(b)
    replayed = {ref: e for ref, e in a_map.items() if ref not in set(forward.removed)}
    for ref in forward.added:
        replayed[ref] = b_map[ref]
    for entry in forward.modified:
        element = replayed[entry.ref]
        for change in entry.changes:
            element = dataclasses.replace(element, **{change.field: change.new})
        replayed[entry.ref] = element
    assert set(replayed) == set(b_map)
    for ref, element in replayed.items():
        assert _normalized(ref, element) == _normalized(ref, b_map[ref]), ref


# ---------------------------------------------------------------------------
# 8. Hierarchy soundness
# ---------------------------------------------------------------------------


@pytest.mark.acceptance("8. hierarchy ranks are sound; one hint per cycle")
@BULK
@given(graph_models())
def test_hierarchy_soundness(model):
    ranks, cycle_hints = hierarchy_ranks(model, "B")
    control = [e for e in model.edges if e.kind is EdgeKind.CONTROL_ACTION]

    graph = nx.DiGraph()
    graph.add_nodes_from(n.id for n in model.nodes)
    graph.add_edges_from((e.source, e.target) for e in control)

    if nx.is_directed_acyclic_graph(graph):
        for edge in control:
            assert ranks[edge.source] < ranks[edge.target]
        # And the least such ranks: one below the highest controller, 0 for
        # a node nothing controls.
        for node in model.nodes:
            controllers = [ranks[e.source] + 1 for e in control if e.target == node.id]
            assert ranks[node.id] == max(controllers, default=0)
        assert cycle_hints == []
    else:
        expected = sorted(
            tuple(sorted(component))
            for component in nx.strongly_connected_components(graph)
            if len(component) >= 2
        )
        actual = sorted(
            tuple(ref.id for ref in hint.subjects) for hint in cycle_hints
        )
        assert actual == expected
        assert all(h.code is HintCode.HIERARCHY_CYCLE for h in cycle_hints)


# ---------------------------------------------------------------------------
# 9. CLI determinism
# ---------------------------------------------------------------------------

_TRACE_NODES = {"c1": "Physician", "c2": "InsulinPump", "c3": "Artist"}


@pytest.mark.acceptance("9. every CLI subcommand is byte-deterministic")
def test_cli_determinism():
    for name in ("c1", "c2", "c3"):
        path = str(fixture_path(name))
        invocations = [
            ("check", path),
            ("coverage", path),
            ("coverage", path, "--format", "csv"),
            ("coverage", path, "--format", "json"),
            ("trace", path, "--loss", "L1"),
            ("trace", path, "--node", _TRACE_NODES[name]),
            ("hints", path),
            ("render", path),
            ("report", path, "--format", "json"),
            ("report", path, "--format", "md"),
            ("diff", path, path),
            ("diff", path, path, "--impact", "--format", "json"),
            ("fmt", path),
        ]
        for argv in invocations:
            first_code, first_out, _ = cli(*argv)
            second_code, second_out, _ = cli(*argv)
            assert first_code == second_code
            assert first_out == second_out, argv
            assert first_out.encode("utf-8") == second_out.encode("utf-8")
