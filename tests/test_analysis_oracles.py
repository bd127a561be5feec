"""hints, metrics, the coverage grid and node traces against plain scans.

Each oracle below reads the model's collections directly, one scan per
question, with no index, no referred-by maps and no table per cell; the
analyses must give the same answers, in the same order, on the bundled
fixtures, on a derandomized model of more than a thousand elements, on that
model tangled, and on tangled hypothesis models (see
:func:`tests.strategies.tangle`: repeated ids, self-loops, cells both
waived and covered).

The rules the oracles follow where ids repeat:

- A node's process model is read from the *first* node declared with its
  id, the one ``lookup`` returns, and a node id gets at most one
  no-process-model hint.
- Every other hint is per declaration: two orphan nodes under one id, or two
  control actions under one id without feedback, give two hints.
- An element counts as referred to when any element of the next class in
  the chain names its id, so a repeated id is referred to (or not) in every
  declaration at once; the metrics count declarations.
- A coverage row is one control-action declaration; a cell lists every uca
  declaration on it, and its assessment is the first declared for the cell.
- A node's trace reaches the hazards its ucas name and the losses those
  hazards lead to, each id at its first declaration, once, in declaration
  order; every uca declaration on one of its control actions counts.
- A boundary id declared more than once means its first declaration. Its
  scope is every node declaration whose id it includes, and every edge
  declaration whose source and target are both ids of nodes in that scope;
  ``coverage`` and ``to_dot`` scoped to it draw on those alone.
"""

from __future__ import annotations

import dataclasses
import random
import re

import pytest
from hypothesis import given, settings

from phasekit import (
    AccountabilityReport,
    CellState,
    CoverageCell,
    CoverageMatrix,
    CoverageRow,
    Diagnostic,
    Edge,
    EdgeKind,
    GuideType,
    Hint,
    HintCode,
    Metrics,
    Model,
    Node,
    NodeKind,
    Ref,
    RenderOptions,
    Severity,
    Uca,
    UcaCategory,
    coverage,
    elements_in_boundary,
    hints,
    metrics,
    to_dot,
    trace_node,
)

from .conftest import load_fixture
from .strategies import tangle, tangled_models
from .test_index import _large_model

# ---------------------------------------------------------------------------
# Oracles: plain scans over the collections
# ---------------------------------------------------------------------------

#: Each link of the accountability chain: a class, the class and field that
#: refer to it, and the hint for an element nothing refers to.
_CHAIN_LINKS = (
    ("loss", "hazard", "leads_to", HintCode.LOSS_WITHOUT_HAZARD,
     "is not linked to any hazard"),
    ("hazard", "uca", "hazards", HintCode.HAZARD_WITHOUT_UCA,
     "is not referenced by any uca"),
    ("uca", "scenario", "uca", HintCode.UCA_WITHOUT_SCENARIO,
     "has no loss scenario"),
    ("scenario", "requirement", "scenarios", HintCode.SCENARIO_WITHOUT_REQUIREMENT,
     "is not addressed by any safety requirement"),
)


def _referred(model, element_id, referrer, field):
    for other in model.elements_of(referrer):
        named = getattr(other, field)
        if element_id in (named if isinstance(named, tuple) else (named,)):
            return True
    return False


def oracle_hints(model):
    found = []
    for edge in model.edges:
        feedback = any(
            back.kind is EdgeKind.FEEDBACK
            and (back.source, back.target) == (edge.target, edge.source)
            for back in model.edges
        )
        if edge.kind is EdgeKind.CONTROL_ACTION and not feedback:
            found.append(Hint(
                HintCode.MISSING_FEEDBACK,
                (Ref("edge", edge.id),),
                f"control action '{edge.id}' from '{edge.source}' to '{edge.target}' "
                f"has no feedback edge from '{edge.target}' back to '{edge.source}'",
            ))
        if edge.source == edge.target:
            found.append(Hint(
                HintCode.SELF_LOOP,
                (Ref("edge", edge.id),),
                f"edge '{edge.id}' loops from '{edge.source}' to itself",
            ))
    for node_id in dict.fromkeys(node.id for node in model.nodes):
        first = next(node for node in model.nodes if node.id == node_id)
        issues_uca_actions = any(
            edge.kind is EdgeKind.CONTROL_ACTION
            and edge.source == node_id
            and any(uca.action == edge.id for uca in model.ucas)
            for edge in model.edges
        )
        if issues_uca_actions and not first.process_model:
            found.append(Hint(
                HintCode.NO_PROCESS_MODEL,
                (Ref("node", node_id),),
                f"node '{node_id}' issues control actions with identified ucas "
                "but documents no process model",
            ))
    for node in model.nodes:
        if not any(node.id in (edge.source, edge.target) for edge in model.edges):
            found.append(Hint(
                HintCode.ORPHAN_NODE,
                (Ref("node", node.id),),
                f"node '{node.id}' is not connected to any edge",
            ))
    for cls, referrer, field, code, complaint in _CHAIN_LINKS:
        for element in model.elements_of(cls):
            if not _referred(model, element.id, referrer, field):
                found.append(Hint(code, (Ref(cls, element.id),), f"{cls} '{element.id}' {complaint}"))
    found.sort(key=lambda hint: (hint.code.value, [ref.id for ref in hint.subjects]))
    return found


def _first_declarations(elements, ids):
    found, seen = [], set()
    for element in elements:
        if element.id in ids and element.id not in seen:
            seen.add(element.id)
            found.append(element)
    return found


def oracle_trace_node(model, node_id):
    actions = [
        e.id for e in model.edges
        if e.kind == EdgeKind.CONTROL_ACTION and e.source == node_id
    ]
    ucas = [u for u in model.ucas if u.action in actions]
    hazards = _first_declarations(model.hazards, {h for u in ucas for h in u.hazards})
    losses = _first_declarations(model.losses, {l for h in hazards for l in h.leads_to})
    scenarios = [s.id for s in model.scenarios if node_id in s.elements]
    return AccountabilityReport(
        node_id, tuple(actions), tuple(u.id for u in ucas), tuple(h.id for h in hazards),
        tuple(l.id for l in losses), tuple(scenarios),
    )


def oracle_scope(model, boundary_id):
    first = next(boundary for boundary in model.boundaries if boundary.id == boundary_id)
    nodes = tuple(node for node in model.nodes if node.id in first.includes)
    edges = tuple(
        edge
        for edge in model.edges
        if any(node.id == edge.source for node in nodes)
        and any(node.id == edge.target for node in nodes)
    )
    return nodes, edges


def oracle_coverage(model, boundary_id=None):
    edges = model.edges if boundary_id is None else oracle_scope(model, boundary_id)[1]
    actions = [edge for edge in edges if edge.kind is EdgeKind.CONTROL_ACTION]
    actions.sort(key=lambda edge: (edge.source, edge.id))
    rows, warnings = [], []
    for action in actions:
        cells = []
        for guide in GuideType:
            cell = (action.id, guide)
            ucas = sorted(u.id for u in model.ucas if (u.action, u.guide_type) == cell)
            waivers = [a for a in model.assessments if (a.action, a.guide_type) == cell]
            waiver = waivers[0] if waivers else None
            if ucas:
                state = CellState.COVERED
            elif waiver is not None:
                state = CellState.WAIVED
            else:
                state = CellState.GAP
            cells.append(CoverageCell(state, tuple(ucas), waiver))
            if ucas and waiver is not None:
                warnings.append(Diagnostic(
                    Severity.WARNING,
                    "C001",
                    f"action '{action.id}' guide type '{guide.value}' is "
                    f"waived but covered by uca(s) {', '.join(ucas)}",
                    model.source_spans.get(Ref("assessment", f"{action.id}/{guide.value}")),
                ))
        rows.append(CoverageRow(action.source, action.id, tuple(cells)))
    return CoverageMatrix(tuple(rows), tuple(warnings))


def _share(count, total):
    return 1.0 if total == 0 else count / total


def oracle_metrics(model):
    cells = [cell for row in oracle_coverage(model).rows for cell in row.cells]
    examined = [cell for cell in cells if cell.state is not CellState.GAP]
    linked = [
        _share(
            sum(_referred(model, e.id, referrer, field) for e in model.elements_of(cls)),
            len(model.elements_of(cls)),
        )
        for cls, referrer, field, _, _ in _CHAIN_LINKS
    ]
    counts = {
        name: len(getattr(model, name))
        for name in ("losses", "boundaries", "hazards", "nodes", "edges", "ucas",
                     "scenarios", "requirements", "assessments")
    }
    return Metrics(counts, _share(len(examined), len(cells)), *linked)


def oracle_dot_elements(model, boundary_id):
    """The node ids and the (source, target) pairs of the edges that
    ``to_dot`` scoped to a boundary draws, in order."""
    nodes, edges = oracle_scope(model, boundary_id)
    return [node.id for node in nodes], [(edge.source, edge.target) for edge in edges]


_DOT_NODE = re.compile(r'  "([^"]*)" \[label=')
_DOT_EDGE = re.compile(r'  "([^"]*)" -> "([^"]*)" \[label=')


def dot_elements(dot):
    lines = dot.splitlines()
    nodes = [m.group(1) for m in map(_DOT_NODE.match, lines) if m]
    edges = [m.groups() for m in map(_DOT_EDGE.match, lines) if m]
    return nodes, edges


# ---------------------------------------------------------------------------
# Models under test
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def large():
    return _large_model()


def _models(large):
    fixtures = [load_fixture(name) for name in ("c1", "c2", "c3")]
    return [*fixtures, large, tangle(large, random.Random(5))]


def test_models_hold_every_hint_and_every_tangle(large):
    models = _models(large)
    found = {hint.code for model in models for hint in hints(model)}
    # hierarchy-cycle comes from hierarchy_ranks, not from hints.
    assert found == set(HintCode) - {HintCode.HIERARCHY_CYCLE}
    tangled = models[-1]
    for name in ("losses", "hazards", "nodes", "edges", "ucas", "scenarios"):
        ids = [element.id for element in getattr(tangled, name)]
        assert len(set(ids)) < len(ids), name
    assert any(edge.source == edge.target for edge in tangled.edges)
    assert any(
        cell.state is CellState.COVERED and cell.assessment is not None
        for row in coverage(tangled).rows
        for cell in row.cells
    )


@pytest.mark.parametrize("process_models,hinted", [(("pm", None), False), ((None, "pm"), True)])
def test_first_node_declared_decides_the_process_model_hint(process_models, hinted):
    first, last = (Node("A", "a", NodeKind.HUMAN, pm) for pm in process_models)
    model = Model(
        nodes=(first, Node("B", "b", NodeKind.HUMAN), last),
        edges=(Edge("CA1", EdgeKind.CONTROL_ACTION, "A", "B", "x"),),
        ucas=(Uca("U1", "A", "CA1", GuideType.PROVIDED, UcaCategory.FUNCTIONAL, "c", ()),),
    )
    found = [hint for hint in hints(model) if hint.code is HintCode.NO_PROCESS_MODEL]
    assert bool(found) is hinted
    assert hints(model) == oracle_hints(model)


# ---------------------------------------------------------------------------
# Analyses against the oracles
# ---------------------------------------------------------------------------


def test_hints_match_scan(large):
    for model in _models(large):
        assert hints(model) == oracle_hints(model)


def test_coverage_matches_scan(large):
    for model in _models(large):
        assert coverage(model) == oracle_coverage(model)


def test_metrics_match_scan(large):
    for model in _models(large):
        found, expected = metrics(model), oracle_metrics(model)
        assert found == expected
        assert list(found.counts) == list(expected.counts)


def assert_node_traces_match_scans(model):
    for node_id in dict.fromkeys(node.id for node in model.nodes):
        assert trace_node(model, node_id) == oracle_trace_node(model, node_id)


def test_node_traces_match_scans(large):
    for model in _models(large):
        assert_node_traces_match_scans(model)


@settings(max_examples=200, deadline=None)
@given(tangled_models())
def test_analyses_match_scans_on_tangled_models(model):
    assert hints(model) == oracle_hints(model)
    assert coverage(model) == oracle_coverage(model)
    assert metrics(model) == oracle_metrics(model)
    assert_node_traces_match_scans(model)


# ---------------------------------------------------------------------------
# Boundary scoping against the scans
# ---------------------------------------------------------------------------


def assert_scopes_match_scans(model):
    for boundary_id in dict.fromkeys(boundary.id for boundary in model.boundaries):
        assert elements_in_boundary(model, boundary_id) == oracle_scope(model, boundary_id)
        assert coverage(model, boundary_id) == oracle_coverage(model, boundary_id)
        dot = to_dot(model, RenderOptions(boundary_id))
        assert dot_elements(dot) == oracle_dot_elements(model, boundary_id)


def test_boundary_scopes_match_scans(large):
    fixtures = [load_fixture(name) for name in ("c1", "c2", "c3")]
    assert sum(len(model.boundaries) for model in fixtures) == 9
    # Some scope holds control actions whose grid the scoping decides.
    assert any(
        oracle_coverage(model, boundary.id).rows
        and oracle_coverage(model, boundary.id) != oracle_coverage(model)
        for model in fixtures
        for boundary in model.boundaries
    )
    for model in _models(large):
        assert_scopes_match_scans(model)


def test_a_repeated_boundary_id_scopes_by_its_first_declaration(c1):
    first, *rest = c1.boundaries
    again = dataclasses.replace(rest[-1], id=first.id)
    model = dataclasses.replace(c1, boundaries=(*c1.boundaries, again))
    alone = dataclasses.replace(c1, boundaries=(again,))
    assert elements_in_boundary(alone, first.id) != elements_in_boundary(c1, first.id)
    assert elements_in_boundary(model, first.id) == elements_in_boundary(c1, first.id)
    assert_scopes_match_scans(model)


@settings(max_examples=200, deadline=None)
@given(tangled_models())
def test_boundary_scopes_match_scans_on_tangled_models(model):
    assert_scopes_match_scans(model)
