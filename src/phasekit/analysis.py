"""Semantic analyses over a parsed model.

This module owns reference validation, control-hierarchy ranking, coverage of
the (control action x guide type) grid, advisory structural hints,
traceability queries, and summary metrics. Everything here is a pure function
of an immutable model, so independent analyses can run concurrently.

Validation diagnostic codes:

=====  ==================================================
V001   dangling reference
V002   uca attached to a node other than its action's source
V003   uca references an edge that is not a control action
V004   required reference list is empty
V005   duplicate assessment for one (action, guide type) cell
V100   self-loop edge (warning)
C001   coverage cell both waived and covered by a uca (warning)
=====  ==================================================
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum

from .diagnostics import Diagnostic, Severity, Span
from .model import (
    GUIDE_TYPES,
    Assessment,
    Edge,
    EdgeKind,
    GuideType,
    Model,
    Node,
    Ref,
    UnknownReferenceError,
    assessment_key,
    elements_in_boundary,
    lookup,
)


class HintCode(str, Enum):
    MISSING_FEEDBACK = "missing-feedback"
    NO_PROCESS_MODEL = "no-process-model"
    ORPHAN_NODE = "orphan-node"
    HAZARD_WITHOUT_UCA = "hazard-without-uca"
    UCA_WITHOUT_SCENARIO = "uca-without-scenario"
    SCENARIO_WITHOUT_REQUIREMENT = "scenario-without-requirement"
    LOSS_WITHOUT_HAZARD = "loss-without-hazard"
    HIERARCHY_CYCLE = "hierarchy-cycle"
    SELF_LOOP = "self-loop"


@dataclass(frozen=True)
class Hint:
    """An advisory observation; never an error."""

    code: HintCode
    subjects: tuple[Ref, ...]
    message: str


class CellState(str, Enum):
    COVERED = "covered"
    WAIVED = "waived"
    GAP = "gap"


@dataclass(frozen=True)
class CoverageCell:
    state: CellState
    uca_ids: tuple[str, ...] = ()
    assessment: Assessment | None = None


@dataclass(frozen=True)
class CoverageRow:
    controller: str
    action: str
    cells: tuple[CoverageCell, ...]  # aligned with GUIDE_TYPES


@dataclass(frozen=True)
class CoverageMatrix:
    rows: tuple[CoverageRow, ...]
    warnings: tuple[Diagnostic, ...] = ()

    def counts(self) -> tuple[int, int, int]:
        """(covered, waived, gap) cell totals."""
        covered = waived = gap = 0
        for row in self.rows:
            for cell in row.cells:
                if cell.state is CellState.COVERED:
                    covered += 1
                elif cell.state is CellState.WAIVED:
                    waived += 1
                else:
                    gap += 1
        return covered, waived, gap

    def ratio(self) -> float:
        """Examined share of the grid; 1.0 for an empty grid."""
        covered, waived, gap = self.counts()
        total = covered + waived + gap
        if total == 0:
            return 1.0
        return (covered + waived) / total


@dataclass(frozen=True)
class TraceTree:
    """One level of the loss <- hazard <- uca <- scenario <- requirement chain."""

    element_class: str
    element_id: str
    children: tuple["TraceTree", ...] = ()


@dataclass(frozen=True)
class AccountabilityReport:
    """Everything one node can influence: its control actions, the ucas on
    them, the hazards and losses those ucas reach, and the scenarios that
    cite the node."""

    node: str
    actions: tuple[str, ...]
    ucas: tuple[str, ...]
    hazards: tuple[str, ...]
    losses: tuple[str, ...]
    scenarios: tuple[str, ...]


@dataclass(frozen=True)
class Metrics:
    counts: dict[str, int]
    coverage_ratio: float
    losses_with_hazard_ratio: float
    hazards_with_uca_ratio: float
    ucas_with_scenario_ratio: float
    scenarios_with_requirement_ratio: float


@dataclass(frozen=True)
class AnalysisBundle:
    """The standard analysis results consumed by the report exporters."""

    diagnostics: tuple[Diagnostic, ...]
    coverage: CoverageMatrix
    hints: tuple[Hint, ...]
    metrics: Metrics


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def _span(model: Model, ref: Ref) -> Span | None:
    return model.source_spans.get(ref)


def _dangling(
    model: Model, src: Ref, target_class: str, target_id: str
) -> Diagnostic:
    return Diagnostic(
        Severity.ERROR,
        "V001",
        f"unknown {target_class} '{target_id}' referenced by {src.cls} '{src.id}'",
        _span(model, src),
    )


def validate(model: Model) -> list[Diagnostic]:
    """Check every cross-reference and structural invariant.

    An empty result means the model is semantically valid. Diagnostics
    carry the span of the referencing declaration when the model was parsed
    from text.
    """
    diags: list[Diagnostic] = []
    ids = {
        cls: {getattr(e, "id") for e in model.elements_of(cls)}
        for cls in ("loss", "boundary", "hazard", "node", "edge", "uca", "scenario")
    }
    edge_by_id = {e.id: e for e in model.edges}

    for boundary in model.boundaries:
        ref = Ref("boundary", boundary.id)
        for node_id in boundary.includes:
            if node_id not in ids["node"]:
                diags.append(_dangling(model, ref, "node", node_id))

    for hazard in model.hazards:
        ref = Ref("hazard", hazard.id)
        if hazard.boundary not in ids["boundary"]:
            diags.append(_dangling(model, ref, "boundary", hazard.boundary))
        if not hazard.leads_to:
            diags.append(
                Diagnostic(
                    Severity.ERROR,
                    "V004",
                    f"hazard '{hazard.id}' must lead to at least one loss",
                    _span(model, ref),
                )
            )
        for loss_id in hazard.leads_to:
            if loss_id not in ids["loss"]:
                diags.append(_dangling(model, ref, "loss", loss_id))

    for edge in model.edges:
        ref = Ref("edge", edge.id)
        if edge.source not in ids["node"]:
            diags.append(_dangling(model, ref, "node", edge.source))
        if edge.target not in ids["node"]:
            diags.append(_dangling(model, ref, "node", edge.target))
        if edge.source == edge.target:
            diags.append(
                Diagnostic(
                    Severity.WARNING,
                    "V100",
                    f"edge '{edge.id}' is a self-loop on '{edge.source}'",
                    _span(model, ref),
                )
            )

    for uca in model.ucas:
        ref = Ref("uca", uca.id)
        action = edge_by_id.get(uca.action)
        if action is None:
            diags.append(_dangling(model, ref, "edge", uca.action))
            # Source is derived from the action; without one there is
            # nothing further to check, and an empty source is expected.
            if uca.source and uca.source not in ids["node"]:
                diags.append(_dangling(model, ref, "node", uca.source))
        else:
            if action.kind is not EdgeKind.CONTROL_ACTION:
                diags.append(
                    Diagnostic(
                        Severity.ERROR,
                        "V003",
                        f"uca '{uca.id}' references '{action.id}' which is a "
                        f"{action.kind.value} edge, not a control action",
                        _span(model, ref),
                    )
                )
            if uca.source and uca.source not in ids["node"]:
                diags.append(_dangling(model, ref, "node", uca.source))
            if uca.source != action.source:
                diags.append(
                    Diagnostic(
                        Severity.ERROR,
                        "V002",
                        f"uca '{uca.id}' is attached to '{uca.source}' but action "
                        f"'{action.id}' is issued by '{action.source}'",
                        _span(model, ref),
                        _span(model, Ref("edge", action.id)),
                    )
                )
        if not uca.hazards:
            diags.append(
                Diagnostic(
                    Severity.ERROR,
                    "V004",
                    f"uca '{uca.id}' must link to at least one hazard",
                    _span(model, ref),
                )
            )
        for hazard_id in uca.hazards:
            if hazard_id not in ids["hazard"]:
                diags.append(_dangling(model, ref, "hazard", hazard_id))

    for scenario in model.scenarios:
        ref = Ref("scenario", scenario.id)
        if scenario.uca not in ids["uca"]:
            diags.append(_dangling(model, ref, "uca", scenario.uca))
        for element_id in scenario.elements:
            if element_id not in ids["node"] and element_id not in ids["edge"]:
                diags.append(_dangling(model, ref, "node or edge", element_id))

    for requirement in model.requirements:
        ref = Ref("requirement", requirement.id)
        if not requirement.scenarios:
            diags.append(
                Diagnostic(
                    Severity.ERROR,
                    "V004",
                    f"requirement '{requirement.id}' must cover at least one scenario",
                    _span(model, ref),
                )
            )
        for scenario_id in requirement.scenarios:
            if scenario_id not in ids["scenario"]:
                diags.append(_dangling(model, ref, "scenario", scenario_id))

    seen_cells: dict[str, Span | None] = {}
    occurrences: dict[str, int] = {}
    for assessment in model.assessments:
        key = assessment_key(assessment)
        count = occurrences.get(key, 0)
        occurrences[key] = count + 1
        # Duplicate declarations store spans under occurrence-suffixed keys.
        ref = Ref("assessment", key if count == 0 else f"{key}#{count + 1}")
        if assessment.action not in ids["edge"]:
            diags.append(_dangling(model, ref, "edge", assessment.action))
        if count:
            diags.append(
                Diagnostic(
                    Severity.ERROR,
                    "V005",
                    f"duplicate assessment for action '{assessment.action}' and "
                    f"guide type '{assessment.guide_type.value}'",
                    _span(model, ref),
                    seen_cells[key],
                )
            )
        else:
            seen_cells[key] = _span(model, ref)

    return diags


# ---------------------------------------------------------------------------
# Control hierarchy
# ---------------------------------------------------------------------------


def _control_subgraph(
    model: Model, node_ids: list[str]
) -> tuple[dict[str, list[tuple[int, str]]], list[Edge]]:
    """Adjacency over control-action edges with both endpoints in scope.

    Self-loops are excluded from ranking; they are reported elsewhere.
    """
    in_scope = set(node_ids)
    edges = [
        e
        for e in model.edges
        if e.kind is EdgeKind.CONTROL_ACTION
        and e.source in in_scope
        and e.target in in_scope
        and e.source != e.target
    ]
    adjacency: dict[str, list[tuple[int, str]]] = {nid: [] for nid in node_ids}
    for index, edge in enumerate(edges):
        adjacency[edge.source].append((index, edge.target))
    return adjacency, edges


def _back_edges(node_ids: list[str], adjacency: dict[str, list[tuple[int, str]]]) -> set[int]:
    """Edges that close a cycle under a depth-first walk in declaration order."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {nid: WHITE for nid in node_ids}
    back: set[int] = set()
    for root in node_ids:
        if color[root] != WHITE:
            continue
        color[root] = GRAY
        stack: list[tuple[str, "object"]] = [(root, iter(adjacency[root]))]
        while stack:
            node, edge_iter = stack[-1]
            descended = False
            for edge_index, target in edge_iter:
                if color[target] == GRAY:
                    back.add(edge_index)
                elif color[target] == WHITE:
                    color[target] = GRAY
                    stack.append((target, iter(adjacency[target])))
                    descended = True
                    break
            if not descended:
                color[node] = BLACK
                stack.pop()
    return back


def _longest_path_ranks(
    node_ids: list[str], forward: list[tuple[str, str]]
) -> dict[str, int]:
    """Least rank assignment with rank(target) >= rank(source) + 1 per edge."""
    indegree = {nid: 0 for nid in node_ids}
    out: dict[str, list[str]] = {nid: [] for nid in node_ids}
    for source, target in forward:
        out[source].append(target)
        indegree[target] += 1
    ranks = {nid: 0 for nid in node_ids}
    queue = deque(nid for nid in node_ids if indegree[nid] == 0)
    while queue:
        node = queue.popleft()
        for target in out[node]:
            ranks[target] = max(ranks[target], ranks[node] + 1)
            indegree[target] -= 1
            if indegree[target] == 0:
                queue.append(target)
    return ranks


def _strongly_connected_components(
    node_ids: list[str], adjacency: dict[str, list[tuple[int, str]]]
) -> list[list[str]]:
    """Kosaraju's algorithm; component members sorted by id."""
    order: list[str] = []
    seen: set[str] = set()
    for root in node_ids:
        if root in seen:
            continue
        seen.add(root)
        stack: list[tuple[str, "object"]] = [(root, iter(adjacency[root]))]
        while stack:
            node, edge_iter = stack[-1]
            descended = False
            for _, target in edge_iter:
                if target not in seen:
                    seen.add(target)
                    stack.append((target, iter(adjacency[target])))
                    descended = True
                    break
            if not descended:
                order.append(node)
                stack.pop()

    reverse: dict[str, list[str]] = {nid: [] for nid in node_ids}
    for source, targets in adjacency.items():
        for _, target in targets:
            reverse[target].append(source)

    components: list[list[str]] = []
    assigned: set[str] = set()
    for root in reversed(order):
        if root in assigned:
            continue
        members = [root]
        assigned.add(root)
        frontier = [root]
        while frontier:
            node = frontier.pop()
            for source in reverse[node]:
                if source not in assigned:
                    assigned.add(source)
                    members.append(source)
                    frontier.append(source)
        components.append(sorted(members))
    return components


def scope_ranks(model: Model, nodes: list[Node]) -> tuple[dict[str, int], list[Hint]]:
    """Hierarchy ranks over an explicit node scope (the whole model, say)."""
    node_ids = [n.id for n in nodes]
    adjacency, edges = _control_subgraph(model, node_ids)
    back = _back_edges(node_ids, adjacency)
    forward = [
        (edge.source, edge.target)
        for index, edge in enumerate(edges)
        if index not in back
    ]
    ranks = _longest_path_ranks(node_ids, forward)

    hints: list[Hint] = []
    for component in _strongly_connected_components(node_ids, adjacency):
        if len(component) < 2:
            continue
        hints.append(
            Hint(
                HintCode.HIERARCHY_CYCLE,
                tuple(Ref("node", nid) for nid in component),
                "control actions form a cycle among nodes "
                + ", ".join(f"'{nid}'" for nid in component),
            )
        )
    hints.sort(key=lambda h: (h.code.value, tuple(ref.id for ref in h.subjects)))
    return ranks, hints


def hierarchy_ranks(
    model: Model, boundary_id: str
) -> tuple[dict[str, int], list[Hint]]:
    """Control-authority ranks inside a boundary.

    Rank 0 marks nodes nothing controls; every other node sits one level
    below its highest-ranked controller (longest path over control-action
    edges). Cycles are legal: back edges found by a depth-first walk are
    ignored for ranking and each multi-node strongly connected component is
    reported as a hierarchy-cycle hint.
    """
    nodes, _ = elements_in_boundary(model, boundary_id)
    return scope_ranks(model, list(nodes))


# ---------------------------------------------------------------------------
# Coverage
# ---------------------------------------------------------------------------


def coverage(model: Model, boundary_id: str | None = None) -> CoverageMatrix:
    """The (control action x guide type) grid.

    A cell is covered when at least one uca names that action and guide
    type, waived when an assessment exists and no uca does, and a gap
    otherwise. A cell with both counts as covered and yields a warning.
    """
    if boundary_id is None:
        scope_edges = model.edges
    else:
        _, scope_edges = elements_in_boundary(model, boundary_id)
    actions = [e for e in scope_edges if e.kind is EdgeKind.CONTROL_ACTION]
    actions.sort(key=lambda e: (e.source, e.id))

    ucas_by_cell: dict[tuple[str, GuideType], list[str]] = {}
    for uca in model.ucas:
        ucas_by_cell.setdefault((uca.action, uca.guide_type), []).append(uca.id)
    assessment_by_cell: dict[tuple[str, GuideType], Assessment] = {}
    for assessment in model.assessments:
        assessment_by_cell.setdefault(
            (assessment.action, assessment.guide_type), assessment
        )

    rows: list[CoverageRow] = []
    warnings: list[Diagnostic] = []
    for action in actions:
        cells: list[CoverageCell] = []
        for guide in GUIDE_TYPES:
            key = (action.id, guide)
            uca_ids = tuple(sorted(ucas_by_cell.get(key, ())))
            assessment = assessment_by_cell.get(key)
            if uca_ids:
                cells.append(CoverageCell(CellState.COVERED, uca_ids, assessment))
                if assessment is not None:
                    warnings.append(
                        Diagnostic(
                            Severity.WARNING,
                            "C001",
                            f"action '{action.id}' guide type '{guide.value}' is "
                            f"waived but covered by uca(s) {', '.join(uca_ids)}",
                            model.source_spans.get(
                                Ref("assessment", f"{action.id}/{guide.value}")
                            ),
                        )
                    )
            elif assessment is not None:
                cells.append(CoverageCell(CellState.WAIVED, (), assessment))
            else:
                cells.append(CoverageCell(CellState.GAP))
        rows.append(CoverageRow(action.source, action.id, tuple(cells)))
    return CoverageMatrix(tuple(rows), tuple(warnings))


# ---------------------------------------------------------------------------
# Hints
# ---------------------------------------------------------------------------


def hints(model: Model) -> list[Hint]:
    """Advisory structural findings, deterministically ordered by code then
    subject id."""
    found: list[Hint] = []

    feedback_pairs = {
        (e.source, e.target) for e in model.edges if e.kind is EdgeKind.FEEDBACK
    }
    for edge in model.edges:
        if edge.kind is EdgeKind.CONTROL_ACTION and (
            edge.target,
            edge.source,
        ) not in feedback_pairs:
            found.append(
                Hint(
                    HintCode.MISSING_FEEDBACK,
                    (Ref("edge", edge.id),),
                    f"control action '{edge.id}' from '{edge.source}' to "
                    f"'{edge.target}' has no feedback edge from '{edge.target}' "
                    f"back to '{edge.source}'",
                )
            )
        if edge.source == edge.target:
            found.append(
                Hint(
                    HintCode.SELF_LOOP,
                    (Ref("edge", edge.id),),
                    f"edge '{edge.id}' loops from '{edge.source}' to itself",
                )
            )

    uca_actions = {u.action for u in model.ucas}
    node_by_id = {n.id: n for n in model.nodes}
    flagged: set[str] = set()
    for edge in model.edges:
        if edge.kind is not EdgeKind.CONTROL_ACTION or edge.id not in uca_actions:
            continue
        node = node_by_id.get(edge.source)
        if node is None or node.id in flagged or node.process_model:
            continue
        flagged.add(node.id)
        found.append(
            Hint(
                HintCode.NO_PROCESS_MODEL,
                (Ref("node", node.id),),
                f"node '{node.id}' issues control actions with identified ucas "
                "but documents no process model",
            )
        )

    connected = {e.source for e in model.edges} | {e.target for e in model.edges}
    for node in model.nodes:
        if node.id not in connected:
            found.append(
                Hint(
                    HintCode.ORPHAN_NODE,
                    (Ref("node", node.id),),
                    f"node '{node.id}' is not connected to any edge",
                )
            )

    referenced_losses = {lid for h in model.hazards for lid in h.leads_to}
    for loss in model.losses:
        if loss.id not in referenced_losses:
            found.append(
                Hint(
                    HintCode.LOSS_WITHOUT_HAZARD,
                    (Ref("loss", loss.id),),
                    f"loss '{loss.id}' is not linked to any hazard",
                )
            )

    referenced_hazards = {hid for u in model.ucas for hid in u.hazards}
    for hazard in model.hazards:
        if hazard.id not in referenced_hazards:
            found.append(
                Hint(
                    HintCode.HAZARD_WITHOUT_UCA,
                    (Ref("hazard", hazard.id),),
                    f"hazard '{hazard.id}' is not referenced by any uca",
                )
            )

    referenced_ucas = {s.uca for s in model.scenarios}
    for uca in model.ucas:
        if uca.id not in referenced_ucas:
            found.append(
                Hint(
                    HintCode.UCA_WITHOUT_SCENARIO,
                    (Ref("uca", uca.id),),
                    f"uca '{uca.id}' has no loss scenario",
                )
            )

    referenced_scenarios = {sid for r in model.requirements for sid in r.scenarios}
    for scenario in model.scenarios:
        if scenario.id not in referenced_scenarios:
            found.append(
                Hint(
                    HintCode.SCENARIO_WITHOUT_REQUIREMENT,
                    (Ref("scenario", scenario.id),),
                    f"scenario '{scenario.id}' is not addressed by any safety "
                    "requirement",
                )
            )

    found.sort(key=lambda h: (h.code.value, tuple(ref.id for ref in h.subjects)))
    return found


# ---------------------------------------------------------------------------
# Traceability
# ---------------------------------------------------------------------------


def trace_loss(model: Model, loss_id: str) -> TraceTree:
    """The chain rooted at a loss: its hazards, their ucas, the scenarios per
    uca, and the requirements per scenario. Raises
    :class:`UnknownReferenceError` for an unknown loss id."""
    if lookup(model, "loss", loss_id) is None:
        raise UnknownReferenceError("loss", loss_id)

    def requirements_for(scenario_id: str) -> tuple[TraceTree, ...]:
        return tuple(
            TraceTree("requirement", r.id)
            for r in model.requirements
            if scenario_id in r.scenarios
        )

    def scenarios_for(uca_id: str) -> tuple[TraceTree, ...]:
        return tuple(
            TraceTree("scenario", s.id, requirements_for(s.id))
            for s in model.scenarios
            if s.uca == uca_id
        )

    def ucas_for(hazard_id: str) -> tuple[TraceTree, ...]:
        return tuple(
            TraceTree("uca", u.id, scenarios_for(u.id))
            for u in model.ucas
            if hazard_id in u.hazards
        )

    hazards = tuple(
        TraceTree("hazard", h.id, ucas_for(h.id))
        for h in model.hazards
        if loss_id in h.leads_to
    )
    return TraceTree("loss", loss_id, hazards)


def trace_node(model: Model, node_id: str) -> AccountabilityReport:
    """Accountability view for one node; raises
    :class:`UnknownReferenceError` for an unknown node id."""
    if lookup(model, "node", node_id) is None:
        raise UnknownReferenceError("node", node_id)

    actions = tuple(
        e.id
        for e in model.edges
        if e.kind is EdgeKind.CONTROL_ACTION and e.source == node_id
    )
    action_set = set(actions)
    ucas = tuple(u.id for u in model.ucas if u.action in action_set)
    uca_set = set(ucas)
    hazard_ids = dict.fromkeys(
        hid for u in model.ucas if u.id in uca_set for hid in u.hazards
    )
    hazards = tuple(h.id for h in model.hazards if h.id in hazard_ids)
    loss_ids = dict.fromkeys(
        lid for h in model.hazards if h.id in hazard_ids for lid in h.leads_to
    )
    losses = tuple(l.id for l in model.losses if l.id in loss_ids)
    scenarios = tuple(s.id for s in model.scenarios if node_id in s.elements)
    return AccountabilityReport(node_id, actions, ucas, hazards, losses, scenarios)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _ratio(numerator: int, denominator: int) -> float:
    # An empty denominator counts as fully satisfied so threshold gates stay
    # monotone as a model grows.
    if denominator == 0:
        return 1.0
    return numerator / denominator


def metrics(model: Model) -> Metrics:
    """Element counts, coverage ratio, and chain-completeness ratios."""
    counts = {
        "losses": len(model.losses),
        "boundaries": len(model.boundaries),
        "hazards": len(model.hazards),
        "nodes": len(model.nodes),
        "edges": len(model.edges),
        "ucas": len(model.ucas),
        "scenarios": len(model.scenarios),
        "requirements": len(model.requirements),
        "assessments": len(model.assessments),
    }
    referenced_losses = {lid for h in model.hazards for lid in h.leads_to}
    referenced_hazards = {hid for u in model.ucas for hid in u.hazards}
    referenced_ucas = {s.uca for s in model.scenarios}
    referenced_scenarios = {sid for r in model.requirements for sid in r.scenarios}
    return Metrics(
        counts=counts,
        coverage_ratio=coverage(model).ratio(),
        losses_with_hazard_ratio=_ratio(
            sum(1 for l in model.losses if l.id in referenced_losses),
            len(model.losses),
        ),
        hazards_with_uca_ratio=_ratio(
            sum(1 for h in model.hazards if h.id in referenced_hazards),
            len(model.hazards),
        ),
        ucas_with_scenario_ratio=_ratio(
            sum(1 for u in model.ucas if u.id in referenced_ucas),
            len(model.ucas),
        ),
        scenarios_with_requirement_ratio=_ratio(
            sum(1 for s in model.scenarios if s.id in referenced_scenarios),
            len(model.scenarios),
        ),
    )


def analyze(model: Model) -> AnalysisBundle:
    """Run the standard analyses once, for the exporters."""
    return AnalysisBundle(
        diagnostics=tuple(validate(model)),
        coverage=coverage(model),
        hints=tuple(hints(model)),
        metrics=metrics(model),
    )
