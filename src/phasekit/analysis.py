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
V006   enumeration field holds a value the parser would reject
V007   id, text or id-list field holds a value of the wrong type, text
       holds a line break, an element's id is not an identifier, or the
       model's name is not a string without line breaks
V008   id declared twice in one element class (the parser reports P003)
V100   self-loop edge (warning)
C001   coverage cell both waived and covered by a uca (warning)
=====  ==================================================
"""

from __future__ import annotations

from enum import Enum
from itertools import chain, repeat
from operator import attrgetter, eq, is_
from typing import Iterator

from .diagnostics import Diagnostic, Severity, Span, record
from .model import (
    ENUM,
    GUIDE_TYPES,
    ID,
    IDLIST,
    REFERENCES,
    SCHEMA,
    STRING,
    Assessment,
    Edge,
    EdgeKind,
    Element,
    GuideType,
    Model,
    Node,
    Ref,
    Slot,
    Uca,
    UnknownReferenceError,
    are_identifiers,
    declared_names,
    elements_in_boundary,
    enum_text,
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


@record
class Hint:
    """An advisory observation; never an error."""

    code: HintCode
    subjects: tuple[Ref, ...]
    message: str


class CellState(str, Enum):
    COVERED = "covered"
    WAIVED = "waived"
    GAP = "gap"


@record
class CoverageCell:
    """One (action, guide type) cell: covered by ucas, waived, or a gap."""
    state: CellState
    uca_ids: tuple[str, ...] = ()
    assessment: Assessment | None = None


@record
class CoverageRow:
    """The cells of one control action, one per guide type."""
    controller: str
    action: str
    cells: tuple[CoverageCell, ...]  # aligned with GUIDE_TYPES


@record
class CoverageMatrix:
    """The coverage grid: one row per control action."""
    rows: tuple[CoverageRow, ...]
    warnings: tuple[Diagnostic, ...] = ()

    def counts(self) -> tuple[int, int, int]:
        """(covered, waived, gap) cell totals. States are compared by
        identity, so any other state, even the text ``"covered"``, is a gap."""
        states = [cell.state for row in self.rows for cell in row.cells]
        covered = sum(map(is_, states, repeat(CellState.COVERED)))
        waived = sum(map(is_, states, repeat(CellState.WAIVED)))
        return covered, waived, len(states) - covered - waived

    def ratio(self) -> float:
        """Examined share of the grid; 1.0 for an empty grid."""
        covered, waived, gap = self.counts()
        return _ratio(covered + waived, covered + waived + gap)


@record
class TraceTree:
    """One level of the loss <- hazard <- uca <- scenario <- requirement chain."""

    element_class: str
    element_id: str
    children: tuple["TraceTree", ...] = ()


@record
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


@record
class Metrics:
    """Element counts, the coverage ratio and the chain's completeness ratios."""
    counts: dict[str, int]
    coverage_ratio: float
    losses_with_hazard_ratio: float
    hazards_with_uca_ratio: float
    ucas_with_scenario_ratio: float
    scenarios_with_requirement_ratio: float


@record
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


#: The type each kind of field must hold; enum fields are checked against
#: their members instead (V006).
_FIELD_TYPES = {ID: str, STRING: str, IDLIST: tuple}
#: What a V007 message says each kind of field must hold.
_EXPECTED = {ID: "an id", STRING: "a string", IDLIST: "a tuple of ids"}


def _mistyped(slot: Slot, values: list) -> bool:
    """Whether any of a slot's values has the wrong type: an id or text that
    is not a str (text may be None where it is optional), text that holds a
    line break, which serialize cannot write, or an id list that is not a
    tuple of str. One pass over the values, so only such a slot needs
    checking element by element."""
    accepted = _FIELD_TYPES[slot.kind]
    if slot.kind == STRING and not slot.required:
        accepted = (str, type(None))
    if not all(map(isinstance, values, repeat(accepted))):
        return True
    if slot.kind == STRING:
        text = "".join(filter(None, values))
        return "\n" in text or "\r" in text
    return slot.kind == IDLIST and not all(
        map(isinstance, chain.from_iterable(values), repeat(str))
    )


def _expected(slot: Slot, value: object) -> str:
    if slot.kind == STRING and isinstance(value, str):
        return _EXPECTED[slot.kind] + " without line breaks"
    return _EXPECTED[slot.kind]


def _wrong_type(model: Model, ref: Ref, slot: Slot, value: object) -> Diagnostic:
    return Diagnostic(
        Severity.ERROR,
        "V007",
        f"{ref.cls} '{ref.id}' has invalid {slot.field} {value!r} "
        f"(expected {_expected(slot, value)})",
        _span(model, ref),
    )


#: The model's name, which serialize writes as required text.
_MODEL_NAME = Slot("name", None, STRING)

#: A uca's source and action, which _check_uca_action checks together.
_UCA_LINKS = tuple(
    slot for slot, _ in REFERENCES["uca"] if slot.field in ("source", "action")
)


def _check_uca_action(
    model: Model, uca: Uca, ref: Ref, node_ids: set[str], edge_by_id: dict[str, Edge]
) -> list[Diagnostic]:
    """The action of a uca and the source derived from it, action first. A
    source or action that is not an id is reported instead of both."""
    wrong = [slot for slot in _UCA_LINKS if _mistyped(slot, [getattr(uca, slot.field)])]
    if wrong:
        return [_wrong_type(model, ref, slot, getattr(uca, slot.field)) for slot in wrong]
    diags: list[Diagnostic] = []
    action = edge_by_id.get(uca.action)
    if action is None:
        diags.append(_dangling(model, ref, "edge", uca.action))
    elif action.kind != EdgeKind.CONTROL_ACTION:
        diags.append(
            Diagnostic(
                Severity.ERROR,
                "V003",
                f"uca '{uca.id}' references '{action.id}' which is a "
                f"{enum_text(action.kind)} edge, not a control action",
                _span(model, ref),
            )
        )
    # Without an action the source is expected to be empty.
    if uca.source and uca.source not in node_ids:
        diags.append(_dangling(model, ref, "node", uca.source))
    if action is not None and uca.source != action.source:
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
    return diags


def _suspect_links(
    columns: dict[str, list], node_ids: set[str], edge_by_id: dict[str, Edge]
) -> bool:
    """Whether _check_uca_action can report anything: some uca's source or
    action is not an id, or its (action, source) pair is not a control
    action and the node that issues it, or its source is not a known node."""
    if any(_mistyped(slot, columns[slot.field]) for slot in _UCA_LINKS):
        return True
    sources = columns["source"]
    issued = {
        (edge.id, edge.source)
        for edge in edge_by_id.values()
        if edge.kind == EdgeKind.CONTROL_ACTION and isinstance(edge.source, str)
    }
    return not (
        issued.issuperset(zip(columns["action"], sources)) and node_ids.issuperset(sources)
    )


#: Per class, the slots validate checks value by value, each with the classes
#: its ids may name, in the order of their findings: references, then text,
#: then enums. A uca's source and action are left to _check_uca_action.
_CHECKED = {
    c.name: (
        *((slot, targets) for slot, targets in REFERENCES[c.name]
          if c.name != "uca" or slot not in _UCA_LINKS),
        *((slot, ()) for slot in c.slots if slot.kind == STRING),
        *((slot, ()) for slot in c.slots if slot.kind == ENUM),
    )
    for c in SCHEMA
}


def _suspect(slot: Slot, values: list, known: set[str]) -> bool:
    """Whether any of a slot's values can be reported: one of the wrong type,
    an enum value that is not a member (or None where the field is
    optional), an id not in ``known`` or an empty required id list. Enum
    values are compared by identity, and each question is one pass over the
    column, so only such a slot needs checking element by element."""
    if slot.kind == ENUM:
        allowed = {id(member) for member in slot.members.values()}
        if not slot.required:
            allowed.add(id(None))
        return not set(map(id, values)) <= allowed
    if _mistyped(slot, values):
        return True
    if slot.kind == IDLIST:
        return not known.issuperset(chain.from_iterable(values)) or bool(
            slot.nonempty and not all(values)
        )
    return slot.kind == ID and not known.issuperset(values)


def _findings(model: Model, ref: Ref, slot: Slot, value: object, known: set[str],
              targets: tuple[str, ...]) -> Iterator[Diagnostic]:
    """The findings on one value of a checked slot of the element ``ref``. A
    value of the wrong type is reported instead of anything else."""
    if slot.kind == ENUM:
        # The text serialize would write must be one parse accepts.
        text = enum_text(value)
        optional = value is None and not slot.required
        if not (optional or isinstance(text, str) and text in slot.members):
            yield Diagnostic(
                Severity.ERROR,
                "V006",
                f"{ref.cls} '{ref.id}' has invalid {slot.field} '{text}' "
                f"(expected one of: {', '.join(slot.members)})",
                _span(model, ref),
            )
    elif _mistyped(slot, [value]):
        yield _wrong_type(model, ref, slot, value)
    elif slot.kind != STRING:
        values = value if slot.kind == IDLIST else (value,)
        if slot.nonempty and not values:
            yield Diagnostic(
                Severity.ERROR,
                "V004",
                f"{ref.cls} '{ref.id}' must {slot.nonempty} at least one {slot.target}",
                _span(model, ref),
            )
        for target_id in values:
            if target_id not in known:
                yield _dangling(model, ref, " or ".join(targets), target_id)


def validate(model: Model) -> list[Diagnostic]:
    """Check every cross-reference and structural invariant.

    An empty result means the model is semantically valid. Diagnostics
    carry the span of the referencing declaration when the model was parsed
    from text. The model's name comes first, then each class in ``SCHEMA``
    order, each element in declaration order. An element's findings come in
    this order: its id (V007, which holds back all the others, then V008),
    a uca's source and action, its references, its text, its enums, a
    self-loop, a repeated assessment cell. Where an id is declared more than
    once (V008), references resolve to its first declaration, as ``lookup``
    does.
    """
    diags: list[Diagnostic] = []
    if _mistyped(_MODEL_NAME, [model.name]):
        expected = _expected(_MODEL_NAME, model.name)
        message = f"model has invalid name {model.name!r} (expected {expected})"
        diags.append(Diagnostic(Severity.ERROR, "V007", message))
    id_columns = {
        c.name: list(map(attrgetter("id"), model.elements_of(c.name)))
        for c in SCHEMA
        if c.identity
    }
    # The classes holding an id that is not an identifier. Their id sets and
    # the edges by id leave out any id that is not a str, which may not even
    # be hashable.
    bad_ids = {cls for cls, column in id_columns.items() if not are_identifiers(column)}
    ids = {
        cls: {i for i in column if isinstance(i, str)} if cls in bad_ids else set(column)
        for cls, column in id_columns.items()
    }
    edges = model.edges
    if "edge" in bad_ids:
        edges = [e for e in edges if isinstance(e.id, str)]
    # Built in reverse, so an id declared twice keeps its first edge.
    edge_by_id = {e.id: e for e in reversed(edges)}

    for element_class in SCHEMA:
        cls = element_class.name
        elements = model.elements_of(cls)
        columns = {
            slot.field: list(map(attrgetter(slot.field), elements))
            for slot in element_class.slots
        }
        # One set pass per check decides which checks can find anything in
        # this class; the walk below builds the diagnostics of those only.
        suspects = []
        for slot, targets in _CHECKED[cls]:
            known = ids[targets[0]] if len(targets) == 1 else set().union(*map(ids.get, targets))
            if _suspect(slot, columns[slot.field], known):
                suspects.append((slot, known, targets))
        links = cls == "uca" and _suspect_links(columns, ids["node"], edge_by_id)
        loops = cls == "edge" and any(map(eq, columns["source"], columns["target"]))
        duplicates = False
        if cls == "assessment":
            keys = list(map(attrgetter("id"), elements))
            names = iter(declared_names(keys))
            duplicates = len(set(keys)) < len(keys)
        # An id set smaller than its column: an id repeats, or a bad id is out.
        repeated = cls in ids and len(ids[cls]) < len(id_columns[cls])
        bad_id = cls in bad_ids
        if not (bad_id or suspects or links or loops or duplicates or repeated):
            continue

        seen_ids: set[str] = set()
        for element in elements:
            if bad_id and not are_identifiers([element.id]):
                # Its other checks would name the element by that id, so
                # they wait until it has a valid one.
                diags.append(
                    Diagnostic(
                        Severity.ERROR,
                        "V007",
                        f"{cls} has invalid id {element.id!r} (expected an id)",
                        None,
                    )
                )
                continue
            if element_class.identity:
                ref = Ref(cls, element.id)
                if repeated and element.id in seen_ids:
                    message = f"duplicate {cls} id '{element.id}'"
                    diags.append(Diagnostic(Severity.ERROR, "V008", message, _span(model, ref)))
                seen_ids.add(element.id)
            else:
                ref = Ref(cls, next(names))
            if links:
                diags.extend(
                    _check_uca_action(model, element, ref, ids["node"], edge_by_id)
                )
            for slot, known, targets in suspects:
                value = getattr(element, slot.field)
                diags.extend(_findings(model, ref, slot, value, known, targets))
            if loops and element.source == element.target:
                diags.append(
                    Diagnostic(
                        Severity.WARNING,
                        "V100",
                        f"edge '{element.id}' is a self-loop on '{element.source}'",
                        _span(model, ref),
                    )
                )
            if duplicates and ref.id != element.id:
                diags.append(
                    Diagnostic(
                        Severity.ERROR,
                        "V005",
                        f"duplicate assessment for action '{element.action}' and "
                        f"guide type '{enum_text(element.guide_type)}'",
                        _span(model, ref),
                        _span(model, Ref(cls, element.id)),
                    )
                )

    return diags


# ---------------------------------------------------------------------------
# Control hierarchy
# ---------------------------------------------------------------------------


def _hint_order(hint: Hint) -> tuple[str, tuple[str, ...]]:
    """Hints sort by code, then by subject ids."""
    return hint.code.value, tuple(ref.id for ref in hint.subjects)


def control_hierarchy(
    model: Model, nodes: tuple[Node, ...]
) -> tuple[dict[str, int], list[list[str]]]:
    """Control-authority ranks over a scope of nodes, and its control cycles.

    One iterative depth-first walk over the control-action edges with both
    endpoints in scope (self-loops left out), roots and edges taken in
    declaration order. An edge into a node whose walk is still open closes a
    cycle and is not used for ranking. Tarjan's low-links close each strongly
    connected component; a cycle is one of two or more nodes, its ids sorted.
    Ranks are the least with rank(target) > rank(source) over every other
    edge: one relaxation in reverse finishing order. Ranks keep the order of
    ``nodes``, cycles the order in which the walk closes them.
    """
    ranks = {node.id: 0 for node in nodes}
    targets_of: dict[str, list[str]] = {nid: [] for nid in ranks}
    for e in model.edges:
        if e.kind == EdgeKind.CONTROL_ACTION and e.source != e.target:
            if e.source in ranks and e.target in ranks:
                targets_of[e.source].append(e.target)
    # Discovery index of every node reached. Once a node's component closes
    # its index becomes ``closed``, above every real one, so later edges into
    # it leave low-links alone.
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    closed = len(ranks)
    kept: dict[str, list[str]] = {nid: [] for nid in ranks}  # edges that rank
    open_nodes: set[str] = set()
    unclosed: list[str] = []  # Tarjan's stack
    finished: list[str] = []
    cycles: list[list[str]] = []
    for root in ranks:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        open_nodes.add(root)
        unclosed.append(root)
        walk = [(root, iter(targets_of[root]))]
        while walk:
            node, targets = walk[-1]
            for target in targets:
                if target not in index:
                    kept[node].append(target)
                    index[target] = low[target] = len(index)
                    open_nodes.add(target)
                    unclosed.append(target)
                    walk.append((target, iter(targets_of[target])))
                    break
                low[node] = min(low[node], index[target])
                if target not in open_nodes:
                    kept[node].append(target)
            else:
                walk.pop()
                open_nodes.remove(node)
                finished.append(node)
                if walk:
                    parent = walk[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    component, member = [], None
                    while member != node:
                        member = unclosed.pop()
                        index[member] = closed
                        component.append(member)
                    if len(component) > 1:
                        cycles.append(sorted(component))
    for node in reversed(finished):
        for target in kept[node]:
            ranks[target] = max(ranks[target], ranks[node] + 1)
    return ranks, cycles


def hierarchy_ranks(
    model: Model, boundary_id: str
) -> tuple[dict[str, int], list[Hint]]:
    """Control-authority ranks inside a boundary.

    Rank 0 marks nodes nothing controls; every other node sits one level
    below its highest-ranked controller (longest path over control-action
    edges). Cycles are legal: the edge that closes one under a depth-first
    walk in declaration order is ignored for ranking, and each multi-node
    strongly connected component is reported as a hierarchy-cycle hint.
    """
    nodes, _ = elements_in_boundary(model, boundary_id)
    ranks, cycles = control_hierarchy(model, nodes)
    hints = [
        Hint(
            HintCode.HIERARCHY_CYCLE,
            tuple(Ref("node", nid) for nid in cycle),
            "control actions form a cycle among nodes "
            + ", ".join(f"'{nid}'" for nid in cycle),
        )
        for cycle in cycles
    ]
    hints.sort(key=_hint_order)
    return ranks, hints


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
    actions = [e for e in scope_edges if e.kind == EdgeKind.CONTROL_ACTION]
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
                            model.source_spans.get(Ref("assessment", assessment.id)),
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


#: Each class of the accountability chain but the last: the class that
#: refers to it, the reference slot through which it does, and the hint for
#: an element that nothing in that class refers to, with what its message
#: says about the element.
_CHAIN = {
    cls: (
        referrer,
        next(slot.field for slot, targets in REFERENCES[referrer] if cls in targets),
        code,
        complaint,
    )
    for cls, referrer, code, complaint in (
        ("loss", "hazard", HintCode.LOSS_WITHOUT_HAZARD, "is not linked to any hazard"),
        ("hazard", "uca", HintCode.HAZARD_WITHOUT_UCA, "is not referenced by any uca"),
        ("uca", "scenario", HintCode.UCA_WITHOUT_SCENARIO, "has no loss scenario"),
        (
            "scenario",
            "requirement",
            HintCode.SCENARIO_WITHOUT_REQUIREMENT,
            "is not addressed by any safety requirement",
        ),
    )
}


def _chain_children(model: Model) -> dict[str, dict[str, list[Element]]]:
    """The referred-by maps of the accountability chain: for each class but
    the last, every id that the next class refers to, mapped to the elements
    that refer to it, in declaration order. Read from the model's index, so
    they are built once per model."""
    index = model.index
    return {
        cls: index.referrers(referrer, field)
        for cls, (referrer, field, _, _) in _CHAIN.items()
    }


def hints(model: Model) -> list[Hint]:
    """Advisory structural findings, deterministically ordered by code then
    subject id."""
    found: list[Hint] = []

    feedback_pairs = {
        (e.source, e.target) for e in model.edges if e.kind == EdgeKind.FEEDBACK
    }
    for edge in model.edges:
        if edge.kind == EdgeKind.CONTROL_ACTION and (
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
    flagged: set[str] = set()
    for edge in model.edges:
        if edge.kind != EdgeKind.CONTROL_ACTION or edge.id not in uca_actions:
            continue
        # The first node declared with the id, as lookup and the views read it.
        node = lookup(model, "node", edge.source)
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

    for cls, referenced in _chain_children(model).items():
        _, _, code, complaint = _CHAIN[cls]
        for element in model.elements_of(cls):
            if element.id not in referenced:
                found.append(
                    Hint(code, (Ref(cls, element.id),), f"{cls} '{element.id}' {complaint}")
                )

    found.sort(key=_hint_order)
    return found


# ---------------------------------------------------------------------------
# Traceability
# ---------------------------------------------------------------------------


def _chain_levels(model: Model, loss_id: str) -> list[tuple[str, set[str]]]:
    """The accountability chain below a loss, one level per class: the class
    and the distinct ids reached there, the loss alone at the first level
    and at each later one the ids of the elements that refer to an id
    reached one level up."""
    levels = [("loss", {loss_id})]
    for cls, referrers in _chain_children(model).items():
        ids = levels[-1][1]
        levels.append((_CHAIN[cls][0], {e.id for i in ids for e in referrers.get(i, ())}))
    return levels


def trace_loss(model: Model, loss_id: str) -> TraceTree:
    """The chain rooted at a loss: its hazards, their ucas, the scenarios per
    uca, and the requirements per scenario. Built up from the last level of
    :func:`_chain_levels`, so an element reached by several paths has one
    subtree, shared by every path within this trace. Raises
    :class:`UnknownReferenceError` for an unknown loss id."""
    if lookup(model, "loss", loss_id) is None:
        raise UnknownReferenceError("loss", loss_id)
    children = _chain_children(model)
    below: dict[str, TraceTree] = {}
    for cls, ids in reversed(_chain_levels(model, loss_id)):
        referrers = children.get(cls, {})
        below = {
            i: TraceTree(cls, i, tuple(below[e.id] for e in referrers.get(i, ())))
            for i in ids
        }
    return below[loss_id]


def trace_node(model: Model, node_id: str) -> AccountabilityReport:
    """Accountability view for one node; the hazards and losses reached are
    first declarations, each once, in declaration order, with undeclared ids
    left out, as :func:`phasekit.diff.impact` lists them. Raises
    :class:`UnknownReferenceError` for an unknown node id."""
    if lookup(model, "node", node_id) is None:
        raise UnknownReferenceError("node", node_id)

    actions = tuple(
        e.id
        for e in model.edges
        if e.kind == EdgeKind.CONTROL_ACTION and e.source == node_id
    )
    action_set = set(actions)
    ucas = [u for u in model.ucas if u.action in action_set]
    hazards, losses = model.index.reached(ucas)
    scenarios = tuple(s.id for s in model.scenarios if node_id in s.elements)
    ids = (tuple(e.id for e in found) for found in (ucas, hazards, losses))
    return AccountabilityReport(node_id, actions, *ids, scenarios)


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
    return _metrics(model, coverage(model))


def _metrics(model: Model, grid: CoverageMatrix) -> Metrics:
    # One ratio per chain link, in the order of the Metrics fields: the
    # share of losses, hazards, ucas and scenarios the next class refers to.
    ratios = [
        _ratio(
            sum(1 for e in model.elements_of(cls) if e.id in referenced),
            len(model.elements_of(cls)),
        )
        for cls, referenced in _chain_children(model).items()
    ]
    return Metrics(
        {c.collection: len(model.elements_of(c.name)) for c in SCHEMA},
        grid.ratio(),
        *ratios,
    )


def analyze(model: Model) -> AnalysisBundle:
    """Run the standard analyses once, for the exporters."""
    return _analyze(model, validate(model))


def _analyze(model: Model, diagnostics: list[Diagnostic]) -> AnalysisBundle:
    """The bundle of a model whose validation diagnostics are known."""
    grid = coverage(model)
    return AnalysisBundle(tuple(diagnostics), grid, tuple(hints(model)), _metrics(model, grid))
