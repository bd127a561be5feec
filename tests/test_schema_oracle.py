"""The schema read off the element records against a table written by hand.

``SCHEMA`` is built by the ``element`` decorator from the ``slot`` fields of
the nine element records. ``EXPECTED`` below is the table those records must
describe, written out class by class as a literal; the tables derived from
the schema (``REFERENCES``, ``ELEMENT_CLASSES``, ``CLASS_FIELDS``, the
parser's ``_STATEMENTS``) and the record signatures are checked against it or
against literals too.
"""

from __future__ import annotations

import inspect

from phasekit import dsl
from phasekit.model import (
    CLASS_FIELDS,
    DESCRIPTION,
    ELEMENT_CLASSES,
    ENUM,
    ID,
    IDLIST,
    NOT_HAZARDOUS,
    REFERENCES,
    SCHEMA,
    STRING,
    Assessment,
    BoundaryStage,
    Edge,
    EdgeKind,
    ElementClass,
    GuideType,
    Hazard,
    Loss,
    LossCategory,
    LossScenario,
    Node,
    NodeKind,
    SafetyRequirement,
    ScenarioClass,
    Slot,
    SystemBoundary,
    Uca,
    UcaCategory,
)


def _enum(field_name: str, key: str | None, enum_cls: type, required: bool = True) -> Slot:
    return Slot(field_name, key, ENUM, {member.value: member for member in enum_cls}, required)


EXPECTED: tuple[ElementClass, ...] = (
    ElementClass("loss", ("loss",), Loss, "losses", ("id",), (
        Slot("description", DESCRIPTION, STRING),
        _enum("category", "category", LossCategory),
    )),
    ElementClass("boundary", ("boundary",), SystemBoundary, "boundaries", ("id",), (
        Slot("name", DESCRIPTION, STRING),
        _enum("stage", "stage", BoundaryStage, required=False),
        Slot("includes", "includes", IDLIST, required=False, target=("node",)),
    )),
    ElementClass("hazard", ("hazard",), Hazard, "hazards", ("id",), (
        Slot("description", DESCRIPTION, STRING),
        Slot("boundary", "boundary", ID, target=("boundary",)),
        Slot("leads_to", "leads_to", IDLIST, target=("loss",), nonempty="lead to"),
    )),
    ElementClass("node", ("node",), Node, "nodes", ("id",), (
        Slot("name", DESCRIPTION, STRING),
        _enum("kind", "kind", NodeKind),
        Slot("process_model", "process_model", STRING, required=False),
        Slot("control_algorithm", "control_algorithm", STRING, required=False),
    )),
    ElementClass("edge", ("action", "feedback", "iolink"), Edge, "edges", ("id",), (
        _enum("kind", None, EdgeKind),
        Slot("source", "from", ID, target=("node",)),
        Slot("target", "to", ID, target=("node",)),
        Slot("label", DESCRIPTION, STRING),
    )),
    ElementClass("uca", ("uca",), Uca, "ucas", ("id",), (
        Slot("source", None, ID, target=("node",)),
        Slot("action", "action", ID, target=("edge",)),
        _enum("guide_type", "type", GuideType),
        _enum("category", "category", UcaCategory),
        Slot("context", "context", STRING),
        Slot("hazards", "hazards", IDLIST, target=("hazard",), nonempty="link to"),
    )),
    ElementClass("scenario", ("scenario",), LossScenario, "scenarios", ("id",), (
        Slot("uca", "uca", ID, target=("uca",)),
        _enum("scenario_class", "class", ScenarioClass),
        Slot("description", DESCRIPTION, STRING),
        Slot("elements", "elements", IDLIST, required=False, target=("node", "edge")),
    )),
    ElementClass("requirement", ("requirement",), SafetyRequirement, "requirements", ("id",), (
        Slot("scenarios", "scenarios", IDLIST, target=("scenario",), nonempty="cover"),
        Slot("text", DESCRIPTION, STRING),
    )),
    ElementClass("assessment", ("assess",), Assessment, "assessments", (), (
        Slot("action", "action", ID, target=("edge",)),
        _enum("guide_type", "type", GuideType),
        Slot("verdict", "verdict", ENUM, {NOT_HAZARDOUS: NOT_HAZARDOUS}),
        Slot("rationale", "rationale", STRING),
    )),
)

#: Per class, each reference field with the classes its ids may name.
EXPECTED_REFERENCES: dict[str, tuple[tuple[str, tuple[str, ...]], ...]] = {
    "loss": (),
    "boundary": (("includes", ("node",)),),
    "hazard": (("boundary", ("boundary",)), ("leads_to", ("loss",))),
    "node": (),
    "edge": (("source", ("node",)), ("target", ("node",))),
    "uca": (("source", ("node",)), ("action", ("edge",)), ("hazards", ("hazard",))),
    "scenario": (("uca", ("uca",)), ("elements", ("node", "edge"))),
    "requirement": (("scenarios", ("scenario",)),),
    "assessment": (("action", ("edge",)),),
}

EXPECTED_SIGNATURES: dict[type, str] = {
    Loss: "(id: 'str', description: 'str', category: 'LossCategory') -> None",
    SystemBoundary: "(id: 'str', name: 'str', stage: 'BoundaryStage | None' = None, "
    "includes: 'tuple[str, ...]' = ()) -> None",
    Hazard: "(id: 'str', description: 'str', boundary: 'str', "
    "leads_to: 'tuple[str, ...]') -> None",
    Node: "(id: 'str', name: 'str', kind: 'NodeKind', process_model: 'str | None' = None, "
    "control_algorithm: 'str | None' = None) -> None",
    Edge: "(id: 'str', kind: 'EdgeKind', source: 'str', target: 'str', label: 'str') -> None",
    Uca: "(id: 'str', source: 'str', action: 'str', guide_type: 'GuideType', "
    "category: 'UcaCategory', context: 'str', hazards: 'tuple[str, ...]') -> None",
    LossScenario: "(id: 'str', uca: 'str', scenario_class: 'ScenarioClass', "
    "description: 'str', elements: 'tuple[str, ...]' = ()) -> None",
    SafetyRequirement: "(id: 'str', scenarios: 'tuple[str, ...]', text: 'str') -> None",
    Assessment: "(action: 'str', guide_type: 'GuideType', rationale: 'str', "
    "verdict: 'str' = 'not-hazardous') -> None",
}


def test_schema_equals_the_table_class_by_class_and_slot_by_slot():
    assert [c.name for c in SCHEMA] == [c.name for c in EXPECTED]
    for found, expected in zip(SCHEMA, EXPECTED):
        assert found._replace(slots=()) == expected._replace(slots=()), expected.name
        assert len(found.slots) == len(expected.slots), expected.name
        for found_slot, expected_slot in zip(found.slots, expected.slots):
            assert found_slot._asdict() == expected_slot._asdict(), (expected.name, expected_slot)
            # Enum members compare equal to their text: check they are members.
            if expected_slot.members is not None:
                assert list(map(type, found_slot.members.values())) == list(
                    map(type, expected_slot.members.values())
                ), (expected.name, expected_slot.field)
    assert SCHEMA == EXPECTED


def test_tables_derived_from_the_schema_are_unchanged():
    assert ELEMENT_CLASSES == (
        "loss", "boundary", "hazard", "node", "edge", "uca", "scenario", "requirement",
        "assessment",
    )
    assert CLASS_FIELDS == {
        "loss": "losses", "boundary": "boundaries", "hazard": "hazards", "node": "nodes",
        "edge": "edges", "uca": "ucas", "scenario": "scenarios",
        "requirement": "requirements", "assessment": "assessments",
    }
    slots = {(c.name, s.field): s for c in EXPECTED for s in c.slots}
    assert REFERENCES == {
        cls: tuple((slots[cls, name], targets) for name, targets in references)
        for cls, references in EXPECTED_REFERENCES.items()
    }
    statements = {kw: dsl._statement(c, kw) for c in EXPECTED for kw in c.keywords}
    assert list(dsl._STATEMENTS) == ["model", *statements]
    assert {kw: dsl._STATEMENTS[kw] for kw in statements} == statements


def test_record_signatures_are_unchanged():
    for cls, signature in EXPECTED_SIGNATURES.items():
        assert str(inspect.signature(cls)) == signature, cls
