from __future__ import annotations

import dataclasses

import pytest

from phasekit import (
    Model,
    UnknownReferenceError,
    elements_in_boundary,
    lookup,
    parse,
)
from phasekit.model import (
    CLASS_FIELDS,
    DESCRIPTION,
    ELEMENT_CLASSES,
    ENUM,
    IDLIST,
    REFERENCES,
    SCHEMA,
    is_valid_identifier,
)


@pytest.mark.parametrize(
    "text,ok",
    [
        ("L1", True),
        ("a", True),
        ("A-b_c9", True),
        ("", False),
        ("1a", False),
        ("-a", False),
        ("_a", False),
        ("a b", False),
        ("a.b", False),
    ],
)
def test_identifier_shape(text, ok):
    assert is_valid_identifier(text) is ok


def test_lookup_finds_declared_loss(c1):
    loss = lookup(c1, "loss", "L1")
    assert loss is not None
    assert loss.description == "Loss of life or injury to the preterm infants"


def test_lookup_on_empty_model_is_absent():
    assert lookup(Model(), "loss", "L1") is None


def test_lookup_classes_are_namespaced(c1):
    # "L1" exists as a loss only; the same text is not a hazard id.
    assert lookup(c1, "hazard", "L1") is None
    assert lookup(c1, "loss", "L1") is not None


def test_lookup_unknown_class_is_absent(c1):
    assert lookup(c1, "gizmo", "L1") is None


def test_elements_in_boundary_c1_sb3(c1):
    nodes, edges = elements_in_boundary(c1, "SB3")
    assert {n.id for n in nodes} == {"Physician", "AlertSystem", "Infant"}
    assert {e.id for e in edges} == {"CA5", "CA6", "FB3", "FB4", "FB5"}
    # Never an edge with an endpoint outside the boundary.
    ids = {n.id for n in nodes}
    assert all(e.source in ids and e.target in ids for e in edges)


def test_elements_in_boundary_empty_boundary():
    result = parse('node A "a" kind=human\nboundary B "empty"')
    nodes, edges = elements_in_boundary(result.model, "B")
    assert nodes == ()
    assert edges == ()


def test_elements_in_boundary_unknown_id(c1):
    with pytest.raises(UnknownReferenceError) as info:
        elements_in_boundary(c1, "NOPE")
    assert info.value.element_class == "boundary"
    assert info.value.element_id == "NOPE"


def test_model_equality_ignores_spans():
    a = parse('loss L1 "x" category=sociotechnical', "a.phase").model
    b = parse('# comment\n\nloss   L1   "x"   category=sociotechnical\n', "b.phase").model
    assert a == b
    assert a.source_spans != b.source_spans


def test_model_equality_is_structural():
    a = parse('loss L1 "x" category=sociotechnical').model
    b = parse('loss L1 "y" category=sociotechnical').model
    assert a != b


# ---------------------------------------------------------------------------
# The schema table
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("element_class", SCHEMA, ids=lambda c: c.name)
def test_schema_covers_every_dataclass_field_once(element_class):
    declared = [f.name for f in dataclasses.fields(element_class.type)]
    listed = [*element_class.identity, *(slot.field for slot in element_class.slots)]
    assert sorted(listed) == sorted(declared)
    assert len(set(listed)) == len(listed)
    # Slots follow the dataclass, except that an assessment writes its
    # verdict before its rationale.
    expected = [name for name in declared if name not in element_class.identity]
    if element_class.name == "assessment":
        expected = ["action", "guide_type", "verdict", "rationale"]
    assert [slot.field for slot in element_class.slots] == expected


@pytest.mark.parametrize("element_class", SCHEMA, ids=lambda c: c.name)
def test_schema_slots_are_well_formed(element_class):
    keys = [slot.key for slot in element_class.slots if slot.key is not None]
    assert len(set(keys)) == len(keys)
    assert keys.count(DESCRIPTION) <= 1
    for slot in element_class.slots:
        if slot.kind == ENUM:
            assert slot.members
            for text, member in slot.members.items():
                assert getattr(member, "value", member) == text
        else:
            assert slot.members is None
        if slot.nonempty is not None:
            assert slot.kind == IDLIST and slot.required and slot.target is not None
    assert element_class.identity in (("id",), ())


def test_schema_reference_targets_name_classes():
    names = {c.name for c in SCHEMA}
    for element_class in SCHEMA:
        for slot in element_class.slots:
            assert slot.target is None or slot.target in names
        for slot, targets in REFERENCES[element_class.name]:
            assert slot in element_class.slots
            assert targets and set(targets) <= names


def test_schema_names_classes_keywords_and_collections():
    assert ELEMENT_CLASSES == tuple(c.name for c in SCHEMA)
    assert CLASS_FIELDS == {c.name: c.collection for c in SCHEMA}
    model_fields = [f.name for f in dataclasses.fields(Model)]
    assert model_fields == ["name", *(c.collection for c in SCHEMA), "source_spans"]
    keywords = [kw for c in SCHEMA for kw in c.keywords]
    assert len(set(keywords)) == len(keywords)
    assert "model" not in keywords
