from __future__ import annotations

import dataclasses

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import phasekit.dsl
from phasekit import (
    Model,
    UnknownReferenceError,
    elements_in_boundary,
    lookup,
    parse,
    serialize,
    validate,
)
from phasekit.model import (
    CLASS_FIELDS,
    DESCRIPTION,
    ELEMENT_CLASSES,
    ENUM,
    IDLIST,
    REFERENCES,
    SCHEMA,
    Hazard,
    Loss,
    LossCategory,
    SystemBoundary,
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


_BASE = 'boundary SB "s"\nloss L0 "l" category=safety-critical\n'


def _read(statement):
    """Parse ``statement`` after two statements it may refer to: the model,
    the diagnostics, and whether the token fallback read anything."""
    calls, tokenize_alone = [], phasekit.dsl._tokenize

    def tokenize(*args):
        calls.append(args)
        return tokenize_alone(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(phasekit.dsl, "_tokenize", tokenize)
        result = parse(_BASE + statement + "\n")
    return result.model, [(d.code, d.message) for d in result.diagnostics], bool(calls)


def _raises_value_error(model):
    try:
        serialize(model)
    except ValueError:
        return True
    return False


@given(st.text(alphabet="aZ09_-.\u00e9", max_size=5))
@example("")
@example("a-b")
@example("a_-9")
@example("a.b")
@example("\u00e9")
@example("_a")
def test_every_reader_of_ids_accepts_exactly_the_identifiers(text):
    valid = is_valid_identifier(text)
    # The fast match alone reads a valid id, as a statement's id and in a
    # list; it declines an invalid one, which the token fallback rejects.
    for statement, read in [
        (f'loss {text} "l" category=safety-critical', lambda m: m.losses[-1].id),
        (f'hazard H1 "h" boundary=SB leads_to=[L0,{text}]', lambda m: m.hazards[0].leads_to[1]),
    ]:
        model, diagnostics, fell_back = _read(statement)
        assert fell_back is not valid, statement
        assert (read(model) if model else None) == (text if valid else None), statement
        assert bool(diagnostics) is not valid, statement
    # The token fallback, made to read the statement by a repeated key, reads
    # the id before it meets that key.
    for statement, key in [
        (f'loss {text} "l" category=safety-critical category=safety-critical', "category"),
        (f'hazard H1 "h" leads_to=[L0,{text}] boundary=SB boundary=SB', "boundary"),
    ]:
        model, diagnostics, _ = _read(statement)
        expected = [("P002", f"duplicate attribute '{key}'")]
        assert (diagnostics == expected) is valid, statement
    # serialize writes the id, as an id and in a list, or raises ValueError;
    # validate reports V007 on an element id that is not an identifier.
    category = LossCategory.SAFETY_CRITICAL
    losses = (Loss("L0", "l", category), Loss(text, "l", category))
    boundaries = (SystemBoundary("SB", "s"),)
    hazards = (Hazard("H1", "h", "SB", ("L0", text)),)
    assert _raises_value_error(Model(losses=losses)) is not valid
    assert _raises_value_error(Model(boundaries=boundaries, hazards=hazards)) is not valid
    assert ("V007" in {d.code for d in validate(Model(losses=losses))}) is not valid


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
            assert slot.target is None or slot.target and set(slot.target) <= names
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
