"""``serialize``, which writes a class a column at a time, against the
row-at-a-time serializer it replaced (``tests/serialize_oracle.py``): the same
text for every model, and for every value it cannot write the same exception
type and message, the first bad value in row order deciding."""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasekit import parse
from phasekit.dsl import serialize
from phasekit.model import (
    ID,
    IDLIST,
    SCHEMA,
    STRING,
    ElementClass,
    LossCategory,
    Model,
    NodeKind,
)

from . import serialize_oracle
from .conftest import load_fixture
from .strategies import tangled_models, valid_models
from .test_diff import _synth


def _outcome(model: Model, write=serialize):
    """The text ``write`` makes of the model, or the type and message of what
    it raises."""
    try:
        return write(model)
    except Exception as error:  # the error is the outcome
        return type(error), str(error)


def _oracle(model: Model):
    return _outcome(model, serialize_oracle.serialize)


def _columns(element_class: ElementClass) -> list[tuple[str, str]]:
    """(field, kind) of each column a statement of the class writes, the edge
    kind among them."""
    columns = [(name, ID) for name in element_class.identity]
    return columns + [(s.field, s.kind) for s in element_class.slots
                      if s.key is not None or s.field == "kind"]


#: Values the writer refuses, or writes only value by value, per kind.
BAD = {
    ID: ["1x", "", "a b", "a\nb", "a,b", "é", 5, None, b"A1"],
    STRING: ["a\nb", "a\rb", "\n", 5, b"text"],
    IDLIST: [("A", "1x"), ("A\nB",), ("A,B",), ("A", ""), (5,), [None], 5, "ab", ["A", "B"]],
    # An enum slot writes any str as it is; the edge kind must be an EdgeKind.
    "enum": ["bogus", "", 5, None, NodeKind.HUMAN, "safety-critical"],
}


def _class(name: str) -> ElementClass:
    return next(c for c in SCHEMA if c.name == name)


def _with(model: Model, element_class: ElementClass, row: int, name: str, value) -> Model:
    elements = list(model.elements_of(element_class.name))
    elements[row] = dataclasses.replace(elements[row], **{name: value})
    return dataclasses.replace(model, **{element_class.collection: tuple(elements)})


def _bulk_model() -> Model:
    synth = _synth()
    return parse(synth.authored(synth.generate(2000, 7), 7)).model


@pytest.mark.parametrize("name", ["c1", "c2", "c3"])
def test_serialize_matches_the_oracle_on_the_case_studies(name):
    model = load_fixture(name)
    assert serialize(model) == serialize_oracle.serialize(model)


def test_serialize_matches_the_oracle_on_the_bulk_model():
    model = _bulk_model()
    assert sum(len(model.elements_of(c.name)) for c in SCHEMA) > 19000
    assert serialize(model) == serialize_oracle.serialize(model)


@settings(max_examples=150, deadline=None)
@given(valid_models())
def test_serialize_matches_the_oracle_on_valid_models(model):
    assert serialize(model) == serialize_oracle.serialize(model)


@settings(max_examples=100, deadline=None)
@given(tangled_models())
def test_serialize_matches_the_oracle_on_tangled_models(model):
    assert serialize(model) == serialize_oracle.serialize(model)


def test_optional_fields_at_and_off_their_defaults():
    model = load_fixture("c1")
    node, boundary, scenario = model.nodes[0], model.boundaries[0], model.scenarios[0]
    for changes in (
        {"nodes": (dataclasses.replace(node, process_model=None, control_algorithm=None),
                   dataclasses.replace(node, process_model="", control_algorithm='# a="b"'))},
        {"boundaries": (dataclasses.replace(boundary, stage=None, includes=()),
                        dataclasses.replace(boundary, includes=[]))},
        {"scenarios": (dataclasses.replace(scenario, elements=()),
                       dataclasses.replace(scenario, elements=("A",)))},
        {"nodes": (), "boundaries": (dataclasses.replace(boundary, includes=()),)},
    ):
        changed = dataclasses.replace(model, **changes)
        assert serialize(changed) == serialize_oracle.serialize(changed), changes


def test_each_bad_value_in_each_column_raises_what_the_oracle_raises():
    model = load_fixture("c1")
    checked = 0
    for element_class in SCHEMA:
        rows = len(model.elements_of(element_class.name))
        for name, kind in _columns(element_class):
            for value in BAD.get(kind, BAD["enum"]):
                for row in {0, rows // 2, rows - 1}:
                    changed = _with(model, element_class, row, name, value)
                    expected = _oracle(changed)
                    assert _outcome(changed) == expected, (element_class.name, name, value)
                    checked += isinstance(expected, tuple)
    assert checked > 200


def test_a_bad_id_in_the_fast_column_is_caught():
    # Each of these would pass a check that only joined the ids and matched
    # identifiers: the line break, the comma and the empty id split or vanish.
    model, hazard = load_fixture("c1"), _class("hazard")
    for value in ("a\nb", "a,b", ""):
        for name in ("id", "boundary"):
            changed = _with(model, hazard, 1, name, value)
            assert _outcome(changed)[0] is ValueError
    for value in (("A\nB",), ("A,B",), ("",)):
        changed = _with(model, hazard, 1, "leads_to", value)
        assert _outcome(changed)[0] is ValueError


@settings(max_examples=200, deadline=None)
@given(valid_models(max_per_class=6), st.integers(0, 2**32))
def test_several_bad_values_raise_the_first_in_row_order(model, seed):
    rnd = random.Random(seed)
    cells = [(c, row, column) for c in SCHEMA for row in range(len(model.elements_of(c.name)))
             for column in _columns(c)]
    for element_class, row, (name, kind) in rnd.sample(cells, min(len(cells), 3)):
        model = _with(model, element_class, row, name, rnd.choice(BAD.get(kind, BAD["enum"])))
    assert _outcome(model) == _oracle(model)


def test_model_name_and_enum_members_are_written_as_the_oracle_writes_them():
    model = load_fixture("c1")
    for name in ("", 'a "quoted" \\ name', "ünïcode # = [x]", "a\nb", 5):
        changed = dataclasses.replace(model, name=name)
        assert _outcome(changed) == _oracle(changed)
    loss = dataclasses.replace(model.losses[0], category=LossCategory.SOCIOTECHNICAL.value)
    changed = dataclasses.replace(model, losses=(loss,))
    assert serialize(changed) == serialize_oracle.serialize(changed)
