from __future__ import annotations

import dataclasses
import importlib.util
import random
import sys
from enum import Enum
from pathlib import Path

import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from phasekit import Ref, diff, impact, lookup, parse, trace_node, validate
from phasekit.diagnostics import has_errors
from phasekit.diff import ChangeSet, FieldChange
from phasekit.model import ELEMENT_CLASSES, SCHEMA, STRING

from .conftest import FIXTURES, load_fixture
from .diff_oracle import diff as oracle_diff
from .strategies import model_pairs, valid_models

_BASE = (
    'model "pump"\n'
    'loss L1 "l" category=safety-critical\n'
    'boundary SB "op" includes=[RLAgent,Pump]\n'
    'hazard H1 "bad dose" boundary=SB leads_to=[L1]\n'
    'node RLAgent "agent" kind=ai-model process_model="v1 glucose map"\n'
    'node Pump "pump" kind=technical-artifact\n'
    'action CA1 from=RLAgent to=Pump "dose command"\n'
    'feedback FB1 from=Pump to=RLAgent "status"\n'
    'uca U1 action=CA1 type=wrong-timing category=functional context="late" hazards=[H1]\n'
    'scenario S1 uca=U1 class=technical "lag" elements=[Pump,FB1]\n'
    'requirement R1 scenarios=[S1] "alert on lag"\n'
)


def model_of(text):
    result = parse(text)
    assert result.model is not None
    return result.model


def test_diff_identity(c1):
    changes = diff(c1, c1)
    assert changes.is_empty()


def test_diff_process_model_change():
    old = model_of(_BASE)
    new = model_of(_BASE.replace("v1 glucose map", "v2 glucose map"))
    changes = diff(old, new)
    assert changes.added == ()
    assert changes.removed == ()
    (entry,) = changes.modified
    assert entry.ref == Ref("node", "RLAgent")
    (change,) = entry.changes
    assert change.field == "process_model"
    assert change.old == "v1 glucose map"
    assert change.new == "v2 glucose map"


def test_diff_symmetry(c1, c2):
    forward = diff(c1, c2)
    backward = diff(c2, c1)
    assert forward.added == backward.removed
    assert forward.removed == backward.added


def test_diff_reference_set_order_is_not_a_change():
    old = model_of(_BASE)
    new = model_of(_BASE.replace("includes=[RLAgent,Pump]", "includes=[Pump,RLAgent]"))
    assert diff(old, new).is_empty()


def test_diff_added_and_removed():
    old = model_of(_BASE)
    new = model_of(_BASE + 'loss L2 "new loss" category=sociotechnical\n')
    changes = diff(old, new)
    assert changes.added == (Ref("loss", "L2"),)
    assert changes.removed == ()
    assert diff(new, old).removed == (Ref("loss", "L2"),)


def test_diff_assessment_identity_is_the_cell():
    with_assessment = model_of(
        _BASE + 'assess action=CA1 type=provided verdict=not-hazardous rationale="ok"\n'
    )
    changes = diff(model_of(_BASE), with_assessment)
    assert changes.added == (Ref("assessment", "CA1/provided"),)
    reworded = model_of(
        _BASE + 'assess action=CA1 type=provided verdict=not-hazardous rationale="fine"\n'
    )
    changes = diff(with_assessment, reworded)
    (entry,) = changes.modified
    assert entry.ref == Ref("assessment", "CA1/provided")
    assert entry.changes[0].field == "rationale"


def test_impact_empty_changeset_is_empty(c1):
    report = impact(ChangeSet((), (), ()), c1)
    assert report.is_empty()


def test_impact_modified_feedback_edge_flags_scenario():
    old = model_of(_BASE)
    new = model_of(_BASE.replace('"status"', '"sensor status"'))
    changes = diff(old, new)
    report = impact(changes, new)
    (entry,) = report.re_review
    assert entry.subject == Ref("edge", "FB1")
    assert entry.scenarios == ("S1",)
    assert entry.ucas == ()  # FB1 is feedback, no uca attaches to it


def test_impact_modified_node_collects_full_chain():
    old = model_of(_BASE)
    new = model_of(_BASE.replace("v1 glucose map", "v2 glucose map"))
    report = impact(diff(old, new), new)
    (entry,) = report.re_review
    assert entry.subject == Ref("node", "RLAgent")
    assert entry.ucas == ("U1",)
    assert entry.hazards == ("H1",)
    assert entry.losses == ("L1",)


def test_impact_removed_action_lists_dangling_ucas():
    two_ucas = _BASE + (
        'uca U2 action=CA1 type=not-provided category=functional context="none" hazards=[H1]\n'
    )
    old = model_of(two_ucas)
    # The new version drops the control action but keeps both ucas.
    new_text = two_ucas.replace('action CA1 from=RLAgent to=Pump "dose command"\n', "")
    result = parse(new_text)
    assert result.model is not None
    changes = diff(old, result.model)
    report = impact(changes, result.model)
    (dangling,) = report.dangling
    assert dangling.removed == Ref("edge", "CA1")
    assert Ref("uca", "U1") in dangling.referenced_by
    assert Ref("uca", "U2") in dangling.referenced_by


def test_impact_is_monotone_in_the_changeset():
    old = model_of(_BASE)
    new = model_of(
        _BASE.replace("v1 glucose map", "v2 glucose map").replace(
            '"status"', '"sensor status"'
        )
    )
    full = diff(old, new)
    smaller = ChangeSet((), (), full.modified[:1])
    small_report = impact(smaller, new)
    full_report = impact(full, new)
    assert set(e.subject for e in small_report.re_review) <= set(
        e.subject for e in full_report.re_review
    )


def test_rename_is_remove_plus_add():
    old = model_of(_BASE)
    new = model_of(_BASE.replace("FB1", "FBrenamed"))
    changes = diff(old, new)
    assert Ref("edge", "FB1") in changes.removed
    assert Ref("edge", "FBrenamed") in changes.added
    # The scenario citing the old id changed its elements set.
    assert any(m.ref == Ref("scenario", "S1") for m in changes.modified)


def test_free_text_changes_count(c1):
    new = dataclasses.replace(
        c1,
        losses=(
            dataclasses.replace(c1.losses[0], description="reworded"),
            *c1.losses[1:],
        ),
    )
    changes = diff(c1, new)
    (entry,) = changes.modified
    assert entry.changes[0].field == "description"


def test_diff_compares_the_first_declaration_of_a_repeated_id():
    # Only a programmatic model can declare an id twice (V008 stops a
    # document); the first declaration is the one lookup finds.
    old = model_of(_BASE)
    first = dataclasses.replace(old.nodes[0], name="first copy")
    second = dataclasses.replace(old.nodes[0], name="second copy")
    new = dataclasses.replace(old, nodes=(first, *old.nodes[1:], second))
    assert lookup(new, "node", first.id) is first
    (entry,) = diff(old, new).modified
    assert entry.ref == Ref("node", first.id)
    assert entry.changes == (FieldChange("name", old.nodes[0].name, "first copy"),)
    unchanged = dataclasses.replace(old, nodes=(*old.nodes, second))
    assert diff(old, unchanged).is_empty()


# ---------------------------------------------------------------------------
# diff against the element-walk oracle
# ---------------------------------------------------------------------------


def _shuffled_lists(element, rnd):
    """The element with every id list in another order, equal as a set."""
    lists = {
        name: tuple(rnd.sample(value, len(value)))
        for name, value in vars(element).items()
        if isinstance(value, tuple)
    }
    return dataclasses.replace(element, **lists)


def _enum_as_text(element):
    """The element with every enum field given as its value text."""
    return dataclasses.replace(
        element,
        **{
            name: value.value
            for name, value in vars(element).items()
            if isinstance(value, Enum)
        },
    )


@st.composite
def diff_pairs(draw):
    """Two versions of one model with unique ids: elements added, removed
    and modified (text edits, enums changed and given as text, id lists
    reordered and changed, assessments reworded under their cell)."""
    a, b = draw(model_pairs())
    rnd = random.Random(draw(st.integers(0, 2**32)))
    collections = {}
    for element_class in SCHEMA:
        elements = []
        for element in b.elements_of(element_class.name):
            roll = rnd.random()
            if roll < 0.2:
                element = _shuffled_lists(element, rnd)
            elif roll < 0.3:
                element = _enum_as_text(element)
            if rnd.random() < 0.1:
                continue  # removed
            elements.append(element)
        collections[element_class.collection] = tuple(elements)
    return a, dataclasses.replace(b, **collections)


def assert_diff_matches_oracle(old, new):
    assert diff(old, new) == oracle_diff(old, new)
    assert diff(new, old) == oracle_diff(new, old)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(diff_pairs())
def test_diff_matches_oracle(pair):
    assert_diff_matches_oracle(*pair)


def _large_pair():
    """A derandomized valid model of at least a thousand elements and a
    revision of it."""
    found = []

    @settings(max_examples=1, derandomize=True, deadline=None, database=None,
              phases=[Phase.generate])
    @given(valid_models(max_per_class=300), st.integers(0, 2**32))
    def pick(model, seed):
        assume(sum(len(model.elements_of(c)) for c in ELEMENT_CLASSES) >= 1000)
        rnd = random.Random(seed)
        collections = {}
        for element_class in SCHEMA:
            elements = []
            for element in model.elements_of(element_class.name):
                roll = rnd.random()
                if roll < 0.05:
                    continue
                if roll < 0.1:
                    element = _shuffled_lists(element, rnd)
                elif roll < 0.15 and element_class.slots[-1].kind == STRING:
                    element = dataclasses.replace(
                        element, **{element_class.slots[-1].field: "revised"}
                    )
                elements.append(element)
            collections[element_class.collection] = tuple(elements)
        found.append((model, dataclasses.replace(model, **collections)))

    pick()
    return found[-1]


def test_diff_matches_oracle_on_a_large_pair():
    old, new = _large_pair()
    changes = diff(old, new)
    assert changes.added == () and changes.removed and changes.modified
    assert_diff_matches_oracle(old, new)


def _synth():
    """bench/synth.py, the benchmark's generator, loaded from its file."""
    path = Path(__file__).resolve().parent.parent / "bench" / "synth.py"
    spec = importlib.util.spec_from_file_location("phasekit_bench_synth", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_diff_matches_oracle_on_the_benchmark_revision():
    synth = _synth()
    document = synth.generate(1000, 5)
    old = model_of(synth.authored(document, 5))
    new = model_of(synth.authored(synth.revise(document, 5, 10), "5/new"))
    changes = diff(old, new)
    assert changes.added and changes.removed and changes.modified
    assert_diff_matches_oracle(old, new)


# ---------------------------------------------------------------------------
# One chain walk: impact of a node is its trace
# ---------------------------------------------------------------------------


def assert_node_impact_is_its_trace(old, new):
    """On a validated new model, the impact entry of each node subject lists
    the ucas, scenarios, hazards and losses trace_node lists for that node.
    Returns the node entries."""
    assert not has_errors(validate(new))
    entries = [e for e in impact(diff(old, new), new).re_review if e.subject.cls == "node"]
    for entry in entries:
        trace = trace_node(new, entry.subject.id)
        assert (entry.ucas, entry.scenarios, entry.hazards, entry.losses) == (
            trace.ucas, trace.scenarios, trace.hazards, trace.losses
        )
    return entries


@pytest.mark.parametrize("name", ["c1", "c2", "c3"])
def test_node_impact_is_its_trace_on_the_case_studies(name):
    case = load_fixture(name)
    path = FIXTURES.parent / "tests" / "goldens" / "inputs" / f"{name}_rev.phase"
    revision = model_of(path.read_text(encoding="utf-8"))
    assert assert_node_impact_is_its_trace(case, revision)
    assert assert_node_impact_is_its_trace(revision, case)


@pytest.mark.parametrize("seed", [1, 3, 8])
def test_node_impact_is_its_trace_on_the_benchmark_revision(seed):
    synth = _synth()
    document = synth.generate(1000, seed)
    old = model_of(synth.authored(document, seed))
    new = model_of(synth.authored(synth.revise(document, seed, 10), f"{seed}/new"))
    entries = assert_node_impact_is_its_trace(old, new)
    # The pair has teeth: some node's ucas name its hazards out of
    # declaration order.
    ucas = {u.id: u for u in new.ucas}
    assert any(
        e.hazards != tuple(dict.fromkeys(h for u in e.ucas for h in ucas[u].hazards))
        for e in entries
    )


@settings(max_examples=200, deadline=None)
@given(model_pairs())
def test_node_impact_is_its_trace_on_model_pairs(pair):
    old, new = pair
    assume(not has_errors(validate(new)))
    assert_node_impact_is_its_trace(old, new)
