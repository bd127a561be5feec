from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from phasekit import (
    CellState,
    CoverageCell,
    CoverageMatrix,
    CoverageRow,
    GuideType,
    HintCode,
    Model,
    Severity,
    UnknownReferenceError,
    coverage,
    diff,
    hierarchy_ranks,
    hints,
    impact,
    metrics,
    parse,
    serialize,
    to_dot,
    trace_loss,
    trace_node,
    validate,
)
from phasekit.analysis import control_hierarchy
from phasekit.export import RenderOptions
from phasekit.diagnostics import has_errors
from phasekit.model import (
    ENUM,
    ID,
    IDLIST,
    SCHEMA,
    STRING,
    Assessment,
    Edge,
    EdgeKind,
    Hazard,
    Loss,
    LossCategory,
    Node,
    NodeKind,
    Slot,
    SystemBoundary,
    Uca,
    is_valid_identifier,
    lookup,
)

from .hierarchy_oracle import oracle_hierarchy_ranks, oracle_scope_ranks
from .strategies import (
    breakable_models,
    graph_models,
    scoped_graph_models,
    valid_models,
)
from .validate_oracle import oracle_validate

FIVE_ACTIONS = (
    'node A "a" kind=human\nnode B "b" kind=human\n'
    + "".join(f'action CA{i} from=A to=B "act {i}"\n' for i in range(1, 6))
)


def model_of(text: str) -> Model:
    result = parse(text)
    assert result.model is not None, [d.format() for d in result.diagnostics]
    return result.model


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def test_fixtures_are_semantically_valid(c1, c2, c3):
    assert validate(c1) == []
    assert validate(c2) == []
    assert validate(c3) == []


def test_dangling_uca_action_is_one_error():
    model = model_of(
        'boundary SB "s"\nloss L1 "l" category=sociotechnical\n'
        'hazard H1 "h" boundary=SB leads_to=[L1]\n'
        'uca UCA1 action=CA9 type=provided category=functional context="c" hazards=[H1]\n'
    )
    (diag,) = validate(model)
    assert diag.code == "V001"
    assert "UCA1" in diag.message and "CA9" in diag.message
    assert diag.span.line == 4


def test_uca_source_mismatch():
    base = model_of(
        'node A "a" kind=human\nnode B "b" kind=human\nnode C "c" kind=human\n'
        'boundary SB "s"\nloss L1 "l" category=sociotechnical\n'
        'hazard H1 "h" boundary=SB leads_to=[L1]\n'
        'action CA1 from=B to=C "act"\n'
        'uca UCA1 action=CA1 type=provided category=functional context="x" hazards=[H1]\n'
    )
    ucas = (dataclasses.replace(base.ucas[0], source="A"),)
    model = dataclasses.replace(base, ucas=ucas)
    (diag,) = validate(model)
    assert diag.code == "V002"
    assert "'A'" in diag.message and "'B'" in diag.message


def test_uca_on_non_control_edge():
    model = model_of(
        'node A "a" kind=human\nnode B "b" kind=human\n'
        'boundary SB "s"\nloss L1 "l" category=sociotechnical\n'
        'hazard H1 "h" boundary=SB leads_to=[L1]\n'
        'feedback FB1 from=A to=B "fb"\n'
        'uca UCA1 action=FB1 type=provided category=functional context="x" hazards=[H1]\n'
    )
    assert [d.code for d in validate(model)] == ["V003"]


def test_empty_reference_lists_are_errors():
    model = Model(
        hazards=(
            dataclasses.replace(
                model_of(
                    'boundary SB "s"\nloss L1 "l" category=sociotechnical\n'
                    'hazard H1 "h" boundary=SB leads_to=[L1]'
                ).hazards[0],
                leads_to=(),
            ),
        ),
        boundaries=model_of('boundary SB "s"').boundaries,
    )
    assert [d.code for d in validate(model)] == ["V004"]


def test_duplicate_assessment_cell():
    model = model_of(
        'node A "a" kind=human\nnode B "b" kind=human\n'
        'action CA1 from=A to=B "act"\n'
        'assess action=CA1 type=provided verdict=not-hazardous rationale="one"\n'
        'assess action=CA1 type=provided verdict=not-hazardous rationale="two"\n'
    )
    diags = validate(model)
    assert [d.code for d in diags] == ["V005"]
    assert diags[0].related_span is not None


def test_self_loop_is_a_warning():
    model = model_of('node A "a" kind=human\naction CA1 from=A to=A "self"')
    (diag,) = validate(model)
    assert diag.code == "V100"
    assert diag.severity is Severity.WARNING


def test_dangling_references_all_fields():
    model = model_of(
        'node A "a" kind=human\n'
        'boundary SB "s" includes=[A,GHOST]\n'
        'loss L1 "l" category=sociotechnical\n'
        'hazard H1 "h" boundary=NOPE leads_to=[L1,L9]\n'
        'action CA1 from=A to=GHOST2 "act"\n'
        'uca U1 action=CA1 type=provided category=functional context="c" hazards=[H1,H9]\n'
        'scenario S1 uca=U9 class=technical "d" elements=[A,CA1,GHOST3]\n'
        'requirement R1 scenarios=[S1,S9] "t"\n'
        'assess action=CA9 type=provided verdict=not-hazardous rationale="r"\n'
    )
    codes = [d.code for d in validate(model)]
    assert codes.count("V001") == 9
    assert set(codes) == {"V001"}


_ACTION = (
    Node("A", "a", NodeKind.HUMAN),
    Node("B", "b", NodeKind.HUMAN),
)


@pytest.mark.parametrize(
    "model,message",
    [
        (
            Model(
                nodes=_ACTION,
                edges=(Edge("CA1", EdgeKind.CONTROL_ACTION, "A", "B", "act"),),
                assessments=(
                    Assessment("CA1", GuideType.PROVIDED, "r", verdict="hazardous"),
                ),
            ),
            "assessment 'CA1/provided' has invalid verdict 'hazardous' "
            "(expected one of: not-hazardous)",
        ),
        (
            Model(
                nodes=_ACTION,
                edges=(Edge("CA1", EdgeKind.CONTROL_ACTION, "A", "B", "act"),),
                assessments=(Assessment("CA1", "sometimes", "r"),),
            ),
            "assessment 'CA1/sometimes' has invalid guide_type 'sometimes' "
            "(expected one of: provided, not-provided, wrong-timing, "
            "stopped-too-soon-applied-too-long)",
        ),
        (
            Model(losses=(Loss("L1", "d", "bogus"),)),
            "loss 'L1' has invalid category 'bogus' (expected one of: "
            "safety-critical, performance-related, sociotechnical)",
        ),
    ],
    ids=["verdict", "guide-type", "category"],
)
def test_enum_value_the_parser_rejects(model, message):
    (diag,) = validate(model)
    assert (diag.code, diag.message) == ("V006", message)
    # Why it matters: the canonical text of such a model does not parse.
    assert [d.code for d in parse(serialize(model)).diagnostics] == ["P004"]


def test_enum_values_given_as_text_or_left_out_are_valid():
    model = Model(
        losses=(Loss("L1", "d", "safety-critical"),),
        boundaries=(SystemBoundary("SB", "s", None), SystemBoundary("SC", "s", "other")),
    )
    assert validate(model) == []
    assert [d.code for d in validate(Model(nodes=(Node("A", "a", None),)))] == ["V006"]
    twice = Model(
        nodes=_ACTION,
        edges=(Edge("CA1", EdgeKind.CONTROL_ACTION, "A", "B", "act"),),
        assessments=(Assessment("CA1", "provided", "r"),) * 2,
    )
    (diag,) = validate(twice)
    assert diag.code == "V005"
    assert diag.message.endswith("guide type 'provided'")


_LOSS_AND_BOUNDARY = {
    "losses": (Loss("L1", "d", "safety-critical"),),
    "boundaries": (SystemBoundary("SB", "s"),),
}


@pytest.mark.parametrize(
    "leads_to,shown",
    [(None, "None"), ("L1", "'L1'"), (["L1"], "['L1']"), (("L1", 7), "('L1', 7)")],
    ids=["none", "str", "list", "non-str-item"],
)
def test_id_list_of_the_wrong_type(leads_to, shown):
    model = Model(**_LOSS_AND_BOUNDARY, hazards=(Hazard("H1", "d", "SB", leads_to),))
    (diag,) = validate(model)
    assert (diag.code, diag.message) == (
        "V007",
        f"hazard 'H1' has invalid leads_to {shown} (expected a tuple of ids)",
    )


def test_a_mistyped_id_list_skips_only_its_own_checks():
    model = Model(
        **_LOSS_AND_BOUNDARY,
        hazards=(
            Hazard("H1", "d", "NOPE", "L1"),
            Hazard("H2", "d", "SB", ()),
            Hazard("H3", "d", "SB", ("L9",)),
        ),
    )
    assert [d.message for d in validate(model)] == [
        "unknown boundary 'NOPE' referenced by hazard 'H1'",
        "hazard 'H1' has invalid leads_to 'L1' (expected a tuple of ids)",
        "hazard 'H2' must lead to at least one loss",
        "unknown loss 'L9' referenced by hazard 'H3'",
    ]


_ACTION_AND_HAZARD = {
    **_LOSS_AND_BOUNDARY,
    "hazards": (Hazard("H1", "d", "SB", ("L1",)),),
    "nodes": _ACTION,
    "edges": (Edge("CA1", EdgeKind.CONTROL_ACTION, "A", "B", "act"),),
}


@pytest.mark.parametrize(
    "model,messages",
    [
        (
            Model(**_LOSS_AND_BOUNDARY, hazards=(Hazard("H1", "d", ["SB"], ("L1",)),)),
            ["hazard 'H1' has invalid boundary ['SB'] (expected an id)"],
        ),
        (
            Model(**_LOSS_AND_BOUNDARY, hazards=(Hazard("H1", None, "SB", ("L1",)),)),
            ["hazard 'H1' has invalid description None (expected a string)"],
        ),
        (
            Model(nodes=(Node("A", "a", NodeKind.HUMAN, process_model=5),)),
            ["node 'A' has invalid process_model 5 (expected a string)"],
        ),
        (
            Model(
                losses=(Loss("L1", "a\nb", LossCategory.SAFETY_CRITICAL),),
                nodes=(Node("A", "a", NodeKind.HUMAN, control_algorithm="\r"),),
            ),
            [
                "loss 'L1' has invalid description 'a\\nb' (expected a string without "
                "line breaks)",
                "node 'A' has invalid control_algorithm '\\r' (expected a string without "
                "line breaks)",
            ],
        ),
        (
            Model(
                **_ACTION_AND_HAZARD,
                ucas=(Uca("U1", None, ["CA1"], GuideType.PROVIDED, "functional", "c", ("H1",)),),
            ),
            [
                "uca 'U1' has invalid source None (expected an id)",
                "uca 'U1' has invalid action ['CA1'] (expected an id)",
            ],
        ),
        (
            Model(
                **_ACTION_AND_HAZARD,
                assessments=(Assessment(("CA1",), GuideType.PROVIDED, "r"),) * 2,
            ),
            [
                "assessment '('CA1',)/provided' has invalid action ('CA1',) (expected an id)",
                "assessment '('CA1',)/provided#2' has invalid action ('CA1',) (expected an id)",
                "duplicate assessment for action '('CA1',)' and guide type 'provided'",
            ],
        ),
        *(
            (
                Model(losses=(Loss(element_id, "d", LossCategory.SAFETY_CRITICAL),)),
                [f"loss has invalid id {element_id!r} (expected an id)"],
            )
            for element_id in (["L1"], None, 5, "L 1", "", "L1\nL2")
        ),
        # serialize quotes the name and leaves out a falsy one, so None would
        # read back as "".
        *(
            (Model(name=name), [f"model has invalid name {name!r} (expected {expected})"])
            for name, expected in (
                ("a\nb", "a string without line breaks"),
                ("a\rb", "a string without line breaks"),
                (5, "a string"),
                (None, "a string"),
            )
        ),
        (
            Model(name=b"m", losses=(Loss("L1", None, LossCategory.SAFETY_CRITICAL),)),
            [
                "model has invalid name b'm' (expected a string)",
                "loss 'L1' has invalid description None (expected a string)",
            ],
        ),
    ],
    ids=[
        "id", "text", "optional-text", "text-line-break", "uca-source-and-action", "assessment-action",
        "element-id-list", "element-id-none", "element-id-int", "element-id-space",
        "element-id-empty", "element-id-line-break", "name-line-feed", "name-carriage-return",
        "name-int", "name-none", "name-before-elements",
    ],
)
def test_single_id_and_text_fields_of_the_wrong_type(model, messages):
    diagnostics = validate(model)
    assert [d.message for d in diagnostics] == messages
    assert {d.code for d in diagnostics} <= {"V007", "V005"}


@pytest.mark.parametrize(
    "model,findings",
    [
        (
            Model(hazards=(Hazard("H1", None, "NOPE", ("L9",)),)),
            [
                ("V001", "unknown boundary 'NOPE' referenced by hazard 'H1'"),
                ("V001", "unknown loss 'L9' referenced by hazard 'H1'"),
                ("V007", "hazard 'H1' has invalid description None (expected a string)"),
            ],
        ),
        (
            Model(nodes=(Node("A", "a", "robot", process_model=5),)),
            [
                ("V007", "node 'A' has invalid process_model 5 (expected a string)"),
                ("V006", "node 'A' has invalid kind 'robot' (expected one of: human, team, "
                 "organization, technical-artifact, ai-model, automated-system)"),
            ],
        ),
        (
            Model(losses=(Loss("L1", "a\nb", "nope"),)),
            [
                ("V007", "loss 'L1' has invalid description 'a\\nb' (expected a string "
                 "without line breaks)"),
                ("V006", "loss 'L1' has invalid category 'nope' (expected one of: "
                 "safety-critical, performance-related, sociotechnical)"),
            ],
        ),
    ],
    ids=["references-before-text", "text-before-enums", "text-then-enum"],
)
def test_findings_within_an_element_are_references_then_text_then_enums(model, findings):
    assert [(d.code, d.message) for d in validate(model)] == findings


def test_an_edge_with_a_bad_id_leaves_the_others_checked():
    model = Model(
        **_ACTION_AND_HAZARD,
        ucas=(Uca("U1", "A", "CA1", GuideType.PROVIDED, "functional", "c", ("H1",)),),
    )
    model = dataclasses.replace(
        model,
        edges=(Edge(["CA1"], EdgeKind.FEEDBACK, "B", "A", "fb"), *model.edges),
    )
    assert [d.message for d in validate(model)] == [
        "edge has invalid id ['CA1'] (expected an id)"
    ]
    model = dataclasses.replace(model, edges=model.edges[:1])
    assert [d.message for d in validate(model)] == [
        "edge has invalid id ['CA1'] (expected an id)",
        "unknown edge 'CA1' referenced by uca 'U1'",
    ]


def test_an_id_declared_again_in_a_model_built_in_code_is_v008(c1):
    node = c1.nodes[0]
    model = dataclasses.replace(c1, nodes=(*c1.nodes, node, node))
    diagnostics = validate(model)
    assert [(d.severity, d.code, d.message, d.span) for d in diagnostics] == [
        (Severity.ERROR, "V008", f"duplicate node id '{node.id}'", c1.source_spans[("node", node.id)])
    ] * 2
    # Classes are namespaced: a loss may share a node's id.
    loss = dataclasses.replace(c1.losses[0], id=node.id)
    assert validate(dataclasses.replace(c1, losses=(*c1.losses, loss))) == []


def test_a_uca_on_a_repeated_edge_id_resolves_to_the_first_edge_declared():
    control = Edge("CA1", EdgeKind.CONTROL_ACTION, "A", "B", "act")
    model = Model(
        **_ACTION_AND_HAZARD,
        ucas=(Uca("U1", "A", "CA1", GuideType.PROVIDED, "functional", "c", ("H1",)),),
    )
    model = dataclasses.replace(
        model, edges=(control, Edge("CA1", EdgeKind.FEEDBACK, "B", "A", "fb"))
    )
    assert lookup(model, "edge", "CA1") == control
    assert [(d.code, d.message) for d in validate(model)] == [
        ("V008", "duplicate edge id 'CA1'")
    ]
    assert oracle_validate(model) == []


def test_edge_kinds_given_as_text_behave_like_their_members():
    model = Model(
        **{
            **_ACTION_AND_HAZARD,
            "nodes": (*_ACTION, Node("C", "c", NodeKind.HUMAN)),
            "edges": (
                Edge("CA1", "control-action", "A", "B", "act"),
                Edge("FB1", "feedback", "B", "A", "fb"),
                Edge("IO1", "io-link", "A", "B", "io"),
                Edge("CA2", "control-action", "B", "C", "act"),
            ),
        },
        ucas=(Uca("U1", "A", "CA1", GuideType.PROVIDED, "functional", "c", ("H1",)),),
    )
    reparsed = parse(serialize(model)).model
    assert validate(model) == validate(reparsed) == []
    assert coverage(model) == coverage(reparsed)
    assert [row.action for row in coverage(model).rows] == ["CA1", "CA2"]
    assert hints(model) == hints(reparsed)
    assert [h.subjects[0].id for h in hints(model) if h.code == "missing-feedback"] == ["CA2"]
    assert trace_node(model, "A") == trace_node(reparsed, "A")
    assert trace_node(model, "A").actions == ("CA1",)
    for options in (None, RenderOptions(include_iolinks=False)):
        assert to_dot(model, options) == to_dot(reparsed, options)
    assert 'label="io"' not in to_dot(model, RenderOptions(include_iolinks=False))

    # A uca on an unknown action makes validate check every uca's action.
    stray = Uca("U2", "A", "CA9", GuideType.PROVIDED, "functional", "c", ("H1",))
    model = dataclasses.replace(model, ucas=(*model.ucas, stray))
    reparsed = parse(serialize(model)).model
    assert [d.message for d in validate(model)] == [d.message for d in validate(reparsed)] == [
        "unknown edge 'CA9' referenced by uca 'U2'"
    ]


#: Values of every type but the right one for some kind of field.
_ODD_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 2),
    st.floats(allow_nan=False),
    st.binary(max_size=2),
    st.text(alphabet="ab", max_size=2),
    # Text with a line break, which serialize cannot write.
    st.sampled_from(["\n", "a\nb", "\r", "a\rb", "\r\n"]),
    st.lists(st.sampled_from(["L0", "N0", "E0"]), max_size=2),
    st.tuples(st.sampled_from(["L0", "N0", 7, None])),
    st.sampled_from([GuideType.PROVIDED, NodeKind.HUMAN, ("N0", "E0")]),
)


#: An element's id, drawn like a slot; only an identifier is well typed.
_ID = Slot("id", None, ID)
#: The model's name, drawn like a slot; only text without a line break is
#: well typed.
_NAME = Slot("name", None, STRING)


def _well_typed(slot, value) -> bool:
    if slot is _ID:
        return isinstance(value, str) and is_valid_identifier(value)
    if slot.kind == IDLIST:
        return isinstance(value, tuple) and all(isinstance(v, str) for v in value)
    if slot.kind == STRING and not slot.required and value is None:
        return True
    if slot.kind == STRING and isinstance(value, str):
        return "\n" not in value and "\r" not in value
    return slot.kind == ENUM or isinstance(value, str)


@settings(max_examples=300, deadline=None)
@given(valid_models(), st.data())
def test_validate_reports_wrong_typed_values_and_never_raises(model, data):
    # None draws the model's name.
    element_class = data.draw(
        st.sampled_from([None, *(c for c in SCHEMA if model.elements_of(c.name))])
    )
    if element_class is None:
        slot = _NAME
        value = data.draw(_ODD_VALUES)
        model = dataclasses.replace(model, name=value)
    else:
        elements = list(model.elements_of(element_class.name))
        index = data.draw(st.integers(0, len(elements) - 1))
        slots = element_class.slots + ((_ID,) if element_class.identity else ())
        slot = data.draw(st.sampled_from(slots))
        value = data.draw(_ODD_VALUES)
        elements[index] = dataclasses.replace(elements[index], **{slot.field: value})
        model = dataclasses.replace(model, **{element_class.collection: tuple(elements)})

    diagnostics = validate(model)
    if not _well_typed(slot, value):
        assert "V007" in [d.code for d in diagnostics]
    if not has_errors(diagnostics):
        assert parse(serialize(model)).model == model


@settings(max_examples=100, deadline=None)
@given(valid_models())
def test_valid_models_have_no_enum_errors_and_reparse(model):
    codes = [d.code for d in validate(model)]
    assert "V006" not in codes and "V007" not in codes
    assert parse(serialize(model)).model == model


# ---------------------------------------------------------------------------
# validate against the element walk it replaced
# ---------------------------------------------------------------------------


def _repeated_ids(model: Model) -> int:
    """Declarations whose valid id an earlier element of the same class has,
    counted by comparing each with every one before it."""
    count = 0
    for element_class in SCHEMA:
        if element_class.identity:
            ids = [e.id for e in model.elements_of(element_class.name)]
            count += sum(
                isinstance(i, str) and is_valid_identifier(i) and i in ids[:n]
                for n, i in enumerate(ids)
            )
    return count


def assert_matches_walk(model: Model) -> list:
    """Full diagnostics, in order: code, severity, message, span and related
    span. The walk predates V008, so a repeated id is counted apart."""
    diagnostics = validate(model)
    assert [d for d in diagnostics if d.code != "V008"] == oracle_validate(model)
    assert sum(d.code == "V008" for d in diagnostics) == _repeated_ids(model)
    return diagnostics


def test_fixtures_match_walk(c1, c2, c3):
    for model in (c1, c2, c3):
        assert_matches_walk(model)


def test_uca_on_an_action_from_an_unknown_node_matches_walk():
    # The uca's (action, source) pair is a control action and its issuer,
    # so only the node-id test can flag it.
    model = model_of(
        'node A "a" kind=human\nboundary SB "s"\nloss L1 "l" category=sociotechnical\n'
        'hazard H1 "h" boundary=SB leads_to=[L1]\naction CA1 from=GHOST to=A "act"\n'
        'uca U1 action=CA1 type=provided category=functional context="c" hazards=[H1]\n'
    )
    assert [d.message for d in assert_matches_walk(model)] == [
        "unknown node 'GHOST' referenced by edge 'CA1'",
        "unknown node 'GHOST' referenced by uca 'U1'",
    ]


@settings(max_examples=300, deadline=None)
@given(breakable_models())
def test_breakable_models_match_walk(model):
    assert_matches_walk(model)


def _with_assessments(model: Model, rnd: random.Random, count: int) -> Model:
    actions = [e.id for e in model.edges if e.kind is EdgeKind.CONTROL_ACTION]
    cells = rnd.sample([(a, g) for a in actions for g in GuideType], min(count, 4 * len(actions)))
    return dataclasses.replace(
        model, assessments=tuple(Assessment(a, g, "r") for a, g in cells)
    )


def _inject_faults(model: Model, rnd: random.Random, rate: float = 0.05) -> Model:
    """Break about ``rate`` of the elements, each in one slot, with values of
    the right type: unknown or other ids and emptied or extended id lists
    (V001-V004), enum text the parser rejects (V006), plus self-loops (V100),
    repeated assessment cells (V005) and elements declared again (V008)."""
    collections = {}
    for element_class in SCHEMA:
        elements = list(model.elements_of(element_class.name))
        for index, element in enumerate(elements):
            if rnd.random() >= rate:
                continue
            slot = rnd.choice([s for s in element_class.slots if s.kind != STRING])
            if slot.kind == IDLIST:
                value = () if rnd.random() < 0.5 else (*getattr(element, slot.field), "ZZ")
            elif slot.kind == ID:
                value = rnd.choice(["ZZ", *(e.id for e in model.elements_of(slot.target[0]))])
            elif (element_class.name, slot.field) == ("edge", "kind"):
                # Another kind: the walk cannot describe a uca's action
                # whose kind is not a member.
                value = rnd.choice(list(EdgeKind))
            else:
                value = "bogus"
            elements[index] = dataclasses.replace(element, **{slot.field: value})
        collections[element_class.collection] = tuple(elements)
    collections["edges"] = tuple(
        dataclasses.replace(e, target=e.source) if rnd.random() < rate else e
        for e in collections["edges"]
    )
    assessments = collections["assessments"]
    repeated = rnd.sample(assessments, len(assessments) // 10)
    collections["assessments"] = assessments + tuple(repeated)
    for element_class in SCHEMA:
        elements = collections[element_class.collection]
        if element_class.identity and elements:
            again = rnd.sample(elements, max(1, int(len(elements) * rate)))
            collections[element_class.collection] = elements + tuple(again)
    return dataclasses.replace(model, **collections)


# No shrinking: a failure is reported on the one large model as it is.
@settings(
    max_examples=1, derandomize=True, deadline=None, database=None, phases=[Phase.generate]
)
@given(valid_models(max_per_class=300), st.integers(0, 2**32))
def test_large_model_with_injected_faults_matches_walk(model, seed):
    rnd = random.Random(seed)
    model = _with_assessments(model, rnd, 100)
    assume(sum(len(model.elements_of(c.name)) for c in SCHEMA) >= 1000)
    model = parse(serialize(model), "large.phase").model
    diagnostics = assert_matches_walk(_inject_faults(model, rnd))
    assert {d.code for d in diagnostics} == {
        "V001", "V002", "V003", "V004", "V005", "V006", "V008", "V100"
    }


# ---------------------------------------------------------------------------
# hierarchy_ranks
# ---------------------------------------------------------------------------


def test_hierarchy_chain():
    model = model_of(
        'node Manager "m" kind=human\nnode Dev "d" kind=human\nnode Dataset "ds" kind=technical-artifact\n'
        'boundary B "all" includes=[Manager,Dev,Dataset]\n'
        'action E1 from=Manager to=Dev "directs"\n'
        'action E2 from=Dev to=Dataset "edits"\n'
    )
    ranks, cycle_hints = hierarchy_ranks(model, "B")
    assert ranks == {"Manager": 0, "Dev": 1, "Dataset": 2}
    assert cycle_hints == []


def test_hierarchy_no_control_edges():
    model = model_of(
        'node A "a" kind=human\nnode B "b" kind=human\nnode C "c" kind=human\n'
        'boundary X "all" includes=[A,B,C]\n'
        'feedback F1 from=A to=B "fb"\n'
    )
    ranks, _ = hierarchy_ranks(model, "X")
    assert ranks == {"A": 0, "B": 0, "C": 0}


def test_hierarchy_c2_operation_boundary(c2):
    ranks, cycle_hints = hierarchy_ranks(c2, "SB2")
    assert ranks == {"RLAgent": 0, "InsulinPump": 1, "Patient": 2}
    assert cycle_hints == []


def test_hierarchy_cycle_hint_per_component():
    model = model_of(
        'node A "a" kind=human\nnode B "b" kind=human\nnode C "c" kind=human\n'
        'node D "d" kind=human\n'
        'boundary X "all" includes=[A,B,C,D]\n'
        'action E1 from=A to=B "x"\naction E2 from=B to=A "y"\n'
        'action E3 from=B to=C "z"\naction E4 from=C to=D "w"\n'
    )
    ranks, cycle_hints = hierarchy_ranks(model, "X")
    assert len(cycle_hints) == 1
    assert cycle_hints[0].code is HintCode.HIERARCHY_CYCLE
    assert tuple(ref.id for ref in cycle_hints[0].subjects) == ("A", "B")
    # Ranks stay defined on the cycle: back edge B->A ignored.
    assert ranks == {"A": 0, "B": 1, "C": 2, "D": 3}


def test_hierarchy_self_loop_is_not_a_cycle_component():
    model = model_of(
        'node A "a" kind=human\nboundary X "all" includes=[A]\n'
        'action E1 from=A to=A "self"\n'
    )
    ranks, cycle_hints = hierarchy_ranks(model, "X")
    assert ranks == {"A": 0}
    assert cycle_hints == []


def test_hierarchy_unknown_boundary(c1):
    with pytest.raises(UnknownReferenceError):
        hierarchy_ranks(c1, "ZZ")


def test_hierarchy_iolinks_do_not_rank():
    model = model_of(
        'node A "a" kind=human\nnode B "b" kind=human\n'
        'boundary X "all" includes=[A,B]\n'
        'iolink I1 from=A to=B "chat"\n'
    )
    ranks, _ = hierarchy_ranks(model, "X")
    assert ranks == {"A": 0, "B": 0}


def _rank_rows(dot: str) -> list[str]:
    return [line for line in dot.splitlines() if "rank=same" in line]


def _expected_rank_rows(ranks: dict[str, int]) -> list[str]:
    rows: dict[int, list[str]] = {}
    for nid, rank in ranks.items():
        rows.setdefault(rank, []).append(f'"{nid}";')
    return [f"  {{ rank=same; {' '.join(rows[rank])} }}" for rank in sorted(rows)]


@settings(max_examples=600, deadline=None, derandomize=True)
@given(st.one_of(graph_models(), scoped_graph_models()))
def test_hierarchy_matches_the_three_walk_oracle(model):
    ranks, cycle_hints = hierarchy_ranks(model, "B")
    oracle_ranks, oracle_hints = oracle_hierarchy_ranks(model, "B")
    assert list(ranks.items()) == list(oracle_ranks.items())
    assert cycle_hints == oracle_hints
    # to_dot ranks the whole model, whatever the boundary.
    whole = oracle_scope_ranks(model, list(model.nodes))
    assert list(control_hierarchy(model, model.nodes)[0].items()) == list(whole.items())
    assert _rank_rows(to_dot(model)) == _expected_rank_rows(whole)


def test_hierarchy_repeated_node_id_ranks_below_its_highest_controller():
    # validate reports a node id declared twice in a programmatic model
    # (V008); the scope holds it once, and E still sits one level below C.
    model = Model(
        nodes=tuple(Node(nid, nid, NodeKind.HUMAN) for nid in "AABCDE"),
        edges=tuple(
            Edge(f"E{index}", EdgeKind.CONTROL_ACTION, source, target, "")
            for index, (source, target) in enumerate(["AC", "DB", "BC", "CE"])
        ),
        boundaries=(SystemBoundary("X", "all", None, tuple("ABCDE")),),
    )
    assert [d.message for d in validate(model)] == ["duplicate node id 'A'"]
    ranks, cycle_hints = hierarchy_ranks(model, "X")
    assert ranks == {"A": 0, "B": 1, "C": 2, "D": 0, "E": 3}
    assert cycle_hints == []
    rows = _rank_rows(to_dot(model))
    assert [row for row in rows if '"C"' in row] != [row for row in rows if '"E"' in row]


# ---------------------------------------------------------------------------
# coverage
# ---------------------------------------------------------------------------


def test_coverage_all_gaps():
    matrix = coverage(model_of(FIVE_ACTIONS))
    assert len(matrix.rows) == 5
    assert matrix.counts() == (0, 0, 20)
    assert matrix.ratio() == 0.0


def test_coverage_cell_accounting():
    text = FIVE_ACTIONS + (
        'boundary SB "s"\nloss L1 "l" category=sociotechnical\n'
        'hazard H1 "h" boundary=SB leads_to=[L1]\n'
        'uca U1 action=CA1 type=not-provided category=functional context="c" hazards=[H1]\n'
        'assess action=CA1 type=provided verdict=not-hazardous rationale="r"\n'
    )
    matrix = coverage(model_of(text))
    assert matrix.counts() == (1, 1, 18)
    assert matrix.warnings == ()


def test_coverage_conflicting_waiver_warning():
    text = FIVE_ACTIONS + (
        'boundary SB "s"\nloss L1 "l" category=sociotechnical\n'
        'hazard H1 "h" boundary=SB leads_to=[L1]\n'
        'uca U1 action=CA1 type=provided category=functional context="c" hazards=[H1]\n'
        'assess action=CA1 type=provided verdict=not-hazardous rationale="r"\n'
    )
    matrix = coverage(model_of(text))
    # The conflicted cell counts once, as covered.
    assert matrix.counts() == (1, 0, 19)
    (warning,) = matrix.warnings
    assert warning.code == "C001"
    assert warning.severity is Severity.WARNING


def test_coverage_counts_a_state_that_is_no_member_as_a_gap():
    # Text equal to a member's value is not the member.
    states = (CellState.COVERED, "covered", CellState.WAIVED, "waived", None)
    row = CoverageRow("A", "CA1", tuple(CoverageCell(state) for state in states))
    matrix = CoverageMatrix((row, row))
    assert matrix.counts() == (2, 2, 6)
    assert matrix.ratio() == 0.4


def test_coverage_c2_pump_not_provided_cell(c2):
    matrix = coverage(c2, "SB2")
    row = next(r for r in matrix.rows if r.action == "CA4")
    assert row.controller == "InsulinPump"
    cell = row.cells[list(GuideType).index(GuideType.NOT_PROVIDED)]
    assert cell.state is CellState.COVERED
    assert cell.uca_ids == ("UCA1",)


def test_coverage_rows_sorted_by_controller_then_action():
    matrix = coverage(model_of(
        'node Z "z" kind=human\nnode A "a" kind=human\n'
        'action C2 from=Z to=A "x"\naction C1 from=A to=Z "y"\naction C0 from=Z to=A "w"\n'
    ))
    assert [(r.controller, r.action) for r in matrix.rows] == [
        ("A", "C1"), ("Z", "C0"), ("Z", "C2"),
    ]


def test_coverage_unknown_boundary(c1):
    with pytest.raises(UnknownReferenceError):
        coverage(c1, "ZZ")


def test_coverage_boundary_scope(c2):
    # SB1 holds CA1 (researchers) and CA2 (agent on the simulator).
    matrix = coverage(c2, "SB1")
    assert [r.action for r in matrix.rows] == ["CA2", "CA1"]


# ---------------------------------------------------------------------------
# hints
# ---------------------------------------------------------------------------


def test_hints_missing_feedback_for_dataset_supply_edge(c3):
    found = [
        h for h in hints(c3)
        if h.code is HintCode.MISSING_FEEDBACK and h.subjects[0].id == "CA4"
    ]
    assert len(found) == 1
    assert "DatasetCreators" in found[0].message


def test_hints_empty_on_fully_linked_loop():
    text = (
        'loss L1 "l" category=sociotechnical\n'
        'boundary SB "s" includes=[A,B]\n'
        'hazard H1 "h" boundary=SB leads_to=[L1]\n'
        'node A "a" kind=human process_model="knows the loop"\n'
        'node B "b" kind=human\n'
        'action CA1 from=A to=B "act"\n'
        'feedback FB1 from=B to=A "fb"\n'
        'uca U1 action=CA1 type=provided category=functional context="c" hazards=[H1]\n'
        'scenario S1 uca=U1 class=technical "d"\n'
        'requirement R1 scenarios=[S1] "t"\n'
    )
    assert hints(model_of(text)) == []


def test_hints_loss_without_hazard():
    model = model_of('loss L9 "unused" category=sociotechnical')
    (hint,) = hints(model)
    assert hint.code is HintCode.LOSS_WITHOUT_HAZARD
    assert hint.subjects == ((("loss", "L9")),)


def test_hints_orphan_node():
    model = model_of('node X "x" kind=team')
    (hint,) = hints(model)
    assert hint.code is HintCode.ORPHAN_NODE


def test_hints_no_process_model_only_for_uca_bearing_sources():
    text = (
        'loss L1 "l" category=sociotechnical\n'
        'boundary SB "s"\n'
        'hazard H1 "h" boundary=SB leads_to=[L1]\n'
        'node A "a" kind=human\n'
        'node B "b" kind=human\n'
        'node C "c" kind=human\n'
        'action CA1 from=A to=B "with uca"\n'
        'action CA2 from=C to=B "without uca"\n'
        'feedback FB1 from=B to=A "fb"\nfeedback FB2 from=B to=C "fb2"\n'
        'uca U1 action=CA1 type=provided category=functional context="c" hazards=[H1]\n'
        'scenario S1 uca=U1 class=technical "d"\n'
        'requirement R1 scenarios=[S1] "t"\n'
    )
    found = hints(model_of(text))
    assert [h.code for h in found] == [HintCode.NO_PROCESS_MODEL]
    assert found[0].subjects[0].id == "A"


def test_hints_self_loop():
    model = model_of('node A "a" kind=human\niolink IO1 from=A to=A "self"')
    assert [h.code for h in hints(model)] == [HintCode.SELF_LOOP]


def test_hints_deterministic_order(c3):
    first = hints(c3)
    second = hints(c3)
    assert first == second
    keys = [(h.code.value, tuple(r.id for r in h.subjects)) for h in first]
    assert keys == sorted(keys)


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------


def test_trace_loss_reaches_paper_anchored_elements(c1):
    tree = trace_loss(c1, "L1")
    hazard_ids = {child.element_id for child in tree.children}
    assert "H1" in hazard_ids  # performance-requirements hazard
    scenario_ids = {
        s.element_id
        for h in tree.children
        for u in h.children
        for s in u.children
    }
    assert "S1" in scenario_ids  # alarm-misunderstanding scenario


def test_trace_loss_depth_zero():
    model = model_of('loss L1 "l" category=sociotechnical')
    tree = trace_loss(model, "L1")
    assert tree.element_class == "loss"
    assert tree.children == ()


def test_trace_loss_two_hazards_one_uca_each():
    text = (
        'loss L1 "l" category=sociotechnical\n'
        'boundary SB "s"\n'
        'hazard H1 "h1" boundary=SB leads_to=[L1]\n'
        'hazard H2 "h2" boundary=SB leads_to=[L1]\n'
        'node A "a" kind=human\nnode B "b" kind=human\n'
        'action CA1 from=A to=B "x"\naction CA2 from=A to=B "y"\n'
        'uca U1 action=CA1 type=provided category=functional context="c1" hazards=[H1]\n'
        'uca U2 action=CA2 type=provided category=functional context="c2" hazards=[H2]\n'
    )
    tree = trace_loss(model_of(text), "L1")
    assert len(tree.children) == 2
    leaves = [u.element_id for h in tree.children for u in h.children]
    assert leaves == ["U1", "U2"]


def test_trace_loss_shares_a_subtree_reached_by_two_paths():
    text = (
        'loss L1 "l" category=sociotechnical\n'
        'boundary SB "s"\n'
        'hazard H1 "h1" boundary=SB leads_to=[L1]\n'
        'hazard H2 "h2" boundary=SB leads_to=[L1]\n'
        'node A "a" kind=human\nnode B "b" kind=human\n'
        'action CA1 from=A to=B "x"\n'
        'uca U1 action=CA1 type=provided category=functional context="c" hazards=[H1,H2]\n'
        'scenario S1 uca=U1 class=technical "d"\n'
        'requirement R1 scenarios=[S1] "t"\n'
    )
    tree = trace_loss(model_of(text), "L1")
    (first,), (second,) = (hazard.children for hazard in tree.children)
    assert first.element_id == "U1"
    assert first is second
    assert first.children[0].children[0].element_id == "R1"


def test_trace_loss_unknown_id(c1):
    with pytest.raises(UnknownReferenceError):
        trace_loss(c1, "L99")


def test_trace_node_physician_includes_alert_use_uca(c1):
    report = trace_node(c1, "Physician")
    assert "CA5" in report.actions
    assert "UCA3" in report.ucas
    assert "H3" in report.hazards
    assert "L1" in report.losses
    assert "S1" in report.scenarios


def test_trace_node_empty_report():
    model = model_of('node X "x" kind=human')
    report = trace_node(model, "X")
    assert report.actions == ()
    assert report.ucas == ()
    assert report.hazards == ()
    assert report.losses == ()
    assert report.scenarios == ()


def test_trace_node_scenario_citation_only():
    text = (
        'loss L1 "l" category=sociotechnical\n'
        'boundary SB "s"\n'
        'hazard H1 "h" boundary=SB leads_to=[L1]\n'
        'node A "a" kind=human\nnode B "b" kind=human\nnode W "w" kind=human\n'
        'action CA1 from=A to=B "x"\n'
        'uca U1 action=CA1 type=provided category=functional context="c" hazards=[H1]\n'
        'scenario S1 uca=U1 class=interaction "d" elements=[W]\n'
    )
    report = trace_node(model_of(text), "W")
    assert report.actions == () and report.ucas == ()
    assert report.hazards == () and report.losses == ()
    assert report.scenarios == ("S1",)


def test_trace_node_unknown_id(c1):
    with pytest.raises(UnknownReferenceError):
        trace_node(c1, "Nobody")


def test_trace_node_resolves_repeated_ids_to_their_first_declaration():
    # Only a model built in code can repeat an id (V008).
    model = Model(
        losses=(Loss("L1", "d", "safety-critical"), Loss("L2", "d", "safety-critical")),
        boundaries=(SystemBoundary("SB", "s"),),
        hazards=(
            Hazard("H1", "d", "SB", ("L1",)),
            Hazard("H1", "d", "SB", ("L2",)),
            Hazard("H2", "d", "SB", ("L2",)),
        ),
        nodes=_ACTION,
        edges=(
            Edge("CA1", EdgeKind.CONTROL_ACTION, "A", "B", "act"),
            Edge("CA2", EdgeKind.CONTROL_ACTION, "B", "A", "act"),
        ),
        ucas=(
            Uca("U1", "A", "CA1", GuideType.PROVIDED, "functional", "c", ("H1",)),
            Uca("U1", "B", "CA2", GuideType.PROVIDED, "functional", "c", ("H2",)),
        ),
    )
    report = trace_node(model, "A")
    assert (report.actions, report.ucas) == (("CA1",), ("U1",))
    assert (report.hazards, report.losses) == (("H1",), ("L1",))
    (entry,) = [e for e in impact(diff(Model(), model), model).re_review if e.subject.id == "A"]
    assert (entry.hazards, entry.losses) == (report.hazards, report.losses)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def test_metrics_c1_counts(c1):
    m = metrics(c1)
    assert m.counts["losses"] == 4
    assert m.counts["boundaries"] == 3
    assert m.counts["ucas"] == 5


def test_metrics_empty_model_is_vacuously_complete():
    m = metrics(Model())
    assert all(count == 0 for count in m.counts.values())
    assert m.coverage_ratio == 1.0
    assert m.losses_with_hazard_ratio == 1.0
    assert m.hazards_with_uca_ratio == 1.0
    assert m.ucas_with_scenario_ratio == 1.0
    assert m.scenarios_with_requirement_ratio == 1.0


def test_metrics_all_gaps_ratio_zero():
    assert metrics(model_of(FIVE_ACTIONS)).coverage_ratio == 0.0
