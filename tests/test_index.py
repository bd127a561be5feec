"""The model index against the naive scans it replaced.

Each oracle below rescans whole collections per query, as lookup, the chain
traversal, trace_loss, _referencers and impact did before the index; the
indexed code must give the same answers, in the same order, on the bundled
fixtures and on a derandomized model of more than a thousand elements.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import pickle
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import assume, given, settings

from phasekit import (
    Ref,
    analyze,
    diff,
    impact,
    lookup,
    parse,
    report_json,
    trace_loss,
    trace_node,
    validate,
)
from phasekit.analysis import (
    AccountabilityReport,
    TraceTree,
    _CHAIN,
    _chain_children,
)
from phasekit.diff import DanglingReport, ImpactEntry, ImpactReport, _referencers
from phasekit.model import (
    CLASS_FIELDS,
    ELEMENT_CLASSES,
    REFERENCES,
    Assessment,
    Edge,
    EdgeKind,
    GuideType,
    Hazard,
    Loss,
    LossCategory,
    Model,
    Node,
    NodeKind,
)

from .conftest import load_fixture
from .strategies import model_pairs, valid_models
from .validate_oracle import referenced_ids

# ---------------------------------------------------------------------------
# Oracles: one linear scan per query
# ---------------------------------------------------------------------------


def element_id(element_class, element):
    """An element's id; an assessment's is its cell key, written out here."""
    if element_class == "assessment":
        return f"{element.action}/{element.guide_type.value}"
    return element.id


#: Each class of the accountability chain and the class that refers to it.
_REFERRED_BY = {cls: link[0] for cls, link in _CHAIN.items()}


def oracle_lookup(model, element_class, element_id_text):
    if element_class not in CLASS_FIELDS:
        return None
    for element in model.elements_of(element_class):
        if element_id(element_class, element) == element_id_text:
            return element
    return None


def oracle_chain_children(model):
    children = {}
    for target, source in _REFERRED_BY.items():
        by_target = children[target] = {}
        for slot, targets in REFERENCES[source]:
            if target in targets:
                for element in model.elements_of(source):
                    for target_id in dict.fromkeys(referenced_ids(element, slot)):
                        by_target.setdefault(target_id, []).append(element.id)
    return children


def oracle_trace_loss(model, loss_id):
    def tree(cls, element_id_text):
        below = _REFERRED_BY.get(cls)
        if below is None:
            return TraceTree(cls, element_id_text)
        referrers = []
        for slot, targets in REFERENCES[below]:
            if cls in targets:
                referrers += [
                    e.id
                    for e in model.elements_of(below)
                    if element_id_text in referenced_ids(e, slot)
                ]
        return TraceTree(cls, element_id_text, tuple(tree(below, r) for r in referrers))

    return tree("loss", loss_id)


def _first_declared(elements, ids):
    """The first declaration of each of ``ids`` among ``elements``, in
    declaration order."""
    first = {}
    for element in elements:
        if element.id in ids:
            first.setdefault(element.id, element)
    return list(first.values())


def oracle_trace_node(model, node_id):
    actions = [
        e.id for e in model.edges
        if e.kind is EdgeKind.CONTROL_ACTION and e.source == node_id
    ]
    ucas = [u for u in model.ucas if u.action in actions]
    hazards = _first_declared(model.hazards, {hid for u in ucas for hid in u.hazards})
    losses = _first_declared(model.losses, {lid for h in hazards for lid in h.leads_to})
    scenarios = [s.id for s in model.scenarios if node_id in s.elements]
    return AccountabilityReport(
        node_id, tuple(actions), tuple(u.id for u in ucas), tuple(h.id for h in hazards),
        tuple(l.id for l in losses), tuple(scenarios),
    )


def oracle_referencers(model, target):
    hits = []
    for src_cls in ELEMENT_CLASSES:
        for slot, targets in REFERENCES[src_cls]:
            if target.cls not in targets:
                continue
            for element in model.elements_of(src_cls):
                if target.id in referenced_ids(element, slot):
                    hits.append(Ref(src_cls, element_id(src_cls, element)))
    return tuple(dict.fromkeys(hits))


def oracle_impact(changes, new):
    subjects = [
        ref
        for ref in (*changes.added, *(m.ref for m in changes.modified))
        if ref.cls in ("node", "edge")
    ]
    subjects.sort(key=lambda r: (ELEMENT_CLASSES.index(r.cls), r.id))
    entries = []
    for subject in subjects:
        field = "action" if subject.cls == "edge" else "source"
        ucas = [u for u in new.ucas if getattr(u, field) == subject.id]
        # Hazards and losses as oracle_trace_node lists them.
        hazards = _first_declared(new.hazards, {hid for u in ucas for hid in u.hazards})
        losses = _first_declared(new.losses, {lid for h in hazards for lid in h.leads_to})
        entries.append(
            ImpactEntry(
                subject,
                tuple(u.id for u in ucas),
                tuple(s.id for s in new.scenarios if subject.id in s.elements),
                tuple(h.id for h in hazards),
                tuple(l.id for l in losses),
            )
        )
    dangling = tuple(
        DanglingReport(r, oracle_referencers(new, r)) for r in changes.removed
    )
    return ImpactReport(tuple(entries), dangling)


# ---------------------------------------------------------------------------
# Models under test
# ---------------------------------------------------------------------------


def _large_model() -> Model:
    """A derandomized valid model with at least a thousand elements."""
    found = []

    @settings(max_examples=1, derandomize=True, deadline=None, database=None)
    @given(valid_models(max_per_class=300))
    def pick(model):
        assume(sum(len(model.elements_of(c)) for c in CLASS_FIELDS) >= 1000)
        found.append(model)

    pick()
    return found[-1]


@pytest.fixture(scope="module")
def large() -> Model:
    return _large_model()


def _revision(model: Model) -> Model:
    """Drop every seventh element of each class, edit every fifth node and
    edge, and add a node with an action from it. The result keeps dangling
    references to what was dropped."""
    kept = {
        cls: tuple(e for i, e in enumerate(model.elements_of(cls)) if i % 7 != 3)
        for cls in CLASS_FIELDS
    }
    nodes = tuple(
        dataclasses.replace(n, process_model="revised") if i % 5 == 1 else n
        for i, n in enumerate(kept["node"])
    )
    edges = tuple(
        dataclasses.replace(e, label="revised") if i % 5 == 2 else e
        for i, e in enumerate(kept["edge"])
    )
    added = Node("Nnew", "new", NodeKind.HUMAN)
    action = Edge("Enew", EdgeKind.CONTROL_ACTION, added.id, nodes[0].id, "new")
    collections = {CLASS_FIELDS[cls]: kept[cls] for cls in CLASS_FIELDS}
    collections.update(nodes=(*nodes, added), edges=(*edges, action))
    return dataclasses.replace(model, **collections)


def _repeated_ids_pair() -> tuple[Model, Model]:
    """A model built in code that declares hazard H1 and uca U1 twice (V008),
    and a revision of it that edits both actions and node A and drops L2."""
    text = (
        'loss L1 "a" category=safety-critical\nloss L2 "b" category=safety-critical\n'
        'loss L3 "c" category=safety-critical\nboundary SB "s" includes=[A,B]\n'
        'hazard H1 "h1" boundary=SB leads_to=[L1]\nhazard H2 "h2" boundary=SB leads_to=[L2]\n'
        'node A "a" kind=human\nnode B "b" kind=human\n'
        'action CA1 from=A to=B "one"\naction CA2 from=B to=A "two"\n'
        'uca U1 action=CA1 type=provided category=functional context="c" hazards=[H1]\n'
        'uca U2 action=CA2 type=provided category=functional context="c" hazards=[H2,H1]\n'
        'scenario S1 uca=U1 class=technical "d" elements=[A,CA1]\n'
    )
    base = parse(text).model
    again = Hazard("H1", "again", "SB", ("L3", "L2"))
    uca = dataclasses.replace(base.ucas[0], source="B", action="CA2", hazards=("H1", "H2"))
    old = dataclasses.replace(base, hazards=(*base.hazards, again), ucas=(*base.ucas, uca))
    edits = (('"one"', '"1"'), ('"two"', '"2"'), ('"a" kind', '"a2" kind'),
             ('loss L2 "b" category=safety-critical\n', ""))
    for before, after in edits:
        text = text.replace(before, after)
    revised = parse(text).model
    new = dataclasses.replace(revised, hazards=(*revised.hazards, again),
                              ucas=(*revised.ucas, uca))
    return old, new


def _models(large):
    return [load_fixture("c1"), load_fixture("c2"), load_fixture("c3"), large]


# ---------------------------------------------------------------------------
# Indexed code against the oracles
# ---------------------------------------------------------------------------


def test_large_model_is_large(large):
    assert sum(len(large.elements_of(c)) for c in CLASS_FIELDS) >= 1000
    assert large.losses and large.ucas and large.scenarios and large.requirements


def test_lookup_matches_scan(large):
    for model in _models(large):
        for cls in ELEMENT_CLASSES:
            for element in model.elements_of(cls):
                key = element_id(cls, element)
                assert lookup(model, cls, key) is oracle_lookup(model, cls, key)
            for missing in ("nope", "L1", "E0/provided"):
                assert lookup(model, cls, missing) is oracle_lookup(model, cls, missing)
        assert lookup(model, "widget", "L1") is None


def test_lookup_first_declaration_wins():
    first = Loss("L1", "first", LossCategory.SAFETY_CRITICAL)
    second = Loss("L1", "second", LossCategory.SOCIOTECHNICAL)
    waiver = Assessment("CA1", GuideType.PROVIDED, "first")
    model = Model(
        losses=(first, second),
        assessments=(waiver, Assessment("CA1", GuideType.PROVIDED, "second")),
    )
    assert lookup(model, "loss", "L1") is first
    assert lookup(model, "assessment", "CA1/provided") is waiver
    for cls, key in (("loss", "L1"), ("assessment", "CA1/provided")):
        assert lookup(model, cls, key) is oracle_lookup(model, cls, key)
    assert lookup(model, "unknown-class", "L1") is None


def test_chain_children_match_scan(large):
    for model in _models(large):
        indexed = {
            cls: {target: [e.id for e in refs] for target, refs in by_target.items()}
            for cls, by_target in _chain_children(model).items()
        }
        assert indexed == oracle_chain_children(model)


def test_trace_loss_matches_scan_for_every_loss(large):
    for model in _models(large):
        for loss in model.losses:
            assert trace_loss(model, loss.id) == oracle_trace_loss(model, loss.id)


def test_trace_node_matches_scan_for_every_node(large):
    for model in (*_models(large), *_repeated_ids_pair()):
        for node in model.nodes:
            assert trace_node(model, node.id) == oracle_trace_node(model, node.id)


def test_referencers_match_scan(large):
    for model in (*_models(large), _revision(large)):
        for cls in ELEMENT_CLASSES:
            for element in model.elements_of(cls):
                ref = Ref(cls, element_id(cls, element))
                assert _referencers(model, ref) == oracle_referencers(model, ref)


def test_impact_matches_scan(large):
    fixtures = [load_fixture(name) for name in ("c1", "c2", "c3")]
    pairs = [(old, new) for old in fixtures for new in fixtures]
    pairs += [(large, _revision(large)), _repeated_ids_pair()]
    for old, new in pairs:
        changes = diff(old, new)
        assert impact(changes, new) == oracle_impact(changes, new)
    changes = diff(large, _revision(large))
    assert changes.removed and changes.added and changes.modified


@settings(max_examples=200, deadline=None)
@given(model_pairs())
def test_impact_matches_scan_on_model_pairs(pair):
    old, new = pair
    changes = diff(old, new)
    assert impact(changes, new) == oracle_impact(changes, new)


def test_repeated_id_in_a_list_counts_the_referrer_once():
    text = (
        'loss L1 "a" category=safety-critical\n'
        'boundary SB "s" includes=[A,A,B]\n'
        'hazard H1 "h1" boundary=SB leads_to=[L1,L1]\n'
        'node A "a" kind=human\nnode B "b" kind=human\n'
        'action CA1 from=A to=B "act"\n'
        'uca U1 action=CA1 type=provided category=functional context="c" hazards=[H1,H1]\n'
        'scenario S1 uca=U1 class=technical "d" elements=[A,CA1,A]\n'
        'requirement R1 scenarios=[S1,S1] "t"\n'
    )
    old = parse(text).model
    new = parse(text.replace('"act"', '"acts"').replace('"a" kind', '"a2" kind')).model
    assert trace_loss(new, "L1") == oracle_trace_loss(new, "L1")
    assert trace_loss(new, "L1").children[0].element_id == "H1"
    assert len(trace_loss(new, "L1").children) == 1
    for ref in (Ref("node", "A"), Ref("edge", "CA1"), Ref("hazard", "H1")):
        assert _referencers(new, ref) == oracle_referencers(new, ref)
    changes = diff(old, new)
    assert impact(changes, new) == oracle_impact(changes, new)


def test_impact_resolves_a_repeated_hazard_to_its_first_declaration():
    old, new = _repeated_ids_pair()
    changes = diff(old, new)
    report = impact(changes, new)
    assert report == oracle_impact(changes, new)
    entries = {entry.subject.id: entry for entry in report.re_review}
    # The second uca U1 is on CA2. H1 means its first declaration, which
    # leads to L1 alone, not to the second's L3 and L2. H2 leads to L2, which
    # the revision removes: it is left out here and shows under dangling.
    assert entries["CA1"].ucas == ("U1",) and entries["CA1"].losses == ("L1",)
    assert entries["CA2"].ucas == ("U2", "U1")
    assert entries["CA2"].hazards == ("H1", "H2") and entries["CA2"].losses == ("L1",)
    assert entries["A"].ucas == ("U1",) and entries["A"].losses == ("L1",)
    (dangling,) = report.dangling
    assert dangling.referenced_by == (Ref("hazard", "H2"), Ref("hazard", "H1"))


def test_hazard_order_of_impact_losses():
    # The uca names H2 before H1, yet hazards and losses follow declaration order.
    text = (
        'loss L1 "a" category=safety-critical\n'
        'loss L2 "b" category=safety-critical\n'
        'boundary SB "s" includes=[A,B]\n'
        'hazard H1 "h1" boundary=SB leads_to=[L1]\n'
        'hazard H2 "h2" boundary=SB leads_to=[L2]\n'
        'node A "a" kind=human\nnode B "b" kind=human\n'
        'action CA1 from=A to=B "act"\n'
        'uca U1 action=CA1 type=provided category=functional context="c" hazards=[H2,H1]\n'
    )
    old = parse(text).model
    new = parse(text.replace('"act"', '"acts"')).model
    (entry,) = impact(diff(old, new), new).re_review
    assert entry.hazards == ("H1", "H2")
    assert entry.losses == ("L1", "L2")


# ---------------------------------------------------------------------------
# The index lives outside equality, hashing and repr
# ---------------------------------------------------------------------------


def test_built_index_leaves_equality_and_hash_alone():
    used, fresh = load_fixture("c1"), load_fixture("c1")
    for loss in used.losses:
        trace_loss(used, loss.id)
    assert "index" in vars(used) and "index" not in vars(fresh)
    assert used == fresh
    assert hash(used) == hash(fresh)
    assert repr(used) == repr(fresh)


def test_pickle_and_deepcopy_leave_a_built_index_out():
    used, fresh = load_fixture("c1"), load_fixture("c1")
    loss = used.losses[0].id
    trace_loss(used, loss)
    assert len(pickle.dumps(used)) == len(pickle.dumps(fresh))
    for copied in (pickle.loads(pickle.dumps(used)), copy.deepcopy(used)):
        assert "index" not in vars(copied)
        assert copied == used
        assert copied.source_spans == used.source_spans
        assert trace_loss(copied, loss) == trace_loss(used, loss)


def test_replace_gets_a_fresh_index():
    model = load_fixture("c1")
    loss = model.losses[0]
    assert lookup(model, "loss", loss.id) is loss
    renamed = dataclasses.replace(loss, id="Lrenamed")
    revised = dataclasses.replace(model, losses=(renamed, *model.losses[1:]))
    assert revised.index is not model.index
    assert lookup(revised, "loss", "Lrenamed") is renamed
    assert lookup(revised, "loss", loss.id) is None
    assert lookup(model, "loss", loss.id) is loss


def test_threads_sharing_a_fresh_index_see_complete_maps(large):
    """Maps are published only when complete, so threads that race to build
    them all get the full answer."""
    expected = [oracle_trace_loss(large, loss.id) for loss in large.losses]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            model = dataclasses.replace(large)  # a fresh, empty index
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [
                    pool.submit(lambda: [trace_loss(model, l.id) for l in model.losses])
                    for _ in range(4)
                ]
                results = [f.result(timeout=60) for f in futures]
            assert all(result == expected for result in results)
    finally:
        sys.setswitchinterval(interval)


# ---------------------------------------------------------------------------
# One name per assessment: its cell key, written out here
# ---------------------------------------------------------------------------


def _first_of_cell(model, assessment):
    cell = (assessment.action, assessment.guide_type)
    return next(a for a in model.assessments if (a.action, a.guide_type) == cell)


def _assert_assessments_named_by_cell(model):
    for assessment in model.assessments:
        assert assessment.id == f"{assessment.action}/{assessment.guide_type.value}"
        assert lookup(model, "assessment", assessment.id) is _first_of_cell(model, assessment)
    for edge in model.edges:
        named = {Ref("assessment", element_id("assessment", a))
                 for a in model.assessments if a.action == edge.id}
        referencers = _referencers(model, Ref("edge", edge.id))
        assert {ref for ref in referencers if ref.cls == "assessment"} == named


def test_fixture_assessments_are_named_by_their_cell():
    for name in ("c1", "c2", "c3"):
        _assert_assessments_named_by_cell(load_fixture(name))


@settings(max_examples=100, deadline=None)
@given(valid_models(unique_assessment_cells=False))
def test_assessments_are_named_by_their_cell(model):
    _assert_assessments_named_by_cell(model)


def test_diff_names_assessments_by_their_cell():
    edges = (Edge("CA1", EdgeKind.CONTROL_ACTION, "A", "B", "act"),)
    kept = Assessment("CA1", GuideType.PROVIDED, "kept")
    dropped = Assessment("CA1", GuideType.WRONG_TIMING, "dropped")
    old = Model(edges=edges, assessments=(kept, dropped))
    new = Model(edges=edges, assessments=(dataclasses.replace(kept, rationale="revised"),))
    changes = diff(old, new)
    assert changes.removed == (Ref("assessment", "CA1/wrong-timing"),)
    assert [m.ref for m in changes.modified] == [Ref("assessment", "CA1/provided")]
    assert _referencers(new, Ref("edge", "CA1")) == (Ref("assessment", "CA1/provided"),)


_CELL_THREE_TIMES = (
    'node A "a" kind=human\nnode B "b" kind=human\n'
    'action CA1 from=A to=B "act"\n'
    'assess action=CA1 type=provided verdict=not-hazardous rationale="one"\n'
    'assess action=CA1 type=not-provided verdict=not-hazardous rationale="other"\n'
    'assess action=CA1 type=provided verdict=not-hazardous rationale="two"\n'
    'loss L1 "l" category=sociotechnical\n'
    'assess type=provided action=CA1 verdict=not-hazardous rationale="three"\n'
)


def test_each_declaration_of_a_repeated_cell_keeps_its_span():
    model = parse(_CELL_THREE_TIMES, "doc.phase").model
    spans = model.source_spans
    key = "CA1/provided"
    assert [spans[Ref("assessment", k)].line for k in (key, f"{key}#2", f"{key}#3")] == [4, 6, 8]
    assert spans[Ref("assessment", "CA1/not-provided")].line == 5
    assert Ref("assessment", f"{key}#1") not in spans
    assert Ref("assessment", f"{key}#4") not in spans
    assert lookup(model, "assessment", key).rationale == "one"
    found = [(d.code, d.span.line, d.related_span.line) for d in validate(model)]
    assert found == [("V005", 6, 4), ("V005", 8, 4)]


def test_assessment_id_is_not_a_field():
    assessment = Assessment("CA1", GuideType.PROVIDED, "r")
    assert "id" not in [f.name for f in dataclasses.fields(Assessment)]
    assert "id" not in Assessment.__match_args__
    with pytest.raises(AttributeError):
        assessment.id = "CA1/not-provided"
    assert assessment.id == "CA1/provided"
    model = load_fixture("c1")
    (written,) = json.loads(report_json(model, analyze(model)))["model"]["assessments"]
    assert "id" not in written
    assert written["action"] == model.assessments[0].action
