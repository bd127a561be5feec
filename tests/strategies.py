"""Shared hypothesis strategies: coherent random models, messy documents,
reference-breaking mutations, and diff-ready model pairs."""

from __future__ import annotations

import dataclasses
import random
import string

from hypothesis import strategies as st

from phasekit.model import (
    Assessment,
    BoundaryStage,
    Edge,
    EdgeKind,
    GuideType,
    Hazard,
    Loss,
    LossCategory,
    LossScenario,
    Model,
    Node,
    NodeKind,
    SafetyRequirement,
    ScenarioClass,
    SystemBoundary,
    Uca,
    UcaCategory,
)

# Free text: printable latin plus the characters that exercise quoting.
_TEXT_ALPHABET = st.characters(
    min_codepoint=32, max_codepoint=0x24F, blacklist_characters="\r\n"
)
texts = st.text(alphabet=_TEXT_ALPHABET, max_size=24)


def _ids(prefix: str, count: int, rnd: random.Random) -> list[str]:
    out = []
    for index in range(count):
        # No leading digit, or index 2 with suffix "0" would collide with
        # index 20.
        suffix = "".join(
            rnd.choice(string.ascii_lowercase + "_-0") for _ in range(rnd.randint(0, 3))
        ).lstrip("0")
        out.append(f"{prefix}{index}{suffix}")
    return out


def _some(rnd: random.Random, pool: list[str], at_least_one: bool = False) -> tuple[str, ...]:
    if not pool:
        return ()
    minimum = 1 if at_least_one else 0
    count = rnd.randint(minimum, min(len(pool), 3))
    return tuple(rnd.sample(pool, count))


@st.composite
def valid_models(
    draw,
    max_per_class: int = 4,
    n_control_actions: int | None = None,
    unique_assessment_cells: bool = True,
) -> Model:
    """A structurally valid model: every reference resolves, uca sources
    match their action edges, assessment cells are unique unless disabled."""
    rnd = random.Random(draw(st.integers(0, 2**32)))
    name = draw(st.one_of(st.just(""), texts))

    loss_ids = _ids("L", rnd.randint(0, max_per_class), rnd)
    min_nodes = 1 if n_control_actions else 0
    node_ids = _ids("N", rnd.randint(min_nodes, max_per_class + 2), rnd)
    boundary_ids = _ids("SB", rnd.randint(0, max_per_class), rnd)

    losses = tuple(
        Loss(lid, draw(texts), rnd.choice(list(LossCategory))) for lid in loss_ids
    )
    nodes = tuple(
        Node(
            nid,
            draw(texts),
            rnd.choice(list(NodeKind)),
            draw(st.one_of(st.none(), texts)),
            draw(st.one_of(st.none(), texts)),
        )
        for nid in node_ids
    )
    boundaries = tuple(
        SystemBoundary(
            bid,
            draw(texts),
            rnd.choice([None, *BoundaryStage]),
            _some(rnd, node_ids),
        )
        for bid in boundary_ids
    )

    edges: list[Edge] = []
    if node_ids:
        if n_control_actions is None:
            edge_count = rnd.randint(0, max_per_class + 2)
            kinds = [rnd.choice(list(EdgeKind)) for _ in range(edge_count)]
        else:
            kinds = [EdgeKind.CONTROL_ACTION] * n_control_actions + [
                rnd.choice(list(EdgeKind)) for _ in range(rnd.randint(0, 3))
            ]
        for index, kind in enumerate(kinds):
            edges.append(
                Edge(
                    f"E{index}",
                    kind,
                    rnd.choice(node_ids),
                    rnd.choice(node_ids),
                    draw(texts),
                )
            )
    edge_ids = [e.id for e in edges]
    control_edges = [e for e in edges if e.kind is EdgeKind.CONTROL_ACTION]

    hazards: tuple[Hazard, ...] = ()
    if loss_ids and boundary_ids:
        hazards = tuple(
            Hazard(
                hid,
                draw(texts),
                rnd.choice(boundary_ids),
                _some(rnd, loss_ids, at_least_one=True),
            )
            for hid in _ids("H", rnd.randint(0, max_per_class), rnd)
        )
    hazard_ids = [h.id for h in hazards]

    ucas: tuple[Uca, ...] = ()
    if control_edges and hazard_ids:
        ucas = tuple(
            Uca(
                uid,
                (action := rnd.choice(control_edges)).source,
                action.id,
                rnd.choice(list(GuideType)),
                rnd.choice(list(UcaCategory)),
                draw(texts),
                _some(rnd, hazard_ids, at_least_one=True),
            )
            for uid in _ids("U", rnd.randint(0, max_per_class), rnd)
        )
    uca_ids = [u.id for u in ucas]

    scenarios: tuple[LossScenario, ...] = ()
    if uca_ids:
        scenarios = tuple(
            LossScenario(
                sid,
                rnd.choice(uca_ids),
                rnd.choice(list(ScenarioClass)),
                draw(texts),
                _some(rnd, node_ids + edge_ids),
            )
            for sid in _ids("S", rnd.randint(0, max_per_class), rnd)
        )
    scenario_ids = [s.id for s in scenarios]

    requirements: tuple[SafetyRequirement, ...] = ()
    if scenario_ids:
        requirements = tuple(
            SafetyRequirement(rid, _some(rnd, scenario_ids, at_least_one=True), draw(texts))
            for rid in _ids("R", rnd.randint(0, max_per_class), rnd)
        )

    assessments: list[Assessment] = []
    if control_edges:
        cells = [(e.id, g) for e in control_edges for g in GuideType]
        rnd.shuffle(cells)
        for action_id, guide in cells[: rnd.randint(0, min(len(cells), 3))]:
            assessments.append(Assessment(action_id, guide, draw(texts)))
        if not unique_assessment_cells and assessments and rnd.random() < 0.5:
            assessments.append(assessments[0])

    return Model(
        name=name,
        losses=losses,
        boundaries=boundaries,
        hazards=hazards,
        nodes=nodes,
        edges=tuple(edges),
        ucas=ucas,
        scenarios=scenarios,
        requirements=requirements,
        assessments=tuple(assessments),
    )


def tangle(model: Model, rnd: random.Random) -> Model:
    """Ids declared again with another element's contents (a node's process
    model set, empty or left out at random), edges turned into self-loops,
    and waivers on cells that ucas cover: what validate reports (V008,
    V100, C001) and the analyses must still answer for."""
    collections = {}
    for name in ("losses", "boundaries", "hazards", "nodes", "edges", "ucas",
                 "scenarios", "requirements"):
        elements = list(getattr(model, name))
        for _ in range(rnd.randint(1, 2) if elements else 0):
            victim, donor = rnd.choice(elements), rnd.choice(elements)
            repeat = dataclasses.replace(donor, id=victim.id)
            if name == "nodes":
                repeat = dataclasses.replace(repeat, process_model=rnd.choice([None, "", "pm"]))
            elements.insert(rnd.randint(0, len(elements)), repeat)
        collections[name] = tuple(elements)
    collections["edges"] = tuple(
        dataclasses.replace(e, target=e.source) if rnd.random() < 0.2 else e
        for e in collections["edges"]
    )
    waivers = [
        Assessment(u.action, u.guide_type, "waived and covered")
        for u in model.ucas
        if rnd.random() < 0.3
    ]
    return dataclasses.replace(model, assessments=(*model.assessments, *waivers), **collections)


@st.composite
def tangled_models(draw) -> Model:
    """A valid model, tangled (see :func:`tangle`)."""
    model = draw(valid_models(max_per_class=4))
    return tangle(model, random.Random(draw(st.integers(0, 2**32))))


# ---------------------------------------------------------------------------
# Messy document rendering (round-trip input)
# ---------------------------------------------------------------------------


def _q(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _statement_parts(model: Model) -> list[list[str]]:
    """Each statement as [keyword+id tokens..., shuffleable items...]."""
    statements: list[list[str]] = []
    if model.name:
        statements.append(["model", _q(model.name)])
    for l in model.losses:
        statements.append(
            ["loss", l.id, _q(l.description), f"category={l.category.value}"]
        )
    for b in model.boundaries:
        items = ["boundary", b.id, _q(b.name)]
        if b.stage is not None:
            items.append(f"stage={b.stage.value}")
        if b.includes:
            items.append("includes=[" + ",".join(b.includes) + "]")
        statements.append(items)
    for h in model.hazards:
        statements.append(
            [
                "hazard",
                h.id,
                _q(h.description),
                f"boundary={h.boundary}",
                "leads_to=[" + ",".join(h.leads_to) + "]",
            ]
        )
    for n in model.nodes:
        items = ["node", n.id, _q(n.name), f"kind={n.kind.value}"]
        if n.process_model is not None:
            items.append(f"process_model={_q(n.process_model)}")
        if n.control_algorithm is not None:
            items.append(f"control_algorithm={_q(n.control_algorithm)}")
        statements.append(items)
    for e in model.edges:
        keyword = {
            EdgeKind.CONTROL_ACTION: "action",
            EdgeKind.FEEDBACK: "feedback",
            EdgeKind.IO_LINK: "iolink",
        }[e.kind]
        statements.append(
            [keyword, e.id, f"from={e.source}", f"to={e.target}", _q(e.label)]
        )
    for u in model.ucas:
        statements.append(
            [
                "uca",
                u.id,
                f"action={u.action}",
                f"type={u.guide_type.value}",
                f"category={u.category.value}",
                f"context={_q(u.context)}",
                "hazards=[" + ",".join(u.hazards) + "]",
            ]
        )
    for s in model.scenarios:
        items = [
            "scenario",
            s.id,
            f"uca={s.uca}",
            f"class={s.scenario_class.value}",
            _q(s.description),
        ]
        if s.elements:
            items.append("elements=[" + ",".join(s.elements) + "]")
        statements.append(items)
    for r in model.requirements:
        statements.append(
            ["requirement", r.id, "scenarios=[" + ",".join(r.scenarios) + "]", _q(r.text)]
        )
    for a in model.assessments:
        statements.append(
            [
                "assess",
                f"action={a.action}",
                f"type={a.guide_type.value}",
                f"verdict={a.verdict}",
                f"rationale={_q(a.rationale)}",
            ]
        )
    return statements


def messy_render(model: Model, rnd: random.Random) -> str:
    """Render with shuffled statement order, shuffled attributes, random
    spacing, comments, blank lines, and line continuations."""
    statements = _statement_parts(model)
    rnd.shuffle(statements)
    lines: list[str] = []
    for items in statements:
        head = items[:1] if items[0] in ("model", "assess") else items[:2]
        tail = items[len(head):]
        rnd.shuffle(tail)
        pieces = head + tail
        text = ""
        for index, piece in enumerate(pieces):
            if index:
                if rnd.random() < 0.1:
                    text += " \\\n" + " " * rnd.randint(0, 4)
                else:
                    text += " " * rnd.randint(1, 3)
            text += piece
        if rnd.random() < 0.2:
            text += " # " + rnd.choice(["note", "todo", "x [y] \"z\""])
        lines.append(text)
        if rnd.random() < 0.2:
            lines.append("")
        if rnd.random() < 0.1:
            lines.append("# standalone comment")
    doc = "\n".join(lines)
    if rnd.random() < 0.8:
        doc += "\n"
    return doc


@st.composite
def documents(draw) -> str:
    """Parseable documents with arbitrary formatting; references may dangle
    (that is a validation concern, not a parse concern)."""
    model = draw(valid_models(max_per_class=3))
    rnd = random.Random(draw(st.integers(0, 2**32)))
    if rnd.random() < 0.3 and model.hazards:
        # Redirect one reference to an undeclared id: still parse-valid.
        hazards = list(model.hazards)
        index = rnd.randrange(len(hazards))
        hazards[index] = dataclasses.replace(hazards[index], boundary="Zmissing")
        model = dataclasses.replace(model, hazards=tuple(hazards))
    return messy_render(model, rnd)


# ---------------------------------------------------------------------------
# Reference breakage (oracle-equivalence input)
# ---------------------------------------------------------------------------


@st.composite
def breakable_models(draw) -> Model:
    """A valid model with a random subset of breakages applied, then pushed
    through serialize/parse so diagnostics get real spans.

    Covers dangling references, ucas on non-control edges, duplicate
    assessment cells, and self loops in text form, plus a post-parse source
    mismatch (not expressible in text, where sources are derived).
    """
    from phasekit.dsl import parse, serialize

    model = draw(valid_models(max_per_class=3))
    rnd = random.Random(draw(st.integers(0, 2**32)))

    def maybe(p: float) -> bool:
        return rnd.random() < p

    boundaries = list(model.boundaries)
    for i, b in enumerate(boundaries):
        if b.includes and maybe(0.2):
            includes = list(b.includes)
            includes[rnd.randrange(len(includes))] = "ZZnode"
            boundaries[i] = dataclasses.replace(b, includes=tuple(includes))
    hazards = list(model.hazards)
    for i, h in enumerate(hazards):
        if maybe(0.15):
            hazards[i] = dataclasses.replace(h, boundary="ZZboundary")
        if maybe(0.15):
            leads = list(hazards[i].leads_to)
            leads[rnd.randrange(len(leads))] = "ZZloss"
            hazards[i] = dataclasses.replace(hazards[i], leads_to=tuple(leads))
    edges = list(model.edges)
    for i, e in enumerate(edges):
        if maybe(0.1):
            edges[i] = dataclasses.replace(e, source="ZZsrc")
        elif maybe(0.1):
            edges[i] = dataclasses.replace(e, target=edges[i].source)  # self loop
    ucas = list(model.ucas)
    feedback_edges = [e for e in edges if e.kind is not EdgeKind.CONTROL_ACTION]
    for i, u in enumerate(ucas):
        roll = rnd.random()
        if roll < 0.15:
            ucas[i] = dataclasses.replace(u, action="ZZaction")
        elif roll < 0.35 and feedback_edges:
            ucas[i] = dataclasses.replace(u, action=rnd.choice(feedback_edges).id)
        if maybe(0.15):
            hz = list(ucas[i].hazards)
            hz[rnd.randrange(len(hz))] = "ZZhazard"
            ucas[i] = dataclasses.replace(ucas[i], hazards=tuple(hz))
    scenarios = list(model.scenarios)
    for i, s in enumerate(scenarios):
        if maybe(0.15):
            scenarios[i] = dataclasses.replace(s, uca="ZZuca")
        if s.elements and maybe(0.15):
            elements = list(scenarios[i].elements)
            elements[rnd.randrange(len(elements))] = "ZZelement"
            scenarios[i] = dataclasses.replace(scenarios[i], elements=tuple(elements))
    requirements = list(model.requirements)
    for i, r in enumerate(requirements):
        if maybe(0.15):
            sc = list(r.scenarios)
            sc[rnd.randrange(len(sc))] = "ZZscenario"
            requirements[i] = dataclasses.replace(r, scenarios=tuple(sc))
    assessments = list(model.assessments)
    if assessments and maybe(0.2):
        assessments.append(assessments[0])  # duplicate cell
    if assessments and maybe(0.15):
        assessments[0] = dataclasses.replace(assessments[0], action="ZZassess")

    broken = dataclasses.replace(
        model,
        boundaries=tuple(boundaries),
        hazards=tuple(hazards),
        edges=tuple(edges),
        ucas=tuple(ucas),
        scenarios=tuple(scenarios),
        requirements=tuple(requirements),
        assessments=tuple(assessments),
    )
    # Re-derive uca sources the way the parser would, then round-trip so
    # every element gets a span.
    edge_by_id = {e.id: e for e in broken.edges}
    broken = dataclasses.replace(
        broken,
        ucas=tuple(
            dataclasses.replace(
                u, source=edge_by_id[u.action].source if u.action in edge_by_id else ""
            )
            for u in broken.ucas
        ),
    )
    result = parse(serialize(broken), "<generated>")
    assert result.model is not None, [d.format() for d in result.diagnostics]
    parsed = result.model

    # Source mismatch is only reachable through the API: the parser always
    # derives sources. Mutate after the round-trip so spans are preserved.
    if parsed.ucas and maybe(0.4):
        mutated = list(parsed.ucas)
        index = rnd.randrange(len(mutated))
        others = [n.id for n in parsed.nodes if n.id != mutated[index].source]
        wrong = rnd.choice(others + ["ZZsource"])
        mutated[index] = dataclasses.replace(mutated[index], source=wrong)
        parsed = dataclasses.replace(parsed, ucas=tuple(mutated))
    return parsed


# ---------------------------------------------------------------------------
# Model pairs for diff laws
# ---------------------------------------------------------------------------


_TEXT_FIELDS = {
    "loss": ("description",),
    "boundary": ("name",),
    "hazard": ("description",),
    "node": ("name", "process_model", "control_algorithm"),
    "edge": ("label",),
    "uca": ("context",),
    "scenario": ("description",),
    "requirement": ("text",),
    "assessment": ("rationale",),
}


def _mutate_core(model: Model, rnd: random.Random, fresh_text: str) -> Model:
    """Field-level tweaks that keep the model valid and ids stable."""
    out = model

    def pick(seq):
        return rnd.randrange(len(seq))

    if out.losses and rnd.random() < 0.5:
        losses = list(out.losses)
        i = pick(losses)
        losses[i] = dataclasses.replace(
            losses[i], description=fresh_text, category=rnd.choice(list(LossCategory))
        )
        out = dataclasses.replace(out, losses=tuple(losses))
    if out.nodes and rnd.random() < 0.5:
        nodes = list(out.nodes)
        i = pick(nodes)
        nodes[i] = dataclasses.replace(
            nodes[i], process_model=fresh_text, kind=rnd.choice(list(NodeKind))
        )
        out = dataclasses.replace(out, nodes=tuple(nodes))
    if out.edges and rnd.random() < 0.5:
        edges = list(out.edges)
        i = pick(edges)
        edges[i] = dataclasses.replace(edges[i], label=fresh_text)
        out = dataclasses.replace(out, edges=tuple(edges))
    if out.hazards and out.losses and rnd.random() < 0.5:
        hazards = list(out.hazards)
        i = pick(hazards)
        loss_ids = [l.id for l in out.losses]
        hazards[i] = dataclasses.replace(
            hazards[i], leads_to=_some(rnd, loss_ids, at_least_one=True)
        )
        out = dataclasses.replace(out, hazards=tuple(hazards))
    if out.ucas and rnd.random() < 0.5:
        ucas = list(out.ucas)
        i = pick(ucas)
        ucas[i] = dataclasses.replace(
            ucas[i], context=fresh_text, guide_type=rnd.choice(list(GuideType))
        )
        out = dataclasses.replace(out, ucas=tuple(ucas))
    if out.scenarios and rnd.random() < 0.5:
        scenarios = list(out.scenarios)
        i = pick(scenarios)
        scenarios[i] = dataclasses.replace(scenarios[i], description=fresh_text)
        out = dataclasses.replace(out, scenarios=tuple(scenarios))
    if out.assessments and rnd.random() < 0.5:
        assessments = list(out.assessments)
        i = pick(assessments)
        assessments[i] = dataclasses.replace(assessments[i], rationale=fresh_text)
        out = dataclasses.replace(out, assessments=tuple(assessments))
    return out


def _extras(model: Model, suffix: str, rnd: random.Random, text: str) -> Model:
    """Append new elements that only reference what is already declared."""
    out = model
    node_ids = [n.id for n in out.nodes]
    if rnd.random() < 0.6:
        out = dataclasses.replace(
            out,
            losses=(*out.losses, Loss(f"L{suffix}", text, rnd.choice(list(LossCategory)))),
        )
    if rnd.random() < 0.6:
        out = dataclasses.replace(
            out,
            nodes=(*out.nodes, Node(f"N{suffix}", text, rnd.choice(list(NodeKind)))),
        )
        node_ids.append(f"N{suffix}")
    if node_ids and rnd.random() < 0.6:
        out = dataclasses.replace(
            out,
            edges=(
                *out.edges,
                Edge(
                    f"E{suffix}",
                    rnd.choice(list(EdgeKind)),
                    rnd.choice(node_ids),
                    rnd.choice(node_ids),
                    text,
                ),
            ),
        )
    if out.boundaries and out.losses and rnd.random() < 0.4:
        out = dataclasses.replace(
            out,
            hazards=(
                *out.hazards,
                Hazard(
                    f"H{suffix}",
                    text,
                    rnd.choice([b.id for b in out.boundaries]),
                    (rnd.choice([l.id for l in out.losses]),),
                ),
            ),
        )
    control = [e for e in out.edges if e.kind is EdgeKind.CONTROL_ACTION]
    if control and out.hazards and rnd.random() < 0.4:
        action = rnd.choice(control)
        out = dataclasses.replace(
            out,
            ucas=(
                *out.ucas,
                Uca(
                    f"U{suffix}",
                    action.source,
                    action.id,
                    rnd.choice(list(GuideType)),
                    rnd.choice(list(UcaCategory)),
                    text,
                    (rnd.choice([h.id for h in out.hazards]),),
                ),
            ),
        )
    if out.ucas and rnd.random() < 0.4:
        out = dataclasses.replace(
            out,
            scenarios=(
                *out.scenarios,
                LossScenario(
                    f"S{suffix}",
                    rnd.choice([u.id for u in out.ucas]),
                    rnd.choice(list(ScenarioClass)),
                    text,
                ),
            ),
        )
    if out.scenarios and rnd.random() < 0.4:
        out = dataclasses.replace(
            out,
            requirements=(
                *out.requirements,
                SafetyRequirement(
                    f"R{suffix}", (rnd.choice([s.id for s in out.scenarios]),), text
                ),
            ),
        )
    if control and rnd.random() < 0.4:
        taken = {(a.action, a.guide_type) for a in out.assessments}
        options = [
            (e.id, g) for e in control for g in GuideType if (e.id, g) not in taken
        ]
        if options:
            action_id, guide = rnd.choice(options)
            out = dataclasses.replace(
                out, assessments=(*out.assessments, Assessment(action_id, guide, text))
            )
    return out


@st.composite
def model_pairs(draw) -> tuple[Model, Model]:
    """Two individually valid versions of one model: shared core, per-side
    extras, and field tweaks on the core in the second version."""
    core = draw(valid_models(max_per_class=3))
    rnd = random.Random(draw(st.integers(0, 2**32)))
    text_a = draw(texts)
    text_b = draw(texts)
    a = _extras(core, "xa", rnd, text_a)
    b = _extras(_mutate_core(core, rnd, text_b), "xb", rnd, text_b)
    return a, b


# ---------------------------------------------------------------------------
# Control graphs for hierarchy properties
# ---------------------------------------------------------------------------


@st.composite
def graph_models(draw) -> Model:
    """Nodes plus random control/feedback edges and one boundary spanning
    every node (id ``B``)."""
    rnd = random.Random(draw(st.integers(0, 2**32)))
    node_count = rnd.randint(1, 10)
    node_ids = [f"N{i}" for i in range(node_count)]
    nodes = tuple(Node(nid, nid, NodeKind.HUMAN) for nid in node_ids)
    edge_count = rnd.randint(0, 2 * node_count)
    edges = []
    for index in range(edge_count):
        kind = rnd.choice(
            [EdgeKind.CONTROL_ACTION, EdgeKind.CONTROL_ACTION, EdgeKind.FEEDBACK, EdgeKind.IO_LINK]
        )
        edges.append(
            Edge(f"E{index}", kind, rnd.choice(node_ids), rnd.choice(node_ids), "")
        )
    boundary = SystemBoundary("B", "all", None, tuple(node_ids))
    return Model(nodes=nodes, edges=tuple(edges), boundaries=(boundary,))


@st.composite
def scoped_graph_models(draw) -> Model:
    """Control graphs built to stress hierarchy ranking: nodes declared in a
    shuffled order, parallel control edges, and edges whose endpoints lie
    outside the boundary ``B`` (a node it leaves out) or outside the model
    (an id no node declares). Node ids stay unique."""
    rnd = random.Random(draw(st.integers(0, 2**32)))
    node_count = rnd.randint(1, 10)
    node_ids = [f"N{i}" for i in range(node_count)]
    rnd.shuffle(node_ids)
    nodes = tuple(Node(nid, nid, NodeKind.HUMAN) for nid in node_ids)
    endpoints = node_ids + ["Ghost"] * rnd.randint(0, 1)
    pairs = []
    for _ in range(rnd.randint(0, 3 * node_count)):
        if pairs and rnd.random() < 0.2:
            pairs.append(rnd.choice(pairs))  # a parallel edge
        else:
            pairs.append((rnd.choice(endpoints), rnd.choice(endpoints)))
    kinds = [EdgeKind.CONTROL_ACTION] * 4 + [EdgeKind.FEEDBACK, EdgeKind.IO_LINK]
    edges = tuple(
        Edge(f"E{index}", rnd.choice(kinds), source, target, "")
        for index, (source, target) in enumerate(pairs)
    )
    included = tuple(nid for nid in node_ids if rnd.random() < 0.8)
    boundary = SystemBoundary("B", "scope", None, included)
    return Model(nodes=nodes, edges=edges, boundaries=(boundary,))
