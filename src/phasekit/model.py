"""Core data model for PHASE hazard-analysis documents.

A :class:`Model` is an immutable registry of losses, system boundaries,
hazards, control-structure nodes and edges, unsafe control actions, loss
scenarios, safety requirements, and assessments. Identifiers are namespaced
per element class, so a loss and a hazard may share the same id text without
conflict.

Models never mutate after construction; every operation in this package is a
pure function of its inputs. The element classes and :class:`Model` are
frozen records (:func:`phasekit.diagnostics.record`), which behave as frozen
dataclasses. Cross-references are plain id strings and are checked by
:func:`phasekit.analysis.validate`, not at construction time, so a partially
written document can still be parsed and explored.

The element records are the schema. Each is declared with :func:`element`,
which names its class, statement keywords and ``Model`` collection, and each
field other than its id with :func:`slot`, which gives its DSL key, value
kind, whether it is required and which class it refers to. :data:`SCHEMA`
is read off the records as they are declared, and :class:`Model`'s
collections and :data:`Element` off it. The grammar and serializer in
:mod:`phasekit.dsl`, the fields diff compares, the reference checks of
validation, the JSON export and the reference topology (:data:`REFERENCES`)
are all derived from it; the few cases that do not fit a slot are written
out where they are used.

:attr:`Model.index` is a :class:`ModelIndex`: by-id and referred-by maps,
each built on first use and then kept with the model, through which lookups,
traces and impact queries avoid rescanning whole collections and resolve a
repeated id to its first declaration.
"""

from __future__ import annotations

import re
from enum import Enum
from functools import cached_property
from itertools import repeat
from operator import attrgetter
from typing import NamedTuple, Union

from .diagnostics import MISSING, Field, Span, field, record

IDENT_CHAR = "[A-Za-z0-9_-]"  # what a DSL word is made of
IDENT = rf"[A-Za-z]{IDENT_CHAR}*+"  # the id syntax, possessive; every id reader builds on it
_IDENT_RE = re.compile(IDENT)
IDENT_LINES_RE = re.compile(rf"{IDENT}(?:\n{IDENT})*+")  # ids joined by line breaks


def is_valid_identifier(text: str) -> bool:
    """True if ``text`` is a legal element id: a letter followed by letters,
    digits, ``_`` or ``-``."""
    return bool(_IDENT_RE.fullmatch(text))


def are_identifiers(ids: list) -> bool:
    """Whether every one of ``ids`` is a str and an id, by one match of them joined
    by line breaks; an id that holds a line break adds one to their count."""
    if not all(map(isinstance, ids, repeat(str))):
        return False
    text = "\n".join(ids)
    return not ids or (text.count("\n") < len(ids) and IDENT_LINES_RE.fullmatch(text) is not None)


class LossCategory(str, Enum):
    SAFETY_CRITICAL = "safety-critical"
    PERFORMANCE_RELATED = "performance-related"
    SOCIOTECHNICAL = "sociotechnical"


class BoundaryStage(str, Enum):
    DATA_COLLECTION = "data-collection"
    MODEL_DEVELOPMENT = "model-development"
    USE_OPERATION = "use-operation"
    OTHER = "other"


class NodeKind(str, Enum):
    HUMAN = "human"
    TEAM = "team"
    ORGANIZATION = "organization"
    TECHNICAL_ARTIFACT = "technical-artifact"
    AI_MODEL = "ai-model"
    AUTOMATED_SYSTEM = "automated-system"


class EdgeKind(str, Enum):
    CONTROL_ACTION = "control-action"
    FEEDBACK = "feedback"
    IO_LINK = "io-link"


class GuideType(str, Enum):
    PROVIDED = "provided"
    NOT_PROVIDED = "not-provided"
    WRONG_TIMING = "wrong-timing"
    STOPPED_TOO_SOON_APPLIED_TOO_LONG = "stopped-too-soon-applied-too-long"


#: Canonical guide-type order used by coverage columns and exports.
GUIDE_TYPES: tuple[GuideType, ...] = (
    GuideType.PROVIDED,
    GuideType.NOT_PROVIDED,
    GuideType.WRONG_TIMING,
    GuideType.STOPPED_TOO_SOON_APPLIED_TOO_LONG,
)


class UcaCategory(str, Enum):
    FUNCTIONAL = "functional"
    DESIGN_OR_MISUSE = "design-or-misuse"
    COMMUNICATION_COORDINATION = "communication-coordination"


class ScenarioClass(str, Enum):
    ORGANIZATIONAL = "organizational"
    INTERACTION = "interaction"
    TECHNICAL = "technical"


#: The only verdict an assessment may record.
NOT_HAZARDOUS = "not-hazardous"


def enum_text(value: object) -> object:
    """The text an enum field is written as: a member's value, or the value
    itself (the assessment verdict is plain text)."""
    return getattr(value, "value", value)


# ---------------------------------------------------------------------------
# Schema
# ---------------------------------------------------------------------------

# Value kinds of a field: an identifier, a quoted string, a list of
# identifiers, or a member of an enumeration.
ID = "id"
STRING = "string"
IDLIST = "idlist"
ENUM = "enum"

#: The DSL key of a field written as the statement's quoted description.
DESCRIPTION = '"'


class Slot(NamedTuple):
    """One field of an element class, other than its ``id``.

    ``key`` is the field's DSL key, :data:`DESCRIPTION`, or ``None`` for a
    field the statement never writes (the edge keyword implies the edge
    kind; a uca's source is derived from its action).
    """

    field: str
    key: str | None
    kind: str
    members: dict[str, object] | None = None  # enum value text -> member
    required: bool = True
    target: str | None = None  # element class the ids refer to
    nonempty: str | None = None  # V004 verb when the id list must not be empty


class ElementClass(NamedTuple):
    name: str
    keywords: tuple[str, ...]
    type: type
    collection: str  # Model attribute holding the elements
    identity: tuple[str, ...]  # fields that are not slots: ("id",) or ()
    slots: tuple[Slot, ...]


def slot(key: str | None, kind, *, target: str | None = None, nonempty: str | None = None,
         required: bool | None = None, default: object = MISSING) -> Field:
    """A field of an element record, declared as its :class:`Slot`.

    ``kind`` is a value kind, or for an enum field the members it takes: an
    enum class, or a tuple of plain text values. The field is required unless
    it has a default or ``required`` says otherwise."""
    members = None
    if not isinstance(kind, str):
        members = {enum_text(member): member for member in kind}
        kind = ENUM
    required = default is MISSING if required is None else required
    return field(default=default,
                 metadata=Slot("", key, kind, members, required, target, nonempty))


_DECLARED: list[ElementClass] = []


def element(name: str, keywords: tuple[str, ...], collection: str,
            order: tuple[str, ...] | None = None):
    """Make a class a :func:`record` and declare it the element class
    ``name`` of :data:`SCHEMA`, read from statements ``keywords`` and held in
    the ``Model`` attribute ``collection``. Its :func:`slot` fields are its
    slots, in field order unless ``order`` names another; its other fields
    are its identity."""
    def declare(cls: type) -> type:
        fields = record(cls).__record_fields__
        slots = {f.name: f.metadata._replace(field=f.name) for f in fields if f.metadata}
        identity = tuple(f.name for f in fields if not f.metadata)
        slots = tuple(slots[name] for name in order or slots)
        _DECLARED.append(ElementClass(name, keywords, cls, collection, identity, slots))
        return cls
    return declare


@element("loss", ("loss",), "losses")
class Loss:
    """Something of value the stakeholders must not lose."""
    id: str
    description: str = slot(DESCRIPTION, STRING)
    category: LossCategory = slot("category", LossCategory)


@element("boundary", ("boundary",), "boundaries")
class SystemBoundary:
    """A named scope of the system, optionally at one lifecycle stage."""
    id: str
    name: str = slot(DESCRIPTION, STRING)
    stage: BoundaryStage | None = slot("stage", BoundaryStage, default=None)
    includes: tuple[str, ...] = slot("includes", IDLIST, target="node", default=())


@element("hazard", ("hazard",), "hazards")
class Hazard:
    """A system state within a boundary that leads to losses."""
    id: str
    description: str = slot(DESCRIPTION, STRING)
    boundary: str = slot("boundary", ID, target="boundary")
    leads_to: tuple[str, ...] = slot("leads_to", IDLIST, target="loss", nonempty="lead to")


@element("node", ("node",), "nodes")
class Node:
    """A participant in the control structure, human or technical."""
    id: str
    name: str = slot(DESCRIPTION, STRING)
    kind: NodeKind = slot("kind", NodeKind)
    process_model: str | None = slot("process_model", STRING, default=None)
    control_algorithm: str | None = slot("control_algorithm", STRING, default=None)


@element("edge", ("action", "feedback", "iolink"), "edges")
class Edge:
    """A control action, feedback or io link from one node to another."""
    id: str
    kind: EdgeKind = slot(None, EdgeKind)
    source: str = slot("from", ID, target="node")
    target: str = slot("to", ID, target="node")
    label: str = slot(DESCRIPTION, STRING)


@element("uca", ("uca",), "ucas")
class Uca:
    """A five-part unsafe control action.

    ``source`` always names the node that issues the referenced action; the
    parser derives it from the action edge, so it only diverges on models
    assembled programmatically (validate reports the mismatch).
    """

    id: str
    source: str = slot(None, ID, target="node")
    action: str = slot("action", ID, target="edge")
    guide_type: GuideType = slot("type", GuideType)
    category: UcaCategory = slot("category", UcaCategory)
    context: str = slot("context", STRING)
    hazards: tuple[str, ...] = slot("hazards", IDLIST, target="hazard", nonempty="link to")


@element("scenario", ("scenario",), "scenarios")
class LossScenario:
    """A causal account of how an unsafe control action comes about."""
    id: str
    uca: str = slot("uca", ID, target="uca")
    scenario_class: ScenarioClass = slot("class", ScenarioClass)
    description: str = slot(DESCRIPTION, STRING)
    # Elements name nodes or edges; see REFERENCES.
    elements: tuple[str, ...] = slot("elements", IDLIST, default=())


@element("requirement", ("requirement",), "requirements")
class SafetyRequirement:
    """A requirement that prevents or mitigates loss scenarios."""
    id: str
    scenarios: tuple[str, ...] = slot("scenarios", IDLIST, target="scenario", nonempty="cover")
    text: str = slot(DESCRIPTION, STRING)


# A statement writes the verdict before the rationale.
@element("assessment", ("assess",), "assessments",
         order=("action", "guide_type", "verdict", "rationale"))
class Assessment:
    """A deliberate "examined and not hazardous" waiver for one coverage cell.

    Assessments carry no declared id; each is named by its cell,
    (action, guide_type), which must be unique across the model.
    """

    action: str = slot("action", ID, target="edge")
    guide_type: GuideType = slot("type", GuideType)
    rationale: str = slot("rationale", STRING)
    # Written in every statement, though a record built in code may leave it out.
    verdict: str = slot("verdict", (NOT_HAZARDOUS,), default=NOT_HAZARDOUS, required=True)

    @property
    def id(self) -> str:
        """The cell key ``action/guide``, which names the assessment as an
        id names any other element; not a field of the record."""
        return f"{self.action}/{enum_text(self.guide_type)}"


class Ref(NamedTuple):
    """A (element class, id) pair naming one element of a model."""

    cls: str
    id: str


#: The nine element classes in canonical order, read off the records as they
#: are declared: the records are the schema, and this is its one table. The
#: grammar, the element constructors, the serializer, diff fields, the
#: reference topology, the reference checks of validation and the JSON export
#: are derived from it, and follow slot order.
SCHEMA: tuple[ElementClass, ...] = tuple(_DECLARED)

#: Any element record.
Element = Union[tuple(c.type for c in SCHEMA)]

#: Element classes in canonical declaration order.
ELEMENT_CLASSES: tuple[str, ...] = tuple(c.name for c in SCHEMA)

#: Maps an element class to the Model attribute holding its collection.
CLASS_FIELDS: dict[str, str] = {c.name: c.collection for c in SCHEMA}


def _references(element_class: ElementClass) -> tuple[tuple[Slot, tuple[str, ...]], ...]:
    found = []
    for slot in element_class.slots:
        if element_class.name == "scenario" and slot.field == "elements":
            # A scenario cites the nodes and edges involved alike.
            found.append((slot, ("node", "edge")))
        elif slot.target is not None:
            found.append((slot, (slot.target,)))
    return tuple(found)


#: Per class, each reference slot with the classes its ids may name, in slot
#: order.
REFERENCES: dict[str, tuple[tuple[Slot, tuple[str, ...]], ...]] = {
    c.name: _references(c) for c in SCHEMA
}


@record
class Model:
    """A complete analysis document.

    Collections preserve declaration order; equality is structural and
    ignores ``source_spans``, so two documents differing only in whitespace
    and comments parse to equal models. A parsed model's ``source_spans`` is a
    read-only mapping, resolved on read, that pickles and copies to a dict.
    """

    # The name, a collection per element class, the spans; locals() is the class namespace.
    __annotations__ = {
        "name": "str",
        **{c.collection: f"tuple[{c.type.__name__}, ...]" for c in SCHEMA},
        "source_spans": "dict[Ref, Span]",
    }
    name = ""
    locals().update(dict.fromkeys(CLASS_FIELDS.values(), ()))
    source_spans = field(default_factory=dict, compare=False, repr=False)

    def elements_of(self, element_class: str) -> tuple[Element, ...]:
        return getattr(self, CLASS_FIELDS[element_class])

    @cached_property
    def index(self) -> ModelIndex:
        """The lazy maps of this model. ``cached_property`` stores it in the
        instance ``__dict__``, outside the record's fields, so equality,
        hashing and ``repr`` ignore it and ``dataclasses.replace`` returns a
        model with a fresh index."""
        return ModelIndex(self)

    def __getstate__(self) -> dict:
        """The fields alone: a pickle or copy leaves a built index out."""
        return {k: v for k, v in vars(self).items() if k != "index"}


#: Each slot by (class, field name).
_SLOTS: dict[tuple[str, str], Slot] = {
    (c.name, s.field): s for c in SCHEMA for s in c.slots
}


class ModelIndex:
    """By-id and referred-by maps over one model, each built on first use and
    then kept; :meth:`declared`, which resolves ids to their first
    declarations through them; and :meth:`reached`, the one walk from ucas up
    to hazards and losses. Callers must not mutate the maps it returns."""

    def __init__(self, model: Model) -> None:
        # The collections rather than the model, so the model and its index
        # form no reference cycle.
        self._elements = {c.name: getattr(model, c.collection) for c in SCHEMA}
        self._positions: dict[str, dict[str, int]] = {}
        self._referrers: dict[tuple[str, str], dict[str, list[Element]]] = {}

    def positions(self, element_class: str) -> dict[str, int]:
        """Each id of a class mapped to the position of its first declaration
        in the class's collection."""
        found = self._positions.get(element_class)
        if found is None:
            ids = [e.id for e in self._elements[element_class]]
            # Filled from the last declaration back, so the first one wins.
            found = dict(zip(reversed(ids), range(len(ids) - 1, -1, -1)))
            self._positions[element_class] = found
        return found

    def declared(self, element_class: str, ids) -> list[Element]:
        """The first declaration of each of ``ids`` declared, once each, in declaration order."""
        positions, elements = self.positions(element_class), self._elements[element_class]
        return [elements[p] for p in sorted({positions[i] for i in ids if i in positions})]

    def reached(self, ucas) -> tuple[list[Element], list[Element]]:
        """The hazards ``ucas`` name and the losses those hazards lead to,
        each by :meth:`declared`: undeclared ids are left out."""
        hazards = self.declared("hazard", {hid for u in ucas for hid in u.hazards})
        return hazards, self.declared("loss", {lid for h in hazards for lid in h.leads_to})

    def referrers(self, element_class: str, field_name: str) -> dict[str, list[Element]]:
        """For one reference slot, each id it names mapped to the elements of
        ``element_class`` whose slot names it, in declaration order, each
        element once."""
        key = (element_class, field_name)
        found = self._referrers.get(key)
        if found is None:
            found = {}
            read = attrgetter(field_name)
            if _SLOTS[key].kind == IDLIST:
                for element in self._elements[element_class]:
                    for target_id in dict.fromkeys(read(element)):
                        found.setdefault(target_id, []).append(element)
            else:
                for element in self._elements[element_class]:
                    found.setdefault(read(element), []).append(element)
            # Stored only when complete: analyses of one model may run in
            # several threads, and a second build is merely wasted work.
            self._referrers[key] = found
        return found


class UnknownReferenceError(ValueError):
    """Raised when an operation is asked about an id that does not resolve."""

    def __init__(self, element_class: str, element_id: str) -> None:
        super().__init__(f"unknown {element_class} '{element_id}'")
        self.element_class = element_class
        self.element_id = element_id


def declared_names(ids) -> list[str]:
    """The name of each declaration of ``ids``, in order: its id, and for the
    n-th declaration of a repeated id, n > 1, ``id#n``, so each keeps its own span."""
    counts: dict[str, int] = {}
    names = []
    for key in ids:
        n = counts[key] = counts.get(key, 0) + 1
        names.append(key if n == 1 else f"{key}#{n}")
    return names


def class_rank(element_class: str) -> int:
    return ELEMENT_CLASSES.index(element_class)


def lookup(model: Model, element_class: str, element_id_text: str):
    """Return the element with that id in that class, or ``None``.

    Classes are namespaced: looking up a loss id among hazards is a miss,
    never an error. When several elements of a class share an id, the first
    declared wins. An assessment's id is its cell key ``action/guide``.
    """
    if element_class not in CLASS_FIELDS:
        return None
    position = model.index.positions(element_class).get(element_id_text)
    return None if position is None else model.elements_of(element_class)[position]


def elements_in_boundary(
    model: Model, boundary_id: str
) -> tuple[tuple[Node, ...], tuple[Edge, ...]]:
    """Nodes included in a boundary and the edges whose endpoints both lie
    inside it, each in model declaration order.

    Raises :class:`UnknownReferenceError` if the boundary id does not resolve.
    """
    boundary = lookup(model, "boundary", boundary_id)
    if boundary is None:
        raise UnknownReferenceError("boundary", boundary_id)
    included = set(boundary.includes)
    nodes = tuple(n for n in model.nodes if n.id in included)
    node_ids = {n.id for n in nodes}
    edges = tuple(
        e for e in model.edges if e.source in node_ids and e.target in node_ids
    )
    return nodes, edges
