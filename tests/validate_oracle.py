"""The element walk that ``phasekit.analysis.validate`` ran before it learned
to skip slots that cannot produce a finding, kept verbatim as an oracle.

It visits every element of every class with a reference slot and checks every
slot, so its diagnostics, in order, message and span, are what the current
validate must return for any well-typed model. (On wrong-typed single-id or
text fields it raises or passes silently; the current validate reports V007
there, so the two are compared only on well-typed models.) Both check the
model's name first.
"""

from __future__ import annotations

from itertools import chain, repeat
from operator import attrgetter

from phasekit.diagnostics import Diagnostic, Severity, Span
from phasekit.model import (
    ENUM,
    IDLIST,
    REFERENCES,
    SCHEMA,
    Edge,
    EdgeKind,
    ElementClass,
    Model,
    Ref,
    Slot,
    Uca,
    enum_text,
)


def referenced_ids(element, slot: Slot) -> tuple[str, ...]:
    """The ids one reference slot of an element names."""
    value = getattr(element, slot.field)
    return value if slot.kind == IDLIST else (value,)


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


def _check_uca_action(
    model: Model, uca: Uca, ref: Ref, node_ids: set[str], edge_by_id: dict[str, Edge]
) -> list[Diagnostic]:
    """The action of a uca and the source derived from it, action first."""
    diags: list[Diagnostic] = []
    action = edge_by_id.get(uca.action)
    if action is None:
        diags.append(_dangling(model, ref, "edge", uca.action))
    elif action.kind is not EdgeKind.CONTROL_ACTION:
        diags.append(
            Diagnostic(
                Severity.ERROR,
                "V003",
                f"uca '{uca.id}' references '{action.id}' which is a "
                f"{action.kind.value} edge, not a control action",
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


def _suspect_enum_slots(element_class: ElementClass, elements: tuple) -> list[Slot]:
    """The enum slots of a class whose values are not all members (or None
    where the field is optional). Values are compared by identity, in one
    pass per slot, so only these slots need checking element by element."""
    suspect = []
    for slot in element_class.slots:
        if slot.kind != ENUM:
            continue
        allowed = {id(member) for member in slot.members.values()}
        if not slot.required:
            allowed.add(id(None))
        if not set(map(id, map(attrgetter(slot.field), elements))) <= allowed:
            suspect.append(slot)
    return suspect


def _mistyped_list(slot: Slot, elements: tuple) -> bool:
    """Whether an id-list slot holds anything but tuples of str. One pass
    over the slot's values, so only such a slot needs checking element by
    element."""
    if slot.kind != IDLIST:
        return False
    values = list(map(attrgetter(slot.field), elements))
    return not (
        all(map(isinstance, values, repeat(tuple)))
        and all(map(isinstance, chain.from_iterable(values), repeat(str)))
    )


def oracle_validate(model: Model) -> list[Diagnostic]:
    """Check every cross-reference and structural invariant.

    An empty result means the model is semantically valid. Diagnostics
    carry the span of the referencing declaration when the model was parsed
    from text.
    """
    diags: list[Diagnostic] = []
    # The name, which serialize writes with dsl._quote, comes first.
    name = model.name
    if not isinstance(name, str) or "\n" in name or "\r" in name:
        expected = "a string without line breaks" if isinstance(name, str) else "a string"
        diags.append(
            Diagnostic(
                Severity.ERROR,
                "V007",
                f"model has invalid name {name!r} (expected {expected})",
                None,
            )
        )
    ids = {
        c.name: {e.id for e in model.elements_of(c.name)} for c in SCHEMA if c.identity
    }
    # An id declared twice names its first edge.
    edge_by_id = {e.id: e for e in reversed(model.edges)}
    seen_cells: dict[tuple, Span | None] = {}
    occurrences: dict[tuple, int] = {}

    for element_class in SCHEMA:
        cls = element_class.name
        elements = model.elements_of(cls)
        # Each reference slot with the ids it may name and whether it may
        # hold a value of the wrong type. A uca's source and action are
        # checked together by _check_uca_action.
        checks = [
            (
                slot,
                set().union(*(ids[t] for t in targets)),
                " or ".join(targets),
                _mistyped_list(slot, elements),
            )
            for slot, targets in REFERENCES[cls]
            if not (cls == "uca" and slot.field in ("source", "action"))
        ]
        enums = _suspect_enum_slots(element_class, elements)
        if not checks and not enums:
            continue
        for element in elements:
            if element_class.identity:
                ref = Ref(cls, element.id)
            else:
                cell = (element.action, element.guide_type)
                occurrences[cell] = occurrences.get(cell, 0) + 1
                key = f"{element.action}/{enum_text(element.guide_type)}"
                ref = Ref(cls, key if occurrences[cell] == 1 else f"{key}#{occurrences[cell]}")
            if cls == "uca":
                diags.extend(
                    _check_uca_action(model, element, ref, ids["node"], edge_by_id)
                )
            for slot, known, target_text, mistyped in checks:
                values = referenced_ids(element, slot)
                if mistyped and not (
                    isinstance(values, tuple) and all(isinstance(v, str) for v in values)
                ):
                    diags.append(
                        Diagnostic(
                            Severity.ERROR,
                            "V007",
                            f"{cls} '{ref.id}' has invalid {slot.field} {values!r} "
                            f"(expected a tuple of ids)",
                            _span(model, ref),
                        )
                    )
                    continue
                if slot.nonempty and not values:
                    diags.append(
                        Diagnostic(
                            Severity.ERROR,
                            "V004",
                            f"{cls} '{ref.id}' must {slot.nonempty} at least one "
                            f"{slot.target}",
                            _span(model, ref),
                        )
                    )
                for value in values:
                    if value not in known:
                        diags.append(_dangling(model, ref, target_text, value))
            for slot in enums:
                value = getattr(element, slot.field)
                if value is None and not slot.required:
                    continue
                # The text serialize would write must be one parse accepts.
                text = enum_text(value)
                if not (isinstance(text, str) and text in slot.members):
                    diags.append(
                        Diagnostic(
                            Severity.ERROR,
                            "V006",
                            f"{cls} '{ref.id}' has invalid {slot.field} '{text}' "
                            f"(expected one of: {', '.join(slot.members)})",
                            _span(model, ref),
                        )
                    )
            if cls == "edge" and element.source == element.target:
                diags.append(
                    Diagnostic(
                        Severity.WARNING,
                        "V100",
                        f"edge '{element.id}' is a self-loop on '{element.source}'",
                        _span(model, ref),
                    )
                )
            if cls == "assessment" and occurrences[cell] == 1:
                seen_cells[cell] = _span(model, ref)
            elif cls == "assessment":
                diags.append(
                    Diagnostic(
                        Severity.ERROR,
                        "V005",
                        f"duplicate assessment for action '{element.action}' and "
                        f"guide type '{enum_text(element.guide_type)}'",
                        _span(model, ref),
                        seen_cells[cell],
                    )
                )

    return diags
