"""The element walk that ``phasekit.diff.diff`` ran before it learned to
match elements through ``Model.index`` and skip equal ones in one C-level
comparison, kept verbatim as an oracle.

``element_map`` keys every element by (class, id), assessments under their
cell key, and ``diff`` compares every field of every element two versions
share, id lists as sets, sorting refs by class rank and id through a Python
key. On models whose ids are unique per class its ``ChangeSet`` is what the
current ``diff`` must return. (With an id declared twice ``element_map``
keeps the last declaration, where ``diff`` now compares the first, as
``lookup`` does; so the two are compared on unique ids only.)
"""

from __future__ import annotations

from phasekit.diff import ChangeSet, FieldChange, ModifiedElement
from phasekit.model import (
    ELEMENT_CLASSES,
    IDLIST,
    SCHEMA,
    Element,
    Model,
    Ref,
    class_rank,
    enum_text,
)

_FIELDS: dict[str, tuple[tuple[str, bool], ...]] = {
    c.name: tuple((s.field, s.kind == IDLIST) for s in c.slots) for c in SCHEMA
}


def _ref_sort_key(ref: Ref) -> tuple[int, str]:
    return (class_rank(ref.cls), ref.id)


def element_map(model: Model) -> dict[Ref, Element]:
    """All elements keyed by (class, id), assessments under their synthetic
    cell key."""
    mapping: dict[Ref, Element] = {}
    for cls in ELEMENT_CLASSES:
        for element in model.elements_of(cls):
            if cls == "assessment":
                mapping[Ref(cls, f"{element.action}/{enum_text(element.guide_type)}")] = element
            else:
                mapping[Ref(cls, element.id)] = element
    return mapping


def _changed_fields(cls: str, old: Element, new: Element) -> tuple[FieldChange, ...]:
    changes: list[FieldChange] = []
    for field_name, as_set in _FIELDS[cls]:
        old_value = getattr(old, field_name)
        new_value = getattr(new, field_name)
        if as_set:
            if frozenset(old_value) != frozenset(new_value):
                changes.append(FieldChange(field_name, old_value, new_value))
        elif old_value != new_value:
            changes.append(FieldChange(field_name, old_value, new_value))
    return tuple(changes)


def diff(old: Model, new: Model) -> ChangeSet:
    """Added, removed, and field-modified elements between two versions."""
    old_map = element_map(old)
    new_map = element_map(new)
    added = tuple(sorted((r for r in new_map if r not in old_map), key=_ref_sort_key))
    removed = tuple(sorted((r for r in old_map if r not in new_map), key=_ref_sort_key))
    modified: list[ModifiedElement] = []
    for ref in sorted((r for r in old_map.keys() & new_map.keys()), key=_ref_sort_key):
        changes = _changed_fields(ref.cls, old_map[ref], new_map[ref])
        if changes:
            modified.append(ModifiedElement(ref, changes))
    return ChangeSet(added, removed, tuple(modified))
