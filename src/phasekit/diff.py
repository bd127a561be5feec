"""Structural comparison of two model versions and downstream impact.

Elements are matched by (class, id); renaming an id therefore shows up as a
removal plus an addition, never as a modification. Reference lists are
compared as sets, so reordering `includes=[a,b]` to `[b,a]` is not a change,
while any field-content change is, including free text: context drift is
treated as analysis-relevant, so there is no cosmetic exemption.

The model name header is outside the element registry and is not diffed.
"""

from __future__ import annotations

from .diagnostics import record
from .model import (
    ELEMENT_CLASSES,
    IDLIST,
    REFERENCES,
    SCHEMA,
    Element,
    Model,
    Ref,
    class_rank,
    element_id,
)

#: Fields compared per class, with whether the field is an id list, compared
#: order-insensitively. An assessment's action and guide type are its key, so
#: they never differ between the two versions of one assessment.
_FIELDS: dict[str, tuple[tuple[str, bool], ...]] = {
    c.name: tuple((s.field, s.kind == IDLIST) for s in c.slots) for c in SCHEMA
}


@record
class FieldChange:
    """One field of an element whose value differs between versions."""
    field: str
    old: object
    new: object


@record
class ModifiedElement:
    """An element present in both versions with changed fields."""
    ref: Ref
    changes: tuple[FieldChange, ...]


@record
class ChangeSet:
    """Elements added, removed and modified between two versions."""
    added: tuple[Ref, ...]
    removed: tuple[Ref, ...]
    modified: tuple[ModifiedElement, ...]

    def is_empty(self) -> bool:
        return not (self.added or self.removed or self.modified)


@record
class ImpactEntry:
    """Elements to re-review because one added or modified subject touches
    them."""

    subject: Ref
    ucas: tuple[str, ...]
    scenarios: tuple[str, ...]
    hazards: tuple[str, ...]
    losses: tuple[str, ...]


@record
class DanglingReport:
    """References in the new model that point at a removed element."""

    removed: Ref
    referenced_by: tuple[Ref, ...]


@record
class ImpactReport:
    """Elements a change asks to re-review, and the references it leaves dangling."""
    re_review: tuple[ImpactEntry, ...]
    dangling: tuple[DanglingReport, ...]

    def is_empty(self) -> bool:
        return not (self.re_review or self.dangling)


def _ref_sort_key(ref: Ref) -> tuple[int, str]:
    return (class_rank(ref.cls), ref.id)


def element_map(model: Model) -> dict[Ref, Element]:
    """All elements keyed by (class, id), assessments under their synthetic
    cell key."""
    mapping: dict[Ref, Element] = {}
    for cls in ELEMENT_CLASSES:
        for element in model.elements_of(cls):
            mapping[Ref(cls, element_id(cls, element))] = element
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


def _referencers(model: Model, target: Ref) -> tuple[Ref, ...]:
    hits: list[Ref] = []
    for src_cls in ELEMENT_CLASSES:
        for slot, targets in REFERENCES[src_cls]:
            if target.cls in targets:
                hits.extend(
                    Ref(src_cls, element_id(src_cls, element))
                    for element in model.index.referrers(src_cls, slot.field).get(
                        target.id, ()
                    )
                )
    return tuple(dict.fromkeys(hits))


def impact(changes: ChangeSet, new: Model) -> ImpactReport:
    """What the changes touch downstream, computed against the new version.

    Every added or modified node or edge is flagged for re-review together
    with the ucas, scenarios, hazards, and losses it reaches. Every removed
    element is listed with the references in the new model that now dangle
    (semantic validation reports the same breakage).
    """
    subjects = sorted(
        (
            ref
            for ref in (*changes.added, *(m.ref for m in changes.modified))
            if ref.cls in ("node", "edge")
        ),
        key=_ref_sort_key,
    )

    index = new.index
    # An edge reaches the ucas on it, a node the ucas it issues.
    ucas_of = {
        "edge": index.referrers("uca", "action"),
        "node": index.referrers("uca", "source"),
    }
    citing = index.referrers("scenario", "elements")
    hazard_positions = index.positions("hazard")
    entries: list[ImpactEntry] = []
    for subject in subjects:
        ucas = ucas_of[subject.cls].get(subject.id, ())
        hazard_ids = dict.fromkeys(hid for u in ucas for hid in u.hazards)
        # Losses follow hazard declaration order, not the order the ucas
        # name the hazards in.
        reached = sorted(hazard_positions[h] for h in hazard_ids if h in hazard_positions)
        loss_ids = dict.fromkeys(
            lid for position in reached for lid in new.hazards[position].leads_to
        )
        entries.append(
            ImpactEntry(
                subject,
                tuple(u.id for u in ucas),
                tuple(s.id for s in citing.get(subject.id, ())),
                tuple(hazard_ids),
                tuple(loss_ids),
            )
        )

    dangling = tuple(
        DanglingReport(removed, _referencers(new, removed))
        for removed in changes.removed
    )
    return ImpactReport(tuple(entries), dangling)
