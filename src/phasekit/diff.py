"""Structural comparison of two model versions and downstream impact.

Elements are matched by (class, id); renaming an id therefore shows up as a
removal plus an addition, never as a modification. Reference lists are
compared as sets, so reordering `includes=[a,b]` to `[b,a]` is not a change,
while any field-content change is, including free text: context drift is
treated as analysis-relevant, so there is no cosmetic exemption. When a
class declares one id more than once, its first declaration is the one
compared, the one :func:`phasekit.model.lookup` finds.

The model name header is outside the element registry and is not diffed.
"""

from __future__ import annotations

from itertools import compress
from operator import attrgetter, itemgetter, ne

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
#: Per class, the tuple of an element's compared fields.
_VALUES = {c.name: attrgetter(*(s.field for s in c.slots)) for c in SCHEMA}


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
    them. The hazards and losses are first declarations, each once, in
    declaration order; ids that are not declared are left out (a removed
    target shows under the report's ``dangling``)."""

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


def _changed_fields(cls: str, old: Element, new: Element) -> tuple[FieldChange, ...]:
    return tuple(
        FieldChange(name, a, b)
        for (name, as_set), a, b in zip(_FIELDS[cls], _VALUES[cls](old), _VALUES[cls](new))
        if (frozenset(a) != frozenset(b) if as_set else a != b)
    )


def diff(old: Model, new: Model) -> ChangeSet:
    """Added, removed, and field-modified elements between two versions."""
    added: list[Ref] = []
    removed: list[Ref] = []
    modified: list[ModifiedElement] = []
    for cls in ELEMENT_CLASSES:
        old_at, new_at = old.index.positions(cls), new.index.positions(cls)
        added += [Ref(cls, key) for key in sorted(new_at.keys() - old_at.keys())]
        removed += [Ref(cls, key) for key in sorted(old_at.keys() - new_at.keys())]
        keys = list(old_at.keys() & new_at.keys())
        olds = list(map(old.elements_of(cls).__getitem__, map(old_at.__getitem__, keys)))
        news = list(map(new.elements_of(cls).__getitem__, map(new_at.__getitem__, keys)))
        # Equal field tuples are skipped in C; unequal ones may still be
        # equal once their id lists are read as sets.
        values = _VALUES[cls]
        unequal = compress(zip(keys, olds, news), map(ne, map(values, olds), map(values, news)))
        for key, old_element, new_element in sorted(unequal, key=itemgetter(0)):
            changes = _changed_fields(cls, old_element, new_element)
            if changes:
                modified.append(ModifiedElement(Ref(cls, key), changes))
    return ChangeSet(tuple(added), tuple(removed), tuple(modified))


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
    with the ucas, scenarios, hazards, and losses it reaches; the hazards and
    losses are first declarations, each once, in declaration order, with
    undeclared ids left out, as :func:`phasekit.analysis.trace_node` lists
    them. Every removed element is listed with the references in the new
    model that now dangle (semantic validation reports the same breakage).
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
    entries: list[ImpactEntry] = []
    for subject in subjects:
        ucas = ucas_of[subject.cls].get(subject.id, ())
        found = (ucas, citing.get(subject.id, ()), *index.reached(ucas))
        entries.append(ImpactEntry(subject, *(tuple(e.id for e in f) for f in found)))

    dangling = tuple(
        DanglingReport(removed, _referencers(new, removed))
        for removed in changes.removed
    )
    return ImpactReport(tuple(entries), dangling)
