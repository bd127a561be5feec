"""The dict builders that ``phasekit.export`` ran before it learned to write
every record column by column, kept verbatim as an oracle.

``_model_json`` builds a dict per element, ``_coverage_json`` one per row
and per cell, ``_hint_json`` one per hint and per subject, and
``_diagnostic_json`` one per diagnostic and per span;
``oracle_report_document``, ``oracle_coverage_document`` and
``oracle_diff_document`` assemble the documents ``report_json``,
``coverage_json`` and ``diff_json`` wrote through ``json.dumps(...,
indent=2, ensure_ascii=False)``. For any model, analysis bundle, change set
and impact report, the text of the document, or the error it raises, is
what the current writers must give. Nothing here is imported from
``phasekit.export``, so no writer is checked against itself.

The writers write a document section by section, so a value of the wrong
type raises the error of the first section, in document order, that holds
one. An oracle builds its whole document before json sees it: a section's
``AttributeError`` comes before an earlier section's ``TypeError``. So the
comparisons hold for bad values in one section. Within a section the
writers raise the ``TypeError`` of the first value json cannot write in
document order, as json does, but a record's ``AttributeError`` when they
read the column that holds it, before or after that; the oracle raises any
``AttributeError`` first. The tests that put several bad values in one
section keep them where the two orders agree.
"""

from __future__ import annotations

from phasekit.analysis import AnalysisBundle, CellState, CoverageMatrix, Hint, Metrics
from phasekit.diagnostics import Diagnostic
from phasekit.diff import ChangeSet, ImpactReport
from phasekit.model import ENUM, GUIDE_TYPES, IDLIST, SCHEMA, ElementClass, Model, Ref, enum_text


def _span_json(diagnostic: Diagnostic) -> dict | None:
    if diagnostic.span is None:
        return None
    return {
        "file": diagnostic.span.file,
        "line": diagnostic.span.line,
        "column": diagnostic.span.column,
    }


def _diagnostic_json(diagnostic: Diagnostic) -> dict:
    return {
        "severity": diagnostic.severity.value,
        "code": diagnostic.code,
        "message": diagnostic.message,
        "span": _span_json(diagnostic),
    }


def _ref_json(ref: Ref) -> dict:
    return {"class": ref.cls, "id": ref.id}


def _hint_json(hint: Hint) -> dict:
    return {
        "code": hint.code.value,
        "subjects": [_ref_json(ref) for ref in hint.subjects],
        "message": hint.message,
    }


def json_value(value):
    """A field value as JSON: an id list as a list, an enum member as its
    value text, anything else (text, None) as it is."""
    if isinstance(value, tuple):
        return list(value)
    if hasattr(value, "value"):
        return value.value
    return value


def _element_json_steps(element_class: ElementClass) -> tuple:
    """(JSON key, field, whether to convert) per field, ``id`` first, slots
    in order. Identifiers and text are written as they are."""
    steps = [("id", "id", False)] if element_class.identity else []
    for slot in element_class.slots:
        key = "class" if slot.field == "scenario_class" else slot.field
        steps.append((key, slot.field, slot.kind in (ENUM, IDLIST)))
    return tuple(steps)


_MODEL_JSON_STEPS = tuple((c, _element_json_steps(c)) for c in SCHEMA)


def _model_json(model: Model) -> dict:
    document: dict = {"name": model.name}
    for element_class, steps in _MODEL_JSON_STEPS:
        document[element_class.collection] = [
            {
                key: json_value(getattr(element, name))
                if convert
                else getattr(element, name)
                for key, name, convert in steps
            }
            for element in model.elements_of(element_class.name)
        ]
    return document


def _coverage_json(matrix: CoverageMatrix) -> dict:
    rows = []
    for row in matrix.rows:
        cells = {}
        for guide, cell in zip(GUIDE_TYPES, row.cells):
            entry: dict = {"state": cell.state.value}
            if cell.state is CellState.COVERED:
                entry["ucas"] = list(cell.uca_ids)
            if cell.assessment is not None:
                entry["rationale"] = cell.assessment.rationale
            cells[guide.value] = entry
        rows.append({"controller": row.controller, "action": row.action, "cells": cells})
    covered, waived, gap = matrix.counts()
    return {
        "guide_types": [g.value for g in GUIDE_TYPES],
        "rows": rows,
        "counts": {"covered": covered, "waived": waived, "gap": gap},
        "ratio": matrix.ratio(),
        "warnings": [_diagnostic_json(d) for d in matrix.warnings],
    }


def oracle_coverage_document(matrix: CoverageMatrix) -> dict:
    """The document ``coverage_json`` wrote."""
    return _coverage_json(matrix)


def oracle_report_document(model: Model, analyses: AnalysisBundle) -> dict:
    """The document ``report_json`` wrote."""
    # The counts, then every ratio in Metrics field order.
    metrics = dict(analyses.metrics.counts)
    for field in Metrics.__record_fields__[1:]:
        metrics[field.name] = getattr(analyses.metrics, field.name)
    return {
        "model": _model_json(model),
        "diagnostics": [_diagnostic_json(d) for d in analyses.diagnostics],
        "coverage": _coverage_json(analyses.coverage),
        "hints": [_hint_json(h) for h in analyses.hints],
        "metrics": metrics,
        "schema_version": "1",
    }


#: The id lists of an impact entry, in the order both diff views write them.
_IMPACT_LISTS = ("ucas", "scenarios", "hazards", "losses")


def oracle_diff_document(changes: ChangeSet, report: ImpactReport | None) -> dict:
    """The document ``diff_json`` wrote."""
    document = {
        "added": [_ref_json(r) for r in changes.added],
        "removed": [_ref_json(r) for r in changes.removed],
        "modified": [
            {
                "ref": _ref_json(entry.ref),
                "changes": [
                    {
                        "field": change.field,
                        "old": enum_text(change.old),
                        "new": enum_text(change.new),
                    }
                    for change in entry.changes
                ],
            }
            for entry in changes.modified
        ],
    }
    if report is not None:
        document["impact"] = {
            "re_review": [
                {
                    "subject": _ref_json(entry.subject),
                    **{name: list(getattr(entry, name)) for name in _IMPACT_LISTS},
                }
                for entry in report.re_review
            ],
            "dangling": [
                {
                    "removed": _ref_json(entry.removed),
                    "referenced_by": [_ref_json(r) for r in entry.referenced_by],
                }
                for entry in report.dangling
            ],
        }
    return document
