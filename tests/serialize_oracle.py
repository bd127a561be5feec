"""The serializer that ``phasekit.dsl.serialize`` was before it wrote each
class a column at a time, kept verbatim as an oracle: it writes element
after element, field after field, checking each value as it writes it.

For every model, ``serialize`` must return what :func:`serialize` returns
here, and where this raises, raise the same exception type with the same
message.
"""

from __future__ import annotations

from collections.abc import Callable
from operator import attrgetter

from phasekit.dsl import _EDGE_KEYWORDS
from phasekit.model import (
    DESCRIPTION,
    ID,
    IDLIST,
    SCHEMA,
    STRING,
    ElementClass,
    Model,
    Slot,
    is_valid_identifier,
)


def _quote(text: str) -> str:
    if "\n" in text or "\r" in text:
        raise ValueError("text fields must not contain newlines")
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _ident(text: str) -> str:
    if not is_valid_identifier(text):
        raise ValueError(f"{text!r} is not a serializable identifier")
    return text


def _idlist(ids: tuple[str, ...]) -> str:
    return "[" + ",".join(_ident(i) for i in ids) + "]"


def _writer(slot: Slot) -> Callable[[object], str]:
    if slot.key == DESCRIPTION:
        return _quote
    prefix = f"{slot.key}="
    if slot.kind == STRING:
        return lambda value: prefix + _quote(value)
    if slot.kind == ID:
        return lambda value: prefix + _ident(value)
    if slot.kind == IDLIST:
        return lambda value: prefix + _idlist(value)
    # An enum member, or the plain-text assessment verdict.
    return lambda value: prefix + getattr(value, "value", value)


_ALWAYS = object()  # compares unequal to every field value


def _serializer_steps(element_class: ElementClass) -> tuple:
    """(getter, writer, value left out) per written slot, in slot order. An
    optional field is left out when it equals its default."""
    defaults = {f.name: f.default for f in element_class.type.__record_fields__}
    return tuple(
        (attrgetter(s.field), _writer(s), _ALWAYS if s.required else defaults[s.field])
        for s in element_class.slots
        if s.key is not None
    )


_SERIALIZER_STEPS = tuple((c, _serializer_steps(c)) for c in SCHEMA)


def serialize(model: Model) -> str:
    """Render a model in canonical form.

    Statement classes appear in a fixed order, declarations keep their order
    within each class, and spacing and quoting are normalized, so equal
    models serialize to byte-equal documents.
    """
    lines: list[str] = []
    if model.name:
        lines.append(f"model {_quote(model.name)}")
    for element_class, steps in _SERIALIZER_STEPS:
        keyword = element_class.keywords[0]
        for element in model.elements_of(element_class.name):
            if element_class.name == "edge":
                keyword = _EDGE_KEYWORDS[element.kind]
            parts = [keyword]
            if element_class.identity:
                parts.append(_ident(element.id))
            for get, write, left_out in steps:
                value = get(element)
                if value != left_out:
                    parts.append(write(value))
            lines.append(" ".join(parts))
    return "".join(line + "\n" for line in lines)
