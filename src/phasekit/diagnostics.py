"""Diagnostic records, and the ``record`` decorator every phasekit record uses."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, fields
from enum import Enum
from operator import attrgetter
from reprlib import recursive_repr


def _fields_of(names: list[str]):
    """A function from a record to the tuple of its fields ``names``."""
    if len(names) == 1:
        return lambda obj, get=attrgetter(names[0]): (get(obj),)
    return attrgetter(*names) if names else lambda obj: ()


def record(cls):
    """``@dataclass(frozen=True)``, except that ``__repr__``, ``__eq__`` and
    ``__hash__`` are closures over ``fields(cls)``, one code object for every
    record, rather than compiled source; ``dataclasses`` compiles only
    ``__init__``, ``__setattr__`` and ``__delattr__``. The closures behave as
    the generated methods; only ``__dataclass_params__`` differs, reading
    ``eq=False, repr=False``."""
    cls = dataclass(cls, frozen=True, eq=False, repr=False)
    shown = [f.name for f in fields(cls) if f.repr]
    compared = _fields_of([f.name for f in fields(cls) if f.compare])
    hashed = _fields_of(
        [f.name for f in fields(cls) if (f.compare if f.hash is None else f.hash)]
    )

    @recursive_repr()
    def __repr__(self):
        values = ", ".join(f"{name}={getattr(self, name)!r}" for name in shown)
        return f"{self.__class__.__qualname__}({values})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return compared(self) == compared(other)
        return NotImplemented

    def __hash__(self):
        return hash(hashed(self))

    for method in (__repr__, __eq__, __hash__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    return cls


class Severity(str, Enum):
    ERROR = "error"
    WARNING = "warning"


@record
class Span:
    """A 1-based (file, line, column) position in source text."""

    file: str
    line: int
    column: int


@record
class Diagnostic:
    """One finding of the parser or of validate, with where it points."""
    severity: Severity
    code: str
    message: str
    span: Span | None = None
    related_span: Span | None = None

    def format(self) -> str:
        """Render in compiler style: ``file:line:col: severity[code]: message``."""
        prefix = ""
        if self.span is not None:
            prefix = f"{self.span.file}:{self.span.line}:{self.span.column}: "
        return f"{prefix}{self.severity.value}[{self.code}]: {self.message}"


def has_errors(diagnostics: Sequence[Diagnostic]) -> bool:
    return any(d.severity is Severity.ERROR for d in diagnostics)
