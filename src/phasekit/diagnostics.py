"""Diagnostic records, and the ``record`` decorator every phasekit record uses."""

from __future__ import annotations

import sys
from collections.abc import Sequence
from enum import Enum
from functools import cache
from operator import attrgetter
from reprlib import recursive_repr
from typing import NamedTuple

MISSING = object()  # the default of a field that has none
#: ``object.__setattr__`` bound to a given record, past its frozen own.
_bound_setattr = object.__setattr__.__get__


class Field(NamedTuple):
    """One field of a record: its name, its annotation and what :func:`field` takes."""

    name: str
    type: object
    default: object = MISSING
    default_factory: object = MISSING
    repr: bool = True
    compare: bool = True
    metadata: object = None


def field(*, default=MISSING, default_factory=MISSING, repr=True, compare=True,
          metadata=None) -> Field:
    """What ``dataclasses.field(default=, default_factory=, repr=, compare=,
    metadata=)`` declares. ``metadata`` is kept in the record's field table
    alone: the dataclass fields and signature of a record do not show it."""
    return Field("", None, default, default_factory, repr, compare, metadata)


def _fields_of(names: list[str]):
    """A function from a record to the tuple of its fields ``names``."""
    if len(names) == 1:
        return lambda obj, get=attrgetter(names[0]): (get(obj),)
    return attrgetter(*names) if names else lambda obj: ()


@cache
def _twin(cls: type) -> type:
    """``make_dataclass(..., frozen=True, eq=False, repr=False)`` with the
    fields of record ``cls``, built on first use. Its ``__init__`` binds the
    calls off the fast path, raising what a dataclass raises, and ``cls``
    takes its ``__dataclass_fields__``, ``__dataclass_params__`` (which
    read ``eq=False, repr=False``) and ``__signature__``."""
    import dataclasses
    import inspect

    spec = []
    for f in cls.__record_fields__:
        # Metadata, the last column, stays with the record.
        flags = {key: value for key, value in zip(Field._fields[2:-1], f[2:-1])
                 if value is not MISSING}
        spec.append((f.name, f.type, dataclasses.field(**flags)))
    twin = dataclasses.make_dataclass(cls.__name__, spec, frozen=True, eq=False, repr=False,
                                      namespace={"__qualname__": cls.__qualname__})
    cls.__dataclass_fields__ = twin.__dataclass_fields__
    cls.__dataclass_params__ = twin.__dataclass_params__
    cls.__signature__ = inspect.signature(twin)
    return twin


class _FromTwin:
    """A class attribute :func:`_twin` sets on first access, which only a
    caller that has imported ``dataclasses`` or ``inspect`` makes."""

    def __init__(self, cls: type, name: str) -> None:
        self.cls, self.name = cls, name

    def __get__(self, instance, owner=None):
        _twin(self.cls)
        return vars(self.cls)[self.name]


def record(cls):
    """``@dataclass(frozen=True)`` without ``dataclasses``: the methods are
    closures over the field table ``__record_fields__``, one code object
    each for all records. ``__init__`` takes values by position on a fast
    path, down to the last field without a plain default; :func:`_twin`
    binds any other call. ``__replace__`` comes on Python 3.13 and later."""
    table = []
    for name, annotation in vars(cls).get("__annotations__", {}).items():
        spec = vars(cls).get(name, MISSING)
        if isinstance(spec, Field):  # as with dataclasses, the default takes its place
            if spec.default is MISSING:
                delattr(cls, name)
            else:
                setattr(cls, name, spec.default)
        else:
            spec = Field(name, annotation, spec)
        table.append(spec._replace(name=name, type=annotation))
    table = tuple(table)
    names = tuple(f.name for f in table)
    defaults = tuple(f.default for f in table)
    count = len(names)
    # The fewest values the fast path takes: plain defaults fill the rest.
    least = max((i + 1 for i, f in enumerate(table) if f.default is MISSING), default=0)
    shown = [f.name for f in table if f.repr]
    compared = _fields_of([f.name for f in table if f.compare])

    def __init__(self, *args, **kwargs):
        if kwargs or not least <= len(args) <= count:
            return _twin(cls).__init__(self, *args, **kwargs)
        any(map(_bound_setattr(self), names, args + defaults[len(args):]))

    def frozen(self, name, verb):
        if type(self) is cls or name in names:
            from dataclasses import FrozenInstanceError

            raise FrozenInstanceError(f"cannot {verb} field {name!r}")

    def __setattr__(self, name, value):
        frozen(self, name, "assign to")
        super(cls, self).__setattr__(name, value)

    def __delattr__(self, name):
        frozen(self, name, "delete")
        super(cls, self).__delattr__(name)

    def __replace__(self, /, **changes):
        return self.__class__(**changes, **{n: getattr(self, n) for n in names if n not in changes})

    @recursive_repr()
    def __repr__(self):
        values = ", ".join(f"{name}={getattr(self, name)!r}" for name in shown)
        return f"{self.__class__.__qualname__}({values})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return compared(self) == compared(other)
        return NotImplemented

    def __hash__(self):
        return hash(compared(self))

    methods = [__init__, __setattr__, __delattr__, __repr__, __eq__, __hash__]
    for method in methods + [__replace__] * (sys.version_info >= (3, 13)):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls.__record_fields__, cls.__match_args__ = table, names
    for name in ("__dataclass_fields__", "__dataclass_params__", "__signature__"):
        setattr(cls, name, _FromTwin(cls, name))
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
