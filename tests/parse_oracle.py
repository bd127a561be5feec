"""The token parser that ``phasekit.dsl.parse`` ran on any document holding an
error before it learned to fall back one statement at a time, kept verbatim
as an oracle, with the statement tables and the assembly step ``parse`` used
then.

It lexes the whole document into statements of tokens with a character loop
(``_lex``), parses each statement through a cursor (``_parse_statement``)
into attributes keyed by field, and builds the model from them
(``_assemble``): defaults merged with the attributes, duplicate ids (P003)
and a repeated ``model`` header (P002) with the prior span, assessment cells
counted by occurrence, diagnostics sorted into source order, and each uca's
source taken from its action. It shares no parsing or assembly code with
``parse``, so for every text its result, diagnostics in order, message, span
and related span included, and the model with its ``source_spans``, is what
``parse`` must return.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from operator import itemgetter
from typing import NamedTuple

from phasekit.diagnostics import Diagnostic, Severity, Span, has_errors
from phasekit.dsl import ParseResult
from phasekit.model import (
    DESCRIPTION,
    ID,
    IDLIST,
    SCHEMA,
    STRING,
    EdgeKind,
    ElementClass,
    Model,
    Ref,
    Slot,
    is_valid_identifier,
)

_WORD_CHARS = frozenset(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_-"
)


class _Token(NamedTuple):
    kind: str  # "word" | "string" | "punct"
    value: str
    line: int
    column: int


def _error(code: str, message: str, span: Span, related: Span | None = None) -> Diagnostic:
    return Diagnostic(Severity.ERROR, code, message, span, related)


def new_record(cls: type, values) -> object:
    """``cls(*values)`` for one value per field, without ``__init__``."""
    self = object.__new__(cls)
    any(map(object.__setattr__.__get__(self), cls.__match_args__, values))
    return self


class _Shape(NamedTuple):
    """What a statement keyword takes, derived from the schema table."""

    has_id: bool
    description: str | None  # field of the quoted description
    keys: dict[str, Slot]


def _shape(element_class: ElementClass) -> _Shape:
    return _Shape(
        bool(element_class.identity),
        next((s.field for s in element_class.slots if s.key == DESCRIPTION), None),
        {s.key: s for s in element_class.slots if s.key not in (None, DESCRIPTION)},
    )


_STATEMENTS: dict[str, _Shape] = {
    "model": _Shape(False, "name", {}),
    **{kw: _shape(c) for c in SCHEMA for kw in c.keywords},
}

_EDGE_KINDS = {
    "action": EdgeKind.CONTROL_ACTION,
    "feedback": EdgeKind.FEEDBACK,
    "iolink": EdgeKind.IO_LINK,
}


def _fields(element_class: ElementClass, keyword: str) -> tuple[dict, Callable]:
    """The defaults of the element's fields, in order, and a function from
    attributes holding every field to their values in that order. An edge's
    kind is its keyword's; :func:`_assemble` adds the id and a uca's source."""
    defaults = {f.name: f.default for f in element_class.type.__record_fields__}
    if keyword in _EDGE_KINDS:
        defaults["kind"] = _EDGE_KINDS[keyword]
    return defaults, itemgetter(*defaults)  # a tuple: every class has two fields


#: Per keyword: class name, record class, _fields; the model header has none.
_CONSTRUCTORS: dict[str, tuple] = {
    "model": (None, None, {"name": ""}, lambda attrs: (attrs["name"],)),
    **{kw: (c.name, c.type, *_fields(c, kw)) for c in SCHEMA for kw in c.keywords},
}


def _lex(text: str, filename: str, diags: list[Diagnostic]) -> list[list[_Token]]:
    """Split the document into logical statements (token lists).

    Lexical errors are recorded and the offending character skipped, so one
    bad byte never hides the rest of the document.
    """
    statements: list[list[_Token]] = []
    current: list[_Token] = []
    line, col = 1, 1
    i, n = 0, len(text)

    def end_statement() -> None:
        nonlocal current
        if current:
            statements.append(current)
            current = []

    while i < n:
        ch = text[i]
        if ch in "\r\n":
            i += 1
            if ch == "\r" and i < n and text[i] == "\n":
                i += 1
            end_statement()
            line += 1
            col = 1
            continue
        if ch in " \t":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] not in "\r\n":
                i += 1
                col += 1
            continue
        if ch == "\\":
            # Line continuation: only legal immediately before the newline.
            nxt = text[i + 1] if i + 1 < n else ""
            if nxt in "\r\n":
                i += 2
                if nxt == "\r" and i < n and text[i] == "\n":
                    i += 1
                line += 1
                col = 1
                continue
            diags.append(
                _error(
                    "P001",
                    "stray '\\' (a backslash may only end a line to continue it)",
                    Span(filename, line, col),
                )
            )
            i += 1
            col += 1
            continue
        if ch == '"':
            start = Span(filename, line, col)
            i += 1
            col += 1
            buf: list[str] = []
            terminated = False
            while i < n and text[i] not in "\r\n":
                c = text[i]
                if c == '"':
                    i += 1
                    col += 1
                    terminated = True
                    break
                if c == "\\":
                    if i + 1 < n and text[i + 1] in '"\\':
                        buf.append(text[i + 1])
                        i += 2
                        col += 2
                        continue
                    diags.append(
                        _error(
                            "P001",
                            "unsupported escape (only \\\" and \\\\ are allowed)",
                            Span(filename, line, col),
                        )
                    )
                    i += 1
                    col += 1
                    continue
                buf.append(c)
                i += 1
                col += 1
            if not terminated:
                diags.append(_error("P001", "unterminated string", start))
            current.append(_Token("string", "".join(buf), start.line, start.column))
            continue
        if ch in "=[],":
            current.append(_Token("punct", ch, line, col))
            i += 1
            col += 1
            continue
        if ch in _WORD_CHARS:
            start_col = col
            j = i
            while j < n and text[j] in _WORD_CHARS:
                j += 1
                col += 1
            current.append(_Token("word", text[i:j], line, start_col))
            i = j
            continue
        diags.append(
            _error("P001", f"unknown character {ch!r}", Span(filename, line, col))
        )
        i += 1
        col += 1

    end_statement()
    return statements


class _StatementError(Exception):
    """Internal signal: abort the current statement, diagnostic recorded."""


class _Cursor:
    def __init__(self, tokens: list[_Token], filename: str, diags: list[Diagnostic]):
        self.tokens = tokens
        self.pos = 0
        self.filename = filename
        self.diags = diags

    def at_end(self) -> bool:
        return self.pos >= len(self.tokens)

    def peek(self) -> _Token | None:
        return None if self.at_end() else self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def span_of(self, token: _Token) -> Span:
        return Span(self.filename, token.line, token.column)

    def here(self) -> Span:
        """Span of the next token, or of the last one when input ran out."""
        tok = self.peek() or self.tokens[-1]
        return self.span_of(tok)

    def fail(self, code: str, message: str, span: Span | None = None) -> None:
        self.diags.append(_error(code, message, span or self.here()))
        raise _StatementError


def _parse_value(cur: _Cursor, key: str):
    """Parse one attribute value: a word, a string, or ``[id,...]``.

    Returns (kind, payload, token) where kind mirrors the token structure and
    payload is the decoded value (str or tuple of id strings).
    """
    if cur.at_end():
        cur.fail("P002", f"missing value for '{key}='")
    tok = cur.advance()
    if tok.kind == "string":
        return STRING, tok.value, tok
    if tok.kind == "word":
        return "word", tok.value, tok
    if tok.kind == "punct" and tok.value == "[":
        items: list[str] = []
        open_tok = tok
        while True:
            if cur.at_end():
                cur.fail("P002", f"unclosed '[' in '{key}=' list", cur.span_of(open_tok))
            nxt = cur.advance()
            if nxt.kind == "punct" and nxt.value == "]":
                break
            if items:
                if not (nxt.kind == "punct" and nxt.value == ","):
                    cur.fail("P002", f"expected ',' or ']' in '{key}=' list", cur.span_of(nxt))
                if cur.at_end():
                    cur.fail("P002", f"unclosed '[' in '{key}=' list", cur.span_of(open_tok))
                nxt = cur.advance()
            if not (nxt.kind == "word" and is_valid_identifier(nxt.value)):
                cur.fail("P002", f"expected an identifier in '{key}=' list", cur.span_of(nxt))
            items.append(nxt.value)
        return IDLIST, tuple(items), open_tok
    cur.fail("P002", f"unexpected token after '{key}='", cur.span_of(tok))
    raise AssertionError("unreachable")


def _coerce_value(cur: _Cursor, key: str, spec: Slot, parsed) -> object:
    kind, payload, token = parsed
    span = cur.span_of(token)
    if spec.kind == STRING:
        if kind != STRING:
            cur.fail("P002", f"'{key}=' expects a quoted string", span)
        return payload
    if spec.kind == ID:
        if kind != "word" or not is_valid_identifier(payload):
            cur.fail("P002", f"'{key}=' expects an identifier", span)
        return payload
    if spec.kind == IDLIST:
        if kind != IDLIST:
            cur.fail("P002", f"'{key}=' expects a list like [a,b]", span)
        if spec.nonempty and not payload:
            cur.fail("P002", f"'{key}=' must list at least one id", span)
        return payload
    # enum
    values = ", ".join(spec.members)
    if kind != "word":
        cur.fail("P002", f"'{key}=' expects one of: {values}", span)
    member = spec.members.get(payload)
    if member is None:
        cur.fail(
            "P004",
            f"invalid value '{payload}' for '{key}=' (expected one of: {values})",
            span,
        )
    return member


def _parse_statement(
    tokens: list[_Token], filename: str, diags: list[Diagnostic]
) -> tuple | None:
    """One statement as (keyword, id, attributes keyed by field, span), or
    None when it has an error, which is recorded in ``diags``."""
    cur = _Cursor(tokens, filename, diags)
    try:
        head = cur.advance()
        if head.kind != "word":
            cur.fail("P002", "expected a statement keyword", cur.span_of(head))
        shape = _STATEMENTS.get(head.value)
        if shape is None:
            cur.fail("P002", f"unknown statement '{head.value}'", cur.span_of(head))

        stmt_id: str | None = None
        if shape.has_id:
            if cur.at_end() or cur.peek().kind != "word":
                cur.fail("P002", f"'{head.value}' needs an identifier")
            id_tok = cur.advance()
            if not is_valid_identifier(id_tok.value):
                cur.fail(
                    "P002",
                    f"invalid identifier '{id_tok.value}' (must start with a letter)",
                    cur.span_of(id_tok),
                )
            stmt_id = id_tok.value

        attrs: dict[str, object] = {}
        while not cur.at_end():
            tok = cur.advance()
            if tok.kind == "string":
                if shape.description is None or shape.description in attrs:
                    cur.fail("P002", "unexpected string", cur.span_of(tok))
                attrs[shape.description] = tok.value
                continue
            if tok.kind != "word":
                cur.fail("P002", f"unexpected '{tok.value}'", cur.span_of(tok))
            key = tok.value
            eq = cur.peek()
            if eq is None or not (eq.kind == "punct" and eq.value == "="):
                cur.fail("P002", f"expected '=' after '{key}'", cur.span_of(tok))
            cur.advance()
            spec = shape.keys.get(key)
            if spec is None:
                cur.fail(
                    "P002", f"unknown attribute '{key}' for '{head.value}'", cur.span_of(tok)
                )
            if spec.field in attrs:
                cur.fail("P002", f"duplicate attribute '{key}'", cur.span_of(tok))
            attrs[spec.field] = _coerce_value(cur, key, spec, _parse_value(cur, key))

        if shape.description is not None and shape.description not in attrs:
            cur.fail(
                "P002",
                f"'{head.value}' needs a quoted description",
                cur.span_of(head),
            )
        for key, spec in shape.keys.items():
            if spec.required and spec.field not in attrs:
                cur.fail("P002", f"missing attribute '{key}=' on '{head.value}'", cur.span_of(head))

        return head.value, stmt_id, attrs, Span(filename, head.line, head.column)
    except _StatementError:
        return None


def _assemble(statements: Iterator[tuple | None], diags: list[Diagnostic]) -> ParseResult:
    """Build the model of ``statements`` as :func:`_parse_statement` gives
    them, recording duplicate ids (P003) and a repeated ``model`` header
    (P002) in ``diags``."""
    name, name_span = "", None
    collections: dict[str, list] = {c.name: [] for c in SCHEMA}
    spans: dict[Ref, Span] = {}
    occurrences: dict[tuple, int] = {}
    for statement in statements:
        if not statement:
            continue
        kw, stmt_id, attrs, span = statement
        cls, record_cls, defaults, fields = _CONSTRUCTORS[kw]
        values = [*fields({**defaults, **attrs, "id": stmt_id})]
        if cls is None:
            if name_span is not None:
                diags.append(_error("P002", "model name already declared", span, name_span))
            else:
                name, name_span = values[0], span
        elif stmt_id is not None:
            ref = Ref(cls, stmt_id)
            prior = spans.setdefault(ref, span)
            if prior is not span:
                diags.append(_error("P003", f"duplicate {cls} id '{stmt_id}'", span, prior))
            else:
                # A uca stays a value list until its action's source is known.
                collections[cls].append(values if cls == "uca" else new_record(record_cls, values))
        else:
            element = new_record(record_cls, values)
            # Duplicate assessment cells are a semantic error, not a parse
            # error; keep every declaration, each with its own span.
            cell = (element.action, element.guide_type)
            occurrences[cell] = occurrences.get(cell, 0) + 1
            key = f"{element.action}/{element.guide_type.value}"
            spans[Ref(cls, key if occurrences[cell] == 1 else f"{key}#{occurrences[cell]}")] = span
            collections[cls].append(element)

    # A statement's lexical errors come before its syntax error and assembly
    # reports after both; present everything in source order.
    diags.sort(key=lambda d: (d.span.line, d.span.column) if d.span else (0, 0))

    if has_errors(diags):
        return ParseResult(None, tuple(diags))

    # A uca's source is the source of its action edge, empty without one.
    sources = {e.id: e.source for e in collections["edge"]}
    _, uca_cls, defaults, _ = _CONSTRUCTORS["uca"]
    source, action = map([*defaults].index, ("source", "action"))
    ucas = collections["uca"]
    for index, values in enumerate(ucas):
        values[source] = sources.get(values[action], "")
        ucas[index] = new_record(uca_cls, values)
    # Model's fields: the name, the collections in schema order, the spans.
    model = Model(name, *(tuple(collections[c.name]) for c in SCHEMA), spans)
    return ParseResult(model, tuple(diags))


def _parse_exact(text: str, filename: str) -> ParseResult:
    """Parse through the token lexer; reports every problem it finds."""
    diags: list[Diagnostic] = []
    statements = _lex(text, filename, diags)
    return _assemble(
        (_parse_statement(tokens, filename, diags) for tokens in statements), diags
    )
