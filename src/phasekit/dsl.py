"""Parser and serializer for the PHASE text format.

The grammar is line oriented: one declaration per statement, statements end
at a newline unless the newline is escaped with a trailing backslash.
Comments run from ``#`` to the end of the physical line. Strings are double
quoted and support exactly two escapes, ``\\"`` and ``\\\\``; a raw newline
inside a string is a lexical error, so every value a parsed model can hold is
representable on one line.

Parsing is total: it never raises on malformed input, it accumulates
diagnostics and keeps going. Duplicate ids are parse errors (fail fast);
dangling references are deferred to semantic validation so a partially
written model can still be explored.

:func:`parse` has two paths over the same statement table,
``_STATEMENTS``, which is derived from the schema table
:data:`phasekit.model.SCHEMA` like the element constructors and the
serializer:

* The fast path reads each whole logical statement with one match of one
  compiled pattern (``_STATEMENT_RE``), whose groups hold the keyword, the
  id and, item by item, each key and value, up to ``_MAX_ITEMS`` items (the
  most written slots of any class); only an id list is checked again, by
  ``_LIST_RE``. It produces no diagnostics: on anything it does not accept
  as well formed (no match, as for a statement of more items, unknown
  keyword or attribute, a repeated attribute or description, a keyless
  item that is not a quoted description, a value of the wrong kind, an
  unknown enum value, an empty list that must not be empty, a missing
  required attribute, a duplicate id, a second ``model`` header) it
  declines, and :func:`parse` starts over on the exact path.
* The exact path lexes the whole document into tokens (``_lex``) and parses
  them statement by statement (``_parse_statement``). It is the only code
  that reports lexical and statement errors (P001, P002, P004), with their
  spans.

Both paths hand the same assembly step (keyword, id, attributes, span)
tuples; it builds the elements and reports duplicate ids (P003) and a
repeated ``model`` header (P002). A report there on the fast path also
sends the document to the exact path, so every diagnostic :func:`parse`
returns comes from the exact path. When the fast path accepts a document,
its result equals the exact path's result: the same model, the same
``source_spans``, and no diagnostics.

Diagnostic codes:

=====  =================================================
P001   lexical error (unknown character, bad escape, unterminated string)
P002   syntax error (malformed statement)
P003   duplicate id within an element class
P004   invalid enumeration value
=====  =================================================
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterable, Iterator
from dataclasses import fields
from operator import attrgetter, itemgetter
from typing import NamedTuple

from .diagnostics import Diagnostic, Severity, Span, has_errors, record
from .model import (
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
    Uca,
    assessment_ref,
    is_valid_identifier,
)

_WORD_CHARS = frozenset(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_-"
)


@record
class ParseResult:
    """Outcome of :func:`parse`: ``model`` is present iff no error
    diagnostics were produced."""

    model: Model | None
    diagnostics: tuple[Diagnostic, ...]


class _Token(NamedTuple):
    kind: str  # "word" | "string" | "punct"
    value: str
    line: int
    column: int


def _error(code: str, message: str, span: Span, related: Span | None = None) -> Diagnostic:
    return Diagnostic(Severity.ERROR, code, message, span, related)


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# Statement grammar table
# ---------------------------------------------------------------------------

class _Shape(NamedTuple):
    """What a statement keyword takes, derived from the schema table."""

    has_id: bool
    description: str | None  # field of the quoted description
    keys: dict[str, Slot]
    required: frozenset[str]  # fields of the description and required keys


def _shape(element_class: ElementClass) -> _Shape:
    keys = {s.key: s for s in element_class.slots if s.key not in (None, DESCRIPTION)}
    return _Shape(
        bool(element_class.identity),
        next((s.field for s in element_class.slots if s.key == DESCRIPTION), None),
        keys,
        frozenset(s.field for s in element_class.slots if s.key is not None and s.required),
    )


_STATEMENTS: dict[str, _Shape] = {
    "model": _Shape(False, "name", {}, frozenset({"name"})),
    **{kw: _shape(c) for c in SCHEMA for kw in c.keywords},
}

_EDGE_KINDS = {
    "action": EdgeKind.CONTROL_ACTION,
    "feedback": EdgeKind.FEEDBACK,
    "iolink": EdgeKind.IO_LINK,
}
_EDGE_KEYWORDS = {kind: kw for kw, kind in _EDGE_KINDS.items()}


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


# ---------------------------------------------------------------------------
# Fast path
# ---------------------------------------------------------------------------

# Every word subpattern ends in a negative lookahead, so a word only ever
# matches whole, as the lexer reads it. Without it, items written with no
# space between them (``a=b=c=...``) can be split in exponentially many ways
# before the pattern gives up.
_W = "[A-Za-z0-9_-]"
_WORD = rf"{_W}+(?!{_W})"
_IDENT = rf"[A-Za-z]{_W}*(?!{_W})"
_QUOTED = r'"[^"\\\r\n]*(?:\\["\\][^"\\\r\n]*)*"'
# A lone \r must not match the first half of \r\n, or line counts would
# depend on where a match happened to split it.
_BREAK = r"\r\n|\r(?!\n)|\n"
_END = rf"(?:{_BREAK}|\Z)"
# Blanks and continuations. Like the lexer, a backslash at the very end of
# the input counts as a continuation.
_GAP = rf"[ \t]*(?:\\{_END}[ \t]*)*"
_BLANK_LINES = rf"(?:[ \t]*(?:#[^\r\n]*|\\)?(?:{_BREAK}))*"

#: Most items one statement holds: the most written slots of any class.
_MAX_ITEMS = max(sum(s.key is not None for s in c.slots) for c in SCHEMA)
# One item: a value with its key, or a description (a keyless value). A list
# is only delimited here; _LIST_RE checks what it holds.
_ITEM = rf"{_GAP}(?:({_WORD}){_GAP}={_GAP})?({_QUOTED}|{_WORD}|\[[^\]]*\])"
#: One logical statement, with the blank and comment lines before it: groups
#: lead, keyword and id, then a key and a value per item. Each item is nested
#: in the one before it, so the items present are the first ones.
_STATEMENT_RE = re.compile(
    rf"({_BLANK_LINES})[ \t]*({_WORD})(?:{_GAP}({_IDENT}))?"
    + f"(?:{_ITEM}" * _MAX_ITEMS + ")?" * _MAX_ITEMS
    + rf"{_GAP}(?:#[^\r\n]*)?{_END}"
)
#: Where each item's key is in the statement's groups; its value follows.
_KEY_GROUPS = range(3, 3 + 2 * _MAX_ITEMS, 2)
#: What may follow the last statement.
_TRAILER_RE = re.compile(rf"{_BLANK_LINES}[ \t]*(?:#[^\r\n]*|\\)?")
#: An id list as the exact path reads it: ids, commas, blanks, continuations.
_LIST_RE = re.compile(rf"\[{_GAP}(?:{_IDENT}{_GAP}(?:,{_GAP}{_IDENT}{_GAP})*)?\]")
_LIST_ITEM_RE = re.compile(_WORD)
_ESCAPE_RE = re.compile(r'\\(["\\])')


class _Decline(Exception):
    """Internal signal: the fast path leaves this document to the exact path."""


def _unquote(quoted: str) -> str:
    text = quoted[1:-1]
    # A callable, not the template r"\1", keeps the substitution in C.
    return _ESCAPE_RE.sub(itemgetter(1), text) if "\\" in text else text


def _fast_statements(text: str, filename: str) -> Iterator[tuple]:
    """The statements of a well-formed document as :func:`_parse_statement`
    gives them, or :class:`_Decline`."""
    count = text.count
    crlf = "\r" in text
    match_statement = _STATEMENT_RE.match
    # ``line`` is the number of the line that starts at ``line_start``.
    pos, line, line_start = 0, 1, 0
    while (m := match_statement(text, pos)) is not None:
        groups = m.groups()
        keyword, stmt_id = groups[1], groups[2]
        shape = _STATEMENTS.get(keyword)
        if shape is None or shape.has_id != (stmt_id is not None):
            raise _Decline
        keys = shape.keys
        attrs: dict[str, object] = {}
        for i in _KEY_GROUPS:
            key, value = groups[i], groups[i + 1]
            if value is None:
                break
            # The first character tells the value's kind: '"' a string,
            # '[' a list, a letter an identifier or enum word.
            first = value[0]
            if key is None:
                if first != '"' or shape.description is None or shape.description in attrs:
                    raise _Decline
                attrs[shape.description] = _unquote(value)
                continue
            spec = keys.get(key)
            if spec is None:
                raise _Decline
            field, _, kind, members, _, _, nonempty = spec
            if field in attrs:
                raise _Decline
            if kind == STRING:
                if first != '"':
                    raise _Decline
                value = _unquote(value)
            elif kind == IDLIST:
                if first != "[" or _LIST_RE.fullmatch(value) is None:
                    raise _Decline
                value = tuple(_LIST_ITEM_RE.findall(value))
                if nonempty and not value:
                    raise _Decline
            elif not first.isalpha():
                raise _Decline
            elif members is not None:
                value = members.get(value)
                if value is None:
                    raise _Decline
            attrs[field] = value
        if not shape.required <= attrs.keys():
            raise _Decline
        # Line breaks from the previous statement's line to this one's.
        start = m.end(1)
        line += count("\n", line_start, start)
        if crlf:
            line += count("\r", line_start, start) - count("\r\n", line_start, start)
        line_start = start
        yield keyword, stmt_id, attrs, Span(filename, line, m.start(2) - line_start + 1)
        pos = m.end()
    if _TRAILER_RE.fullmatch(text, pos) is None:
        raise _Decline


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _constructor(element_class: ElementClass, keyword: str) -> Callable | None:
    """Builds an element from its id and its attributes keyed by field; None
    for a uca, which :func:`_assemble` builds once all edges are known."""
    cls = element_class.type
    if not element_class.identity:
        return lambda i, a: cls(**a)
    if element_class.name == "uca":
        return None
    if keyword in _EDGE_KINDS:  # the edge kind comes from the keyword
        kind = _EDGE_KINDS[keyword]
        return lambda i, a: cls(i, kind, **a)
    return lambda i, a: cls(i, **a)


#: Element class and constructor of each element keyword.
_CONSTRUCTORS: dict[str, tuple[ElementClass, Callable | None]] = {
    kw: (c, _constructor(c, kw)) for c in SCHEMA for kw in c.keywords
}


def _assemble(statements: Iterable[tuple | None], diags: list[Diagnostic]) -> ParseResult:
    """Build the model from parsed statements, reporting duplicate ids and
    a repeated ``model`` header into ``diags``."""
    name = ""
    name_span: Span | None = None
    collections: dict[str, list] = {c.name: [] for c in SCHEMA}
    spans: dict[Ref, Span] = {}
    occurrences: dict[tuple, int] = {}
    new_ref = tuple.__new__  # Ref's own __new__ only packs its arguments

    for statement in statements:
        if statement is None:
            continue
        kw, stmt_id, attrs, span = statement
        if kw == "model":
            if name_span is not None:
                diags.append(_error("P002", "model name already declared", span, name_span))
                continue
            name = attrs["name"]
            name_span = span
            continue
        element_class, build = _CONSTRUCTORS[kw]
        if element_class.identity:
            ref = new_ref(Ref, (element_class.name, stmt_id))
            prior = spans.get(ref)
            if prior is not None:
                diags.append(
                    _error("P003", f"duplicate {ref.cls} id '{stmt_id}'", span, prior)
                )
                continue
            # A uca stays a statement until its action's source is known.
            element = statement if build is None else build(stmt_id, attrs)
        else:
            element = build(stmt_id, attrs)
            # Duplicate assessment cells are a semantic error, not a parse
            # error; keep every declaration, each with its own span.
            cell = (element.action, element.guide_type)
            occurrences[cell] = occurrences.get(cell, 0) + 1
            ref = assessment_ref(*cell, occurrences[cell])
        spans[ref] = span
        collections[element_class.name].append(element)

    # Lexical errors are found in a separate pass; present everything in
    # source order.
    diags.sort(key=lambda d: (d.span.line, d.span.column) if d.span else (0, 0))

    if has_errors(diags):
        return ParseResult(None, tuple(diags))

    # A uca's source is the source of its action edge, empty without one.
    sources = {e.id: e.source for e in collections["edge"]}
    collections["uca"] = [
        Uca(uca_id, sources.get(attrs["action"], ""), **attrs)
        for _, uca_id, attrs, _ in collections["uca"]
    ]
    model = Model(
        name=name,
        source_spans=spans,
        **{c.collection: tuple(collections[c.name]) for c in SCHEMA},
    )
    return ParseResult(model, tuple(diags))


def _parse_exact(text: str, filename: str) -> ParseResult:
    """Parse through the token lexer; reports every problem it finds."""
    diags: list[Diagnostic] = []
    statements = _lex(text, filename, diags)
    return _assemble(
        (_parse_statement(tokens, filename, diags) for tokens in statements), diags
    )


def parse(text: str, filename: str = "<input>") -> ParseResult:
    """Parse a PHASE document.

    Never raises on malformed input: every problem becomes a diagnostic with
    a span into ``text``. The model is returned only when there are no
    error-severity diagnostics.
    """
    diags: list[Diagnostic] = []
    try:
        result = _assemble(_fast_statements(text, filename), diags)
    except _Decline:
        pass
    else:
        if not diags:
            return result
    return _parse_exact(text, filename)


def parse_file(path: str) -> ParseResult:
    with open(path, encoding="utf-8") as handle:
        return parse(handle.read(), path)


# ---------------------------------------------------------------------------
# Serializer
# ---------------------------------------------------------------------------


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
    defaults = {f.name: f.default for f in fields(element_class.type)}
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
