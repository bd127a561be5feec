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
``_STATEMENTS``:

* The fast path matches each whole logical statement with one compiled
  pattern (``_STATEMENT_RE``) and reads its items with a second one
  (``_ITEM_RE``). It produces no diagnostics: on anything it does not
  accept as well formed (no match, unknown keyword or attribute, a repeated
  attribute, a value of the wrong kind, an unknown enum value, an empty
  list that must not be empty, a wrong number of descriptions, a missing
  required attribute, a duplicate id, a second ``model`` header) it
  declines, and :func:`parse` starts over on the exact path.
* The exact path lexes the whole document into tokens (``_lex``) and parses
  them statement by statement (``_parse_statement``). It is the only code
  that reports lexical and statement errors (P001, P002, P004), with their
  spans.

Both paths feed the same assembly step, which builds the elements and
reports duplicate ids (P003) and a repeated ``model`` header (P002). A
report there on the fast path also sends the document to the exact path, so
every diagnostic :func:`parse` returns comes from the exact path. When the
fast path accepts a document, its result equals the exact path's result:
the same model, the same ``source_spans``, and no diagnostics.

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
from dataclasses import dataclass, replace
from typing import NamedTuple

from .diagnostics import Diagnostic, Severity, Span, has_errors
from .model import (
    Assessment,
    BoundaryStage,
    Edge,
    EdgeKind,
    GuideType,
    Hazard,
    Loss,
    LossCategory,
    LossScenario,
    Model,
    NOT_HAZARDOUS,
    Node,
    NodeKind,
    Ref,
    SafetyRequirement,
    ScenarioClass,
    SystemBoundary,
    Uca,
    UcaCategory,
    assessment_key,
    is_valid_identifier,
)

_WORD_CHARS = frozenset(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_-"
)


@dataclass(frozen=True)
class ParseResult:
    """Outcome of :func:`parse`: ``model`` is present iff no error
    diagnostics were produced."""

    model: Model | None
    diagnostics: tuple[Diagnostic, ...]


@dataclass(frozen=True)
class _Token:
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

# Value kinds a key may take: an identifier, a quoted string, an id list, or
# a member of an enum class.
_ID = "id"
_STRING = "string"
_IDLIST = "idlist"


@dataclass(frozen=True)
class _KeySpec:
    kind: str  # _ID | _STRING | _IDLIST | _ENUM (with its values in .members)
    members: dict[str, object] | None = None  # enum value text -> member
    required: bool = True
    nonempty: bool = False  # idlist must not be empty


_ENUM = "enum"


def _enum(enum_cls: type, required: bool = True) -> _KeySpec:
    members = {member.value: member for member in enum_cls}  # type: ignore[attr-defined]
    return _KeySpec(_ENUM, members, required)


_STATEMENTS: dict[str, dict] = {
    "model": {"has_id": False, "positionals": 1, "keys": {}},
    "loss": {
        "has_id": True,
        "positionals": 1,
        "keys": {"category": _enum(LossCategory)},
    },
    "boundary": {
        "has_id": True,
        "positionals": 1,
        "keys": {
            "stage": _enum(BoundaryStage, required=False),
            "includes": _KeySpec(_IDLIST, required=False),
        },
    },
    "node": {
        "has_id": True,
        "positionals": 1,
        "keys": {
            "kind": _enum(NodeKind),
            "process_model": _KeySpec(_STRING, required=False),
            "control_algorithm": _KeySpec(_STRING, required=False),
        },
    },
    "action": {
        "has_id": True,
        "positionals": 1,
        "keys": {"from": _KeySpec(_ID), "to": _KeySpec(_ID)},
    },
    "feedback": {
        "has_id": True,
        "positionals": 1,
        "keys": {"from": _KeySpec(_ID), "to": _KeySpec(_ID)},
    },
    "iolink": {
        "has_id": True,
        "positionals": 1,
        "keys": {"from": _KeySpec(_ID), "to": _KeySpec(_ID)},
    },
    "hazard": {
        "has_id": True,
        "positionals": 1,
        "keys": {
            "boundary": _KeySpec(_ID),
            "leads_to": _KeySpec(_IDLIST, nonempty=True),
        },
    },
    "uca": {
        "has_id": True,
        "positionals": 0,
        "keys": {
            "action": _KeySpec(_ID),
            "type": _enum(GuideType),
            "category": _enum(UcaCategory),
            "context": _KeySpec(_STRING),
            "hazards": _KeySpec(_IDLIST, nonempty=True),
        },
    },
    "scenario": {
        "has_id": True,
        "positionals": 1,
        "keys": {
            "uca": _KeySpec(_ID),
            "class": _enum(ScenarioClass),
            "elements": _KeySpec(_IDLIST, required=False),
        },
    },
    "requirement": {
        "has_id": True,
        "positionals": 1,
        "keys": {"scenarios": _KeySpec(_IDLIST, nonempty=True)},
    },
    "assess": {
        "has_id": False,
        "positionals": 0,
        "keys": {
            "action": _KeySpec(_ID),
            "type": _enum(GuideType),
            "verdict": _KeySpec(_ENUM, {NOT_HAZARDOUS: NOT_HAZARDOUS}),
            "rationale": _KeySpec(_STRING),
        },
    },
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
        return _STRING, tok.value, tok
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
        return _IDLIST, tuple(items), open_tok
    cur.fail("P002", f"unexpected token after '{key}='", cur.span_of(tok))
    raise AssertionError("unreachable")


def _coerce_value(cur: _Cursor, key: str, spec: _KeySpec, parsed) -> object:
    kind, payload, token = parsed
    span = cur.span_of(token)
    if spec.kind == _STRING:
        if kind != _STRING:
            cur.fail("P002", f"'{key}=' expects a quoted string", span)
        return payload
    if spec.kind == _ID:
        if kind != "word" or not is_valid_identifier(payload):
            cur.fail("P002", f"'{key}=' expects an identifier", span)
        return payload
    if spec.kind == _IDLIST:
        if kind != _IDLIST:
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


class _RawStatement(NamedTuple):
    keyword: str
    id: str | None
    positionals: list[str]
    attrs: dict[str, object]
    span: Span


def _parse_statement(
    tokens: list[_Token], filename: str, diags: list[Diagnostic]
) -> _RawStatement | None:
    cur = _Cursor(tokens, filename, diags)
    try:
        head = cur.advance()
        if head.kind != "word":
            cur.fail("P002", "expected a statement keyword", cur.span_of(head))
        shape = _STATEMENTS.get(head.value)
        if shape is None:
            cur.fail("P002", f"unknown statement '{head.value}'", cur.span_of(head))

        stmt_id: str | None = None
        if shape["has_id"]:
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

        positionals: list[str] = []
        attrs: dict[str, object] = {}
        keys: dict[str, _KeySpec] = shape["keys"]
        while not cur.at_end():
            tok = cur.advance()
            if tok.kind == "string":
                if len(positionals) >= shape["positionals"]:
                    cur.fail("P002", "unexpected string", cur.span_of(tok))
                positionals.append(tok.value)
                continue
            if tok.kind != "word":
                cur.fail("P002", f"unexpected '{tok.value}'", cur.span_of(tok))
            key = tok.value
            eq = cur.peek()
            if eq is None or not (eq.kind == "punct" and eq.value == "="):
                cur.fail("P002", f"expected '=' after '{key}'", cur.span_of(tok))
            cur.advance()
            spec = keys.get(key)
            if spec is None:
                cur.fail(
                    "P002", f"unknown attribute '{key}' for '{head.value}'", cur.span_of(tok)
                )
            if key in attrs:
                cur.fail("P002", f"duplicate attribute '{key}'", cur.span_of(tok))
            attrs[key] = _coerce_value(cur, key, spec, _parse_value(cur, key))

        if len(positionals) < shape["positionals"]:
            cur.fail(
                "P002",
                f"'{head.value}' needs a quoted description",
                cur.span_of(head),
            )
        for key, spec in keys.items():
            if spec.required and key not in attrs:
                cur.fail("P002", f"missing attribute '{key}=' on '{head.value}'", cur.span_of(head))

        return _RawStatement(
            head.value, stmt_id, positionals, attrs, Span(filename, head.line, head.column)
        )
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
_BREAK = r"(?:\r\n|\r(?!\n)|\n)"
# Blanks and continuations. Like the lexer, a backslash at the very end of
# the input counts as a continuation.
_GAP = rf"[ \t]*(?:\\(?:{_BREAK}|\Z)[ \t]*)*"
_BLANK_LINES = rf"(?:[ \t]*(?:#[^\r\n]*|\\)?{_BREAK})*"

#: One logical statement, with the blank and comment lines before it.
_STATEMENT_RE = re.compile(
    rf"(?P<lead>{_BLANK_LINES})[ \t]*"
    rf"(?P<keyword>{_WORD})(?:{_GAP}(?P<id>{_IDENT}))?"
    rf"(?P<body>(?:{_GAP}(?:{_QUOTED}|{_WORD}{_GAP}={_GAP}"
    rf"(?:{_QUOTED}|{_WORD}|\[{_GAP}(?:{_IDENT}{_GAP}(?:,{_GAP}{_IDENT}{_GAP})*)?\])))*)"
    rf"{_GAP}(?:#[^\r\n]*)?(?:{_BREAK}|\Z)"
)
#: What may follow the last statement.
_TRAILER_RE = re.compile(rf"{_BLANK_LINES}[ \t]*(?:#[^\r\n]*|\\)?")
#: One item of a matched statement body: a description, or a key and value.
_ITEM_RE = re.compile(
    rf"({_QUOTED})|({_WORD}){_GAP}={_GAP}({_QUOTED}|{_WORD}|\[[^\]]*\])"
)
_LIST_ITEM_RE = re.compile(_WORD)
_ESCAPE_RE = re.compile(r'\\(["\\])')


class _FastShape(NamedTuple):
    has_id: bool
    positionals: int
    keys: dict[str, _KeySpec]
    required: frozenset[str]


_FAST_SHAPES = {
    keyword: _FastShape(
        shape["has_id"],
        shape["positionals"],
        shape["keys"],
        frozenset(key for key, spec in shape["keys"].items() if spec.required),
    )
    for keyword, shape in _STATEMENTS.items()
}


class _Decline(Exception):
    """Internal signal: the fast path leaves this document to the exact path."""


def _unquote(quoted: str) -> str:
    text = quoted[1:-1]
    return _ESCAPE_RE.sub(r"\1", text) if "\\" in text else text


def _fast_statements(text: str, filename: str) -> Iterator[_RawStatement]:
    """The statements of a well-formed document, or :class:`_Decline`."""
    def breaks(start: int, end: int) -> int:
        return (
            text.count("\n", start, end)
            + text.count("\r", start, end)
            - text.count("\r\n", start, end)
        )

    match_statement = _STATEMENT_RE.match
    items = _ITEM_RE.findall
    pos, line = 0, 1
    while (m := match_statement(text, pos)) is not None:
        keyword, stmt_id = m.group("keyword", "id")
        shape = _FAST_SHAPES.get(keyword)
        if shape is None or shape.has_id != (stmt_id is not None):
            raise _Decline
        keys = shape.keys
        positionals: list[str] = []
        attrs: dict[str, object] = {}
        for positional, key, value in items(text, *m.span("body")):
            if positional:
                positionals.append(_unquote(positional))
                continue
            spec = keys.get(key)
            if spec is None or key in attrs:
                raise _Decline
            # The first character tells the value's kind: '"' a string,
            # '[' a list, a letter an identifier or enum word.
            kind, first = spec.kind, value[0]
            if kind == _STRING:
                if first != '"':
                    raise _Decline
                value = _unquote(value)
            elif kind == _IDLIST:
                if first != "[":
                    raise _Decline
                value = tuple(_LIST_ITEM_RE.findall(value))
                if spec.nonempty and not value:
                    raise _Decline
            elif not first.isalpha():
                raise _Decline
            elif spec.members is not None:
                value = spec.members.get(value)
                if value is None:
                    raise _Decline
            attrs[key] = value
        if len(positionals) != shape.positionals or not shape.required <= attrs.keys():
            raise _Decline
        line_start, head = m.end("lead"), m.start("keyword")
        line += breaks(pos, line_start)
        yield _RawStatement(
            keyword, stmt_id, positionals, attrs, Span(filename, line, head - line_start + 1)
        )
        pos = m.end()
        line += breaks(head, pos)
    if _TRAILER_RE.fullmatch(text, pos) is None:
        raise _Decline


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _edge_constructor(kind: EdgeKind) -> Callable:
    return lambda i, p, a: Edge(i, kind, a["from"], a["to"], p[0])


#: Element class and constructor, from (id, descriptions, attributes), of
#: each keyword that declares an element with an id.
_CONSTRUCTORS: dict[str, tuple[str, Callable]] = {
    "loss": ("loss", lambda i, p, a: Loss(i, p[0], a["category"])),
    "boundary": (
        "boundary",
        lambda i, p, a: SystemBoundary(i, p[0], a.get("stage"), a.get("includes", ())),
    ),
    "node": (
        "node",
        lambda i, p, a: Node(
            i, p[0], a["kind"], a.get("process_model"), a.get("control_algorithm")
        ),
    ),
    **{kw: ("edge", _edge_constructor(kind)) for kw, kind in _EDGE_KINDS.items()},
    "hazard": ("hazard", lambda i, p, a: Hazard(i, p[0], a["boundary"], a["leads_to"])),
    # The uca source is derived from its action edge once all edges are known.
    "uca": (
        "uca",
        lambda i, p, a: Uca(
            i, "", a["action"], a["type"], a["category"], a["context"], a["hazards"]
        ),
    ),
    "scenario": (
        "scenario",
        lambda i, p, a: LossScenario(i, a["uca"], a["class"], p[0], a.get("elements", ())),
    ),
    "requirement": (
        "requirement",
        lambda i, p, a: SafetyRequirement(i, a["scenarios"], p[0]),
    ),
}


def _assemble(
    statements: Iterable[_RawStatement | None], diags: list[Diagnostic]
) -> ParseResult:
    """Build the model from parsed statements, reporting duplicate ids and
    a repeated ``model`` header into ``diags``."""
    name = ""
    name_span: Span | None = None
    collections: dict[str, list] = {cls: [] for cls in (
        "loss", "boundary", "hazard", "node", "edge",
        "uca", "scenario", "requirement", "assessment",
    )}
    spans: dict[Ref, Span] = {}

    for raw in statements:
        if raw is None:
            continue
        kw, span = raw.keyword, raw.span
        if kw == "model":
            if name_span is not None:
                diags.append(_error("P002", "model name already declared", span, name_span))
                continue
            name = raw.positionals[0]
            name_span = span
        elif kw == "assess":
            assessment = Assessment(
                raw.attrs["action"], raw.attrs["type"], raw.attrs["rationale"]
            )
            # Duplicate cells are a semantic error, not a parse error; keep
            # every declaration. Spans live under the synthetic cell key,
            # with an occurrence suffix for duplicates so each declaration
            # keeps its own span.
            collections["assessment"].append(assessment)
            key = assessment_key(assessment)
            ref = Ref("assessment", key)
            occurrence = 2
            while ref in spans:
                ref = Ref("assessment", f"{key}#{occurrence}")
                occurrence += 1
            spans[ref] = span
        else:
            cls, build = _CONSTRUCTORS[kw]
            ref = Ref(cls, raw.id)
            prior = spans.get(ref)
            if prior is not None:
                diags.append(_error("P003", f"duplicate {cls} id '{raw.id}'", span, prior))
                continue
            spans[ref] = span
            collections[cls].append(build(raw.id, raw.positionals, raw.attrs))

    # Lexical errors are found in a separate pass; present everything in
    # source order.
    diags.sort(key=lambda d: (d.span.line, d.span.column) if d.span else (0, 0))

    if has_errors(diags):
        return ParseResult(None, tuple(diags))

    edge_by_id = {e.id: e for e in collections["edge"]}
    ucas = tuple(
        replace(u, source=edge_by_id[u.action].source) if u.action in edge_by_id else u
        for u in collections["uca"]
    )

    model = Model(
        name=name,
        losses=tuple(collections["loss"]),
        boundaries=tuple(collections["boundary"]),
        hazards=tuple(collections["hazard"]),
        nodes=tuple(collections["node"]),
        edges=tuple(collections["edge"]),
        ucas=ucas,
        scenarios=tuple(collections["scenario"]),
        requirements=tuple(collections["requirement"]),
        assessments=tuple(collections["assessment"]),
        source_spans=spans,
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


def serialize(model: Model) -> str:
    """Render a model in canonical form.

    Statement classes appear in a fixed order, declarations keep their order
    within each class, and spacing and quoting are normalized, so equal
    models serialize to byte-equal documents.
    """
    lines: list[str] = []
    if model.name:
        lines.append(f"model {_quote(model.name)}")
    for loss in model.losses:
        lines.append(
            f"loss {_ident(loss.id)} {_quote(loss.description)} "
            f"category={loss.category.value}"
        )
    for boundary in model.boundaries:
        parts = [f"boundary {_ident(boundary.id)} {_quote(boundary.name)}"]
        if boundary.stage is not None:
            parts.append(f"stage={boundary.stage.value}")
        if boundary.includes:
            parts.append(f"includes={_idlist(boundary.includes)}")
        lines.append(" ".join(parts))
    for hazard in model.hazards:
        lines.append(
            f"hazard {_ident(hazard.id)} {_quote(hazard.description)} "
            f"boundary={_ident(hazard.boundary)} leads_to={_idlist(hazard.leads_to)}"
        )
    for node in model.nodes:
        parts = [f"node {_ident(node.id)} {_quote(node.name)} kind={node.kind.value}"]
        if node.process_model is not None:
            parts.append(f"process_model={_quote(node.process_model)}")
        if node.control_algorithm is not None:
            parts.append(f"control_algorithm={_quote(node.control_algorithm)}")
        lines.append(" ".join(parts))
    for edge in model.edges:
        lines.append(
            f"{_EDGE_KEYWORDS[edge.kind]} {_ident(edge.id)} "
            f"from={_ident(edge.source)} to={_ident(edge.target)} {_quote(edge.label)}"
        )
    for uca in model.ucas:
        lines.append(
            f"uca {_ident(uca.id)} action={_ident(uca.action)} "
            f"type={uca.guide_type.value} category={uca.category.value} "
            f"context={_quote(uca.context)} hazards={_idlist(uca.hazards)}"
        )
    for scenario in model.scenarios:
        parts = [
            f"scenario {_ident(scenario.id)} uca={_ident(scenario.uca)} "
            f"class={scenario.scenario_class.value} {_quote(scenario.description)}"
        ]
        if scenario.elements:
            parts.append(f"elements={_idlist(scenario.elements)}")
        lines.append(" ".join(parts))
    for requirement in model.requirements:
        lines.append(
            f"requirement {_ident(requirement.id)} "
            f"scenarios={_idlist(requirement.scenarios)} {_quote(requirement.text)}"
        )
    for assessment in model.assessments:
        lines.append(
            f"assess action={_ident(assessment.action)} "
            f"type={assessment.guide_type.value} verdict={assessment.verdict} "
            f"rationale={_quote(assessment.rationale)}"
        )
    return "".join(line + "\n" for line in lines)
