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

:func:`parse` reads the document in one loop, statement by statement. One
table derived from :data:`phasekit.model.SCHEMA`, ``_STATEMENTS``, says per
keyword which keys a statement takes and requires, and holds a template of
its fields; both readers below consult it and fill a copy of the template by
field name:

* The fast match reads a whole logical statement with one match of one
  compiled pattern (``_STATEMENT_RE``), whose groups hold the keyword, the
  id and, item by item, each key and value, up to ``_MAX_ITEMS`` items (the
  most written slots of any class), through a plan per statement shape
  (``_PLANS``) that checks the keys once, so a statement only converts its
  values. It reports nothing: a statement it does not accept as well formed
  (no match, an unknown keyword or attribute, a repeated item, a value of the
  wrong kind, a missing required attribute) is declined.
* The token fallback reads a declined statement alone: ``_TOKEN_RE`` splits
  it into tokens (``_tokenize``) and ``_parse_statement`` walks them. It is
  the only code that reports lexical and statement errors (P001, P002,
  P004), with their spans. The fast match resumes at the next statement.

The loop builds every element in one place, its ``__dict__`` the fields
filled in, and keeps only its keyword's offset, in a list per class parallel
to the collection; duplicate ids (P003) and a repeated ``model`` header
(P002) are found after it. One resolver, ``_Spans.at``, gives every span,
the token fallback's too, from an offset and a table of line starts built on
first need. A parsed model's ``source_spans`` is a ``_Spans``: its first read
builds one table from each declaration's (class, name) to its offset, and a
span is resolved only when it is read.

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
from bisect import bisect_right
from collections.abc import Callable, Mapping
from itertools import chain
from operator import attrgetter, itemgetter
from typing import NamedTuple

from .diagnostics import Diagnostic, Severity, Span, has_errors, record
from .model import (
    DESCRIPTION,
    EDGE_KEYWORDS,
    ID,
    IDENT,
    IDENT_CHAR,
    IDENT_LINES_RE,
    IDLIST,
    MODEL_NAME,
    SCHEMA,
    STRING,
    ElementClass,
    Model,
    Ref,
    Slot,
    declared_names,
    enum_text,
    is_valid_identifier,
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
    offset: int


def _error(code: str, message: str, span: Span, related: Span | None = None) -> Diagnostic:
    return Diagnostic(Severity.ERROR, code, message, span, related)


# ---------------------------------------------------------------------------
# Statement table
# ---------------------------------------------------------------------------

class _Statement(NamedTuple):
    """What a statement keyword takes and builds, derived from the schema
    table. A statement fills a copy of ``template`` by field name."""

    cls: str | None  # element class name; None for the model header
    type: type | None  # record class
    has_id: bool
    keys: dict[str | None, Slot]  # None: the description
    required: tuple[str | None, ...]  # reported missing in order: the description, then slots
    template: dict[str, object]  # each field's default; an edge's kind is its keyword's


def _statement(element_class: ElementClass, keyword: str) -> _Statement:
    template = {f.name: f.default for f in element_class.type.__record_fields__}
    if keyword in EDGE_KEYWORDS:
        template["kind"] = EDGE_KEYWORDS[keyword]
    # The description first; the sort is stable, so the rest keep slot order.
    slots = sorted((s for s in element_class.slots if s.key), key=lambda s: s.key != DESCRIPTION)
    keys = {None if s.key == DESCRIPTION else s.key: s for s in slots}
    required = tuple(key for key, slot in keys.items() if slot.required)
    return _Statement(element_class.name, element_class.type, bool(element_class.identity),
                      keys, required, template)


#: Per statement keyword, read by the plans and the token fallback alike.
_STATEMENTS: dict[str, _Statement] = {
    "model": _Statement(None, None, False, {None: MODEL_NAME}, (None,), {"name": ""}),
    **{kw: _statement(c, kw) for c in SCHEMA for kw in c.keywords},
}


# ---------------------------------------------------------------------------
# Patterns
# ---------------------------------------------------------------------------

# The repeats are possessive (``++``, ``*+``, Python 3.11 and later), as in
# ``IDENT``: what one has matched is never given back. So a word only ever
# matches whole, as the tokenizer reads it, with no lookahead after each, and
# items written with no space between them (``a=b=c=...``) cannot be split in
# exponentially many ways before the pattern gives up.
_WORD = rf"{IDENT_CHAR}++"
_QUOTED = r'"[^"\\\r\n]*+(?:\\["\\][^"\\\r\n]*+)*+"'
# A lone \r must not match the first half of \r\n, or a statement could end
# between the two and the next one begin inside a line break.
_BREAK = r"\r\n|\r(?!\n)|\n"
_END = rf"(?:{_BREAK}|\Z)"
# Blanks and continuations. A backslash at the very end of the input counts
# as a continuation.
_GAP = rf"[ \t]*+(?:\\{_END}[ \t]*+)*+"
_BLANK_LINES = rf"(?:[ \t]*+(?:#[^\r\n]*+|\\)?(?:{_BREAK}))*+"

#: Most items one statement holds: the most written slots of any class.
_MAX_ITEMS = max(sum(s.key is not None for s in c.slots) for c in SCHEMA)
# One item: a value with its key, or a description (a keyless value). A list
# is only delimited here; _LIST_RE checks what it holds.
_ITEM = rf"{_GAP}(?:({_WORD}){_GAP}={_GAP}|)({_QUOTED}|{_WORD}|\[[^\]]*\])"
#: One logical statement, with the blank and comment lines before it: groups
#: lead, keyword and id, then a key and a value per item. Each item is nested
#: in the one before it: the items present are the first, the last one's value
#: is the last group matched. ``(?:X|)``, unlike ``(?:X)?``, sets up no repeat.
_STATEMENT_RE = re.compile(
    rf"({_BLANK_LINES})[ \t]*({_WORD})(?:{_GAP}({IDENT})|)"
    + f"(?:{_ITEM}" * _MAX_ITEMS + "|)" * _MAX_ITEMS
    + rf"{_GAP}(?:#[^\r\n]*)?{_END}"
)
#: An id list as the token parser reads it: ids, commas, blanks, continuations.
_LIST_RE = re.compile(rf"\[{_GAP}(?:{IDENT}{_GAP}(?:,{_GAP}{IDENT}{_GAP})*)?\]")
_LIST_ITEM_RE = re.compile(_WORD)
_BREAK_RE = re.compile(_BREAK)
#: A backslash in a string and the character it escapes, none when that is
#: not '"' or '\'.
_ESCAPE_RE = re.compile(r'\\(["\\]?)')
#: One token or run of text between tokens; ``lastgroup`` names which. A
#: string ends at its closing quote or the end of the line, and ``close`` is
#: empty when it is unterminated.
_TOKEN_RE = re.compile(
    rf"(?P<newline>{_BREAK})|(?P<continuation>\\{_END})|(?P<blank>[ \t]+|#[^\r\n]*)"
    r'|(?P<string>"(?P<body>[^"\\\r\n]*(?:\\[^\r\n]?[^"\\\r\n]*)*)(?P<close>"?))'
    rf"|(?P<punct>[=\[\],])|(?P<word>{IDENT_CHAR}+)|(?P<other>.)"
)


def _unescape(body: str) -> str:
    # A callable, not the template r"\1", keeps the substitution in C.
    return _ESCAPE_RE.sub(itemgetter(1), body) if "\\" in body else body


# ---------------------------------------------------------------------------
# Token fallback
# ---------------------------------------------------------------------------


def _tokenize(
    text: str, pos: int, at: Callable[[int], Span], diags: list[Diagnostic]
) -> tuple[list[_Token], int]:
    """The tokens of the logical statement at ``pos``, the start of a line,
    then the position after it; ``at`` gives the span of an offset.

    Lexical errors are recorded and the offending character skipped, so one
    bad byte never hides the rest of the statement. Lines that hold no token
    end no statement.
    """
    tokens: list[_Token] = []
    for m in _TOKEN_RE.finditer(text, pos):
        kind = m.lastgroup
        if kind == "newline" and tokens:
            return tokens, m.end()
        if kind == "newline" or kind == "continuation" or kind == "blank":
            continue
        offset = m.start()
        if kind == "string":
            body = m["body"]
            for escape in _ESCAPE_RE.finditer(body):
                if not escape[1]:
                    diags.append(
                        _error(
                            "P001",
                            "unsupported escape (only \\\" and \\\\ are allowed)",
                            at(offset + 1 + escape.start()),
                        )
                    )
            if not m["close"]:
                diags.append(_error("P001", "unterminated string", at(offset)))
            tokens.append(_Token(kind, _unescape(body), offset))
        elif kind == "other":
            ch = m[kind]
            message = (
                "stray '\\' (a backslash may only end a line to continue it)"
                if ch == "\\"
                else f"unknown character {ch!r}"
            )
            diags.append(_error("P001", message, at(offset)))
        else:
            tokens.append(_Token(kind, m[kind], offset))
    return tokens, len(text)


class _StatementError(Exception):
    """Internal signal: abort the current statement, diagnostic recorded."""


def _parse_statement(
    tokens: list[_Token], at: Callable[[int], Span], diags: list[Diagnostic]
) -> tuple | None:
    """One statement as (class name, record class, fields, keyword offset),
    or None when it has an error, which is recorded in ``diags``."""
    rest = iter(tokens)

    def fail(code: str, message: str, token: _Token | None = None) -> None:
        """Record an error at ``token``, else at the last token, and abort."""
        token = token or tokens[-1]
        diags.append(_error(code, message, at(token.offset)))
        raise _StatementError

    def list_item(key: str, open_tok: _Token) -> _Token:
        tok = next(rest, None)
        if tok is None:
            fail("P002", f"unclosed '[' in '{key}=' list", open_tok)
        return tok

    def value(key: str, spec: Slot) -> object:
        """The value after ``key=``: a word, a string or ``[id,...]``, which
        must be of the kind ``spec`` takes."""
        tok = next(rest, None)
        if tok is None:
            fail("P002", f"missing value for '{key}='")
        kind, payload = tok.kind, tok.value
        if kind == "punct":
            if payload != "[":
                fail("P002", f"unexpected token after '{key}='", tok)
            kind, ids = IDLIST, []
            while (item := list_item(key, tok))[:2] != ("punct", "]"):
                if ids:
                    if item[:2] != ("punct", ","):
                        fail("P002", f"expected ',' or ']' in '{key}=' list", item)
                    item = list_item(key, tok)
                if not (item.kind == "word" and is_valid_identifier(item.value)):
                    fail("P002", f"expected an identifier in '{key}=' list", item)
                ids.append(item.value)
            payload = tuple(ids)
        if spec.kind == STRING:
            if kind != "string":
                fail("P002", f"'{key}=' expects a quoted string", tok)
        elif spec.kind == ID:
            if kind != "word" or not is_valid_identifier(payload):
                fail("P002", f"'{key}=' expects an identifier", tok)
        elif spec.kind == IDLIST:
            if kind != IDLIST:
                fail("P002", f"'{key}=' expects a list like [a,b]", tok)
            if spec.nonempty and not payload:
                fail("P002", f"'{key}=' must list at least one id", tok)
        else:  # an enum
            values = ", ".join(spec.members)
            if kind != "word":
                fail("P002", f"'{key}=' expects one of: {values}", tok)
            payload = spec.members.get(payload)
            if payload is None:
                fail(
                    "P004",
                    f"invalid value '{tok.value}' for '{key}=' (expected one of: {values})",
                    tok,
                )
        return payload

    try:
        head = next(rest)
        keyword = head.value
        if head.kind != "word":
            fail("P002", "expected a statement keyword", head)
        statement = _STATEMENTS.get(keyword)
        if statement is None:
            fail("P002", f"unknown statement '{keyword}'", head)

        fields = statement.template.copy()
        if statement.has_id:
            tok = next(rest, None)
            if tok is None or tok.kind != "word":
                fail("P002", f"'{keyword}' needs an identifier", tok)
            if not is_valid_identifier(tok.value):
                fail(
                    "P002", f"invalid identifier '{tok.value}' (must start with a letter)", tok
                )
            fields["id"] = tok.value

        written: set[str | None] = set()
        for tok in rest:
            if tok.kind == "string":
                key = None
                if key not in statement.keys or key in written:
                    fail("P002", "unexpected string", tok)
            elif tok.kind != "word":
                fail("P002", f"unexpected '{tok.value}'", tok)
            else:
                key = tok.value
                if next(rest, (None, None))[:2] != ("punct", "="):
                    fail("P002", f"expected '=' after '{key}'", tok)
                if key not in statement.keys:
                    fail("P002", f"unknown attribute '{key}' for '{keyword}'", tok)
                if key in written:
                    fail("P002", f"duplicate attribute '{key}'", tok)
            written.add(key)
            slot = statement.keys[key]
            fields[slot.field] = tok.value if key is None else value(key, slot)

        for key in statement.required:
            if key not in written:
                message = f"missing attribute '{key}=' on '{keyword}'"
                fail("P002", message if key else f"'{keyword}' needs a quoted description", head)

        return statement.cls, statement.type, fields, head.offset
    except _StatementError:
        return None


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Decline(Exception):
    """Internal signal: the fast match leaves this statement to the token
    fallback."""


#: :func:`_plan` per statement shape; threads may build one at once, either is
#: kept. A plan's template is copied per statement, never filled itself.
_PLANS: dict[tuple, tuple] = {}


def _plan(shape: tuple) -> tuple:
    """The plan of a shape (keyword and keys, and whether the id is absent):
    class name, record class, (group, field name, kind, enum members,
    nonempty) per value, and the statement's template; kept once every key
    is known, none repeated and every required key present."""
    (keyword, *keys), no_id = shape
    statement = _STATEMENTS.get(keyword)
    written = set(keys)  # a keyless value, the description, has the key None
    if (
        statement is None
        or statement.has_id == no_id
        or len(written) < len(keys)
        or not set(statement.required) <= written <= statement.keys.keys()
    ):
        raise _Decline
    items = tuple(
        (2 * group, slot.field, slot.kind, slot.members, slot.nonempty)
        for group, slot in enumerate(map(statement.keys.get, keys), 2)
    )
    _PLANS[shape] = plan = (statement.cls, statement.type, items, statement.template)
    return plan


class _Spans(Mapping):
    """``Model.source_spans`` of a parsed model, resolved from keyword offsets
    on read. One table, built whole on the first read and then kept, maps
    each declaration's (class, ``declared_names`` name) pair to its keyword
    offset. Every read goes through it; iteration sorts it by offset and gives
    each key as a ``Ref``, in source order. A pickle or copy is a plain dict."""

    def __init__(self, text: str, filename: str, collections: dict, offsets: dict) -> None:
        self._text, self._filename, self._collections = text, filename, collections
        self._offsets, self._starts, self._table = offsets, None, None

    def _line_starts(self) -> list[int]:
        """The offset at which each line of the text starts, kept once built."""
        self._starts = starts = [0, *(m.end() for m in _BREAK_RE.finditer(self._text))]
        return starts

    def at(self, offset: int) -> Span:
        """The span of an offset into the text; every span of a parse."""
        starts = self._starts or self._line_starts()
        line = bisect_right(starts, offset)
        return Span(self._filename, line, offset - starts[line - 1] + 1)

    def _declared(self) -> dict[tuple[str, str], int]:
        """The one table, class by class in schema order."""
        table = self._table
        if table is None:
            self._table = table = {
                (cls, name): offset
                for cls, elements in self._collections.items()
                for name, offset in zip(declared_names(e.id for e in elements), self._offsets[cls])
            }
        return table

    def __getitem__(self, ref: Ref) -> Span:
        try:
            offset = self._declared()[ref]
        except TypeError:  # a key that cannot be hashed
            raise KeyError(ref) from None
        return self.at(offset)

    def __len__(self) -> int:
        return len(self._declared())

    def __iter__(self):
        for key, _ in sorted(self._declared().items(), key=itemgetter(1)):
            yield Ref(*key)

    def __repr__(self) -> str:
        return repr(dict(self))

    def __reduce__(self) -> tuple:
        return dict, (dict(self),)


def parse(text: str, filename: str = "<input>") -> ParseResult:
    """Parse a PHASE document.

    Never raises on malformed input: every problem becomes a diagnostic with
    a span into ``text``. The model is returned only when there are no
    error-severity diagnostics.
    """
    diags: list[Diagnostic] = []
    headers: list[tuple[int, str]] = []  # offset and name of each model header
    collections: dict[str, list] = {c.name: [] for c in SCHEMA}
    offsets: dict[str, list[int]] = {c.name: [] for c in SCHEMA}
    spans = _Spans(text, filename, collections, offsets)
    at = spans.at
    plan_of = _PLANS.get
    match_statement = _STATEMENT_RE.match
    new, set_field = object.__new__, object.__setattr__
    pos, end = 0, len(text)
    while pos < end:
        m = match_statement(text, pos)
        try:
            if m is None:
                raise _Decline
            groups = m.groups()
            stmt_id = groups[2]
            shape = (groups[1 : m.lastindex : 2], stmt_id is None)
            cls, record_cls, items, template = plan_of(shape) or _plan(shape)
            fields = template.copy()
            if stmt_id is not None:
                fields["id"] = stmt_id
            for group, name, kind, members, nonempty in items:
                value = groups[group]
                # The first character tells the value's kind: '"' a string,
                # '[' a list, a letter an identifier or enum word.
                first = value[0]
                if kind == STRING:
                    if first != '"':
                        raise _Decline
                    value = value[1:-1]
                    if "\\" in value:
                        value = _unescape(value)
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
                fields[name] = value
            offset = m.start(2)
            pos = m.end()
        except _Decline:
            tokens, pos = _tokenize(text, pos, at, diags)
            statement = tokens and _parse_statement(tokens, at, diags)
            if not statement:
                continue
            cls, record_cls, fields, offset = statement
        if cls is None:
            headers.append((offset, fields["name"]))
        else:
            collections[cls].append(element := new(record_cls))
            set_field(element, "__dict__", fields)
            offsets[cls].append(offset)

    # Repeated headers and ids, each reported with the first declaration.
    for offset, _ in headers[1:]:
        diags.append(_error("P002", "model name already declared", at(offset), at(headers[0][0])))
    # Duplicate assessment cells are a semantic error, not a parse error.
    for cls in (c.name for c in SCHEMA if c.identity):
        ids = [element.id for element in collections[cls]]
        if len(set(ids)) < len(ids):
            declared: dict[str, int] = {}
            for stmt_id, offset in zip(ids, offsets[cls]):
                if (prior := declared.setdefault(stmt_id, offset)) != offset:
                    message = f"duplicate {cls} id '{stmt_id}'"
                    diags.append(_error("P003", message, at(offset), at(prior)))
    # Present every diagnostic, the duplicates found last too, in source order.
    diags.sort(key=lambda d: (d.span.line, d.span.column))

    if has_errors(diags):
        return ParseResult(None, tuple(diags))

    # A uca's source is the source of its action edge, empty without one.
    sources = {e.id: e.source for e in collections["edge"]}
    for uca in collections["uca"]:
        object.__setattr__(uca, "source", sources.get(uca.action, ""))
    # Model's fields: the name, the collections in schema order, the spans.
    name = headers[0][1] if headers else ""
    return ParseResult(Model(name, *map(tuple, collections.values()), spans), tuple(diags))


def parse_file(path: str) -> ParseResult:
    with open(path, encoding="utf-8-sig") as handle:  # a leading byte order mark is skipped
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


_ALWAYS = object()  # compares unequal to every field value
#: The keyword column of an edge: each kind's statement keyword.
_EDGE_KEYWORDS = {kind: kw for kw, kind in EDGE_KEYWORDS.items()}
#: What checks and writes one value of each kind; an enum's is its text.
_WRITE = {STRING: _quote, ID: _ident, IDLIST: _idlist}


def _serializer_steps(element_class: ElementClass) -> tuple:
    """(getter, value writer, value left out, kind, cell prefix, enum table)
    per column: an edge's keyword, the id, then each written slot in slot
    order. An optional field equal to its default is left out, its cell
    empty. The first column, never left out, leads with the keyword."""
    defaults = {f.name: f.default for f in element_class.type.__record_fields__}
    steps, lead = [], element_class.keywords[0]
    if element_class.name == "edge":
        kinds = _EDGE_KEYWORDS
        steps, lead = [(attrgetter("kind"), kinds.__getitem__, _ALWAYS, None, "", kinds)], ""
    for s in [Slot(f, "", ID) for f in element_class.identity] + [*element_class.slots]:
        if s.key is not None:
            prefix, lead = f"{lead} " + ("" if s.key in ("", DESCRIPTION) else f"{s.key}="), ""
            left_out = _ALWAYS if s.required else defaults[s.field]
            table = s.members and {**{m: prefix + t for t, m in s.members.items()}, left_out: ""}
            steps.append((attrgetter(s.field), _WRITE.get(s.kind, enum_text), left_out, s.kind,
                          prefix, table))
    return tuple(steps)


_SERIALIZER_STEPS = tuple((c, _serializer_steps(c)) for c in SCHEMA)


def _cells(values: list, kind: str, prefix: str, table: dict | None) -> list[str] | None:
    """The cell of each value, written from one pass over the column, or None
    when that pass meets a value it does not write (not a str, a line break
    in a text, a bad id, a value not in the enum ``table``) or nothing to
    check: no value, or lists that are all empty."""
    try:
        if table is not None:
            return [*map(table.__getitem__, values)]
        ids = [*chain.from_iterable(values)] if kind == IDLIST else values
        text = "\n".join(ids)
    except (KeyError, TypeError):
        return None
    # A line break in a value adds one to the count of those joining them.
    bad = "\r" in text if kind == STRING else IDENT_LINES_RE.fullmatch(text) is None
    if bad or text.count("\n") >= len(ids):
        return None
    opening = closing = ""
    if kind == STRING:
        text, opening, closing = text.replace("\\", "\\\\").replace('"', '\\"'), '"', '"'
    elif kind == IDLIST:
        text, opening, closing = "\n".join(map(",".join, values)), "[", "]"
    text = text.replace("\n", f"{closing}\n{prefix}{opening}")
    return f"{prefix}{opening}{text}{closing}".split("\n")


def serialize(model: Model) -> str:
    """Render a model in canonical form.

    Statement classes appear in a fixed order, declarations keep their order
    within each class, and spacing and quoting are normalized, so equal
    models serialize to byte-equal documents. A class is written a column at
    a time; a column that fails its check is walked value by value, and the
    first bad value in row order raises.
    """
    lines = [f"model {_quote(model.name)}"] if model.name else []
    for element_class, steps in _SERIALIZER_STEPS:
        elements = model.elements_of(element_class.name)
        columns, failures = [], []
        for get, write, left_out, kind, prefix, table in steps:
            values = [*map(get, elements)]
            blank = table is None and left_out is not _ALWAYS
            present = [value for value in values if value != left_out] if blank else values
            cells = _cells(present, kind, prefix, table)
            if cells is None:
                cells = []
                try:
                    for value in values:
                        cells.append(prefix + write(value) if value != left_out else "")
                except (KeyError, TypeError, ValueError) as error:  # raised below, row first
                    failures.append((len(cells), error))
            elif blank:
                cells = iter(cells)
                cells = [next(cells) if value != left_out else "" for value in values]
            columns.append(cells)
        if failures:
            raise min(failures, key=itemgetter(0))[1]
        lines += map("".join, zip(*columns))
    return "\n".join([*lines, ""])
