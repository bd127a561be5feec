from __future__ import annotations

import copy
import dataclasses
import io
import itertools
import math
import pickle
import random
import re
import sys
import threading
import time
from unittest import mock

import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from phasekit import LossCategory, Severity, Span, parse, serialize
from phasekit import cli, dsl
from phasekit.dsl import _MAX_ITEMS
from phasekit.model import (
    CLASS_FIELDS,
    DESCRIPTION,
    ID,
    IDLIST,
    SCHEMA,
    STRING,
    EdgeKind,
    GuideType,
    Ref,
)

from .parse_oracle import _parse_exact
from .strategies import documents, messy_render, valid_models


def codes(result):
    return [d.code for d in result.diagnostics]


def test_single_loss_statement():
    result = parse(
        'loss L1 "Loss of life or injury to the preterm infants" category=safety-critical'
    )
    assert result.diagnostics == ()
    model = result.model
    assert len(model.losses) == 1
    assert model.losses[0].id == "L1"
    assert model.losses[0].category is LossCategory.SAFETY_CRITICAL


def test_empty_document():
    result = parse("")
    assert result.model is not None
    assert result.model == parse("   \n\n# only a comment\n").model
    assert result.model.losses == ()


def test_invalid_enum_value_has_span():
    result = parse('loss L1 "x" category=bogus', "doc.phase")
    assert result.model is None
    (diag,) = result.diagnostics
    assert diag.code == "P004"
    assert diag.message == (
        "invalid value 'bogus' for 'category=' "
        "(expected one of: safety-critical, performance-related, sociotechnical)"
    )
    assert diag.severity is Severity.ERROR
    assert diag.span.file == "doc.phase"
    assert diag.span.line == 1
    assert diag.span.column == len('loss L1 "x" category=') + 1


def test_duplicate_id_reports_both_spans():
    result = parse('loss L1 "a" category=sociotechnical\nloss L1 "b" category=sociotechnical')
    assert result.model is None
    (diag,) = result.diagnostics
    assert diag.code == "P003"
    assert diag.span.line == 2
    assert diag.related_span == Span("<input>", 1, 1)


def test_same_id_in_two_classes_is_fine():
    result = parse(
        'loss X "a" category=sociotechnical\n'
        'boundary SB "b"\n'
        'hazard X "h" boundary=SB leads_to=[X]'
    )
    assert result.model is not None


def test_lexical_errors():
    # The lexer recovers and the statement parser then reports what is
    # missing, so one bad character may cascade into a syntax diagnostic;
    # diagnostics are ordered by source position.
    assert codes(parse("loss L1 $")) == ["P002", "P001"]
    assert codes(parse('loss L1 "unterminated')) == ["P002", "P001"]
    assert codes(parse('loss L1 "bad \\q escape" category=sociotechnical')) == ["P001"]
    assert codes(parse("loss \\ L1")) == ["P002", "P001"]


_CATEGORIES = "safety-critical, performance-related, sociotechnical"


@pytest.mark.parametrize(
    "text, code, message, column",
    [
        ('"x" loss', "P002", "expected a statement keyword", 1),
        ("wibble L1", "P002", "unknown statement 'wibble'", 1),
        ('loss "a"', "P002", "'loss' needs an identifier", 6),
        ('loss 9x "a" category=sociotechnical', "P002",
         "invalid identifier '9x' (must start with a letter)", 6),
        ('loss L1 "a" "b" category=sociotechnical', "P002", "unexpected string", 13),
        ('loss L1 "a" , category=sociotechnical', "P002", "unexpected ','", 13),
        ('loss L1 "a" category sociotechnical', "P002", "expected '=' after 'category'", 13),
        ('loss L1 "a" flavour=sweet category=sociotechnical', "P002",
         "unknown attribute 'flavour' for 'loss'", 13),
        ('loss L1 "a" category=sociotechnical category=sociotechnical', "P002",
         "duplicate attribute 'category'", 37),
        ('loss L1 "a" category=', "P002", "missing value for 'category='", 21),
        ('hazard H1 "h" boundary=SB leads_to=]', "P002",
         "unexpected token after 'leads_to='", 36),
        ('hazard H1 "h" boundary=SB leads_to=[L1 L2]', "P002",
         "expected ',' or ']' in 'leads_to=' list", 40),
        ('hazard H1 "h" boundary=SB leads_to=[9x]', "P002",
         "expected an identifier in 'leads_to=' list", 37),
        ('uca U1 action=CA1 type=provided category=functional context="c" hazards=[H1', "P002",
         "unclosed '[' in 'hazards=' list", 73),
        ('node N1 "n" kind=human process_model=pm', "P002",
         "'process_model=' expects a quoted string", 38),
        ('hazard H1 "h" boundary="SB" leads_to=[L1]', "P002",
         "'boundary=' expects an identifier", 24),
        ('hazard H1 "h" boundary=SB leads_to=L1', "P002",
         "'leads_to=' expects a list like [a,b]", 36),
        ('hazard H1 "h" boundary=SB leads_to=[]', "P002",
         "'leads_to=' must list at least one id", 36),
        ('loss L1 "a" category="x"', "P002", f"'category=' expects one of: {_CATEGORIES}", 22),
        ('loss L1 "a" category=bogus', "P004",
         f"invalid value 'bogus' for 'category=' (expected one of: {_CATEGORIES})", 22),
        ("loss L1 category=sociotechnical", "P002", "'loss' needs a quoted description", 1),
        ('loss L1 "a"', "P002", "missing attribute 'category=' on 'loss'", 1),
        ("model", "P002", "'model' needs a quoted description", 1),
        # Missing keys are reported one at a time: the description first,
        # then the required keys in slot order.
        ("hazard H1 leads_to=[L1]", "P002", "'hazard' needs a quoted description", 1),
        ("requirement R1", "P002", "'requirement' needs a quoted description", 1),
        ('hazard H1 "h"', "P002", "missing attribute 'boundary=' on 'hazard'", 1),
    ],
)
def test_syntax_errors(text, code, message, column):
    result = assert_matches_exact(text)
    assert [(d.code, d.message, d.span.line, d.span.column) for d in result.diagnostics] == [
        (code, message, 1, column)
    ]


def test_errors_accumulate_across_statements():
    result = parse('loss L1 "a" category=nope\nloss 9 "b" category=sociotechnical\n$')
    assert [d.code for d in result.diagnostics] == ["P004", "P002", "P001"]
    assert result.model is None


def test_line_continuation_and_comments():
    text = (
        "# header comment\n"
        'loss L1 \\\n'
        '  "split across lines" \\\n'
        "  category=performance-related # trailing note\n"
    )
    result = parse(text)
    assert result.diagnostics == ()
    assert result.model.losses[0].description == "split across lines"


def test_string_escapes_round_trip():
    text = 'model "quote \\" and backslash \\\\ done"'
    model = parse(text).model
    assert model.name == 'quote " and backslash \\ done'
    assert parse(serialize(model)).model == model


def test_uca_source_derived_from_action():
    text = (
        'node A "a" kind=human\nnode B "b" kind=human\n'
        'boundary SB "s"\n'
        'loss L1 "l" category=sociotechnical\n'
        'hazard H1 "h" boundary=SB leads_to=[L1]\n'
        'action CA1 from=A to=B "act"\n'
        'uca U1 action=CA1 type=provided category=functional context="c" hazards=[H1]\n'
    )
    model = parse(text).model
    assert model.ucas[0].source == "A"


def test_uca_source_empty_when_action_dangles():
    text = 'uca U1 action=CA9 type=provided category=functional context="c" hazards=[H1]'
    model = parse(text).model
    assert model.ucas[0].source == ""


def test_edge_keywords_map_to_kinds():
    text = (
        'node A "a" kind=human\nnode B "b" kind=human\n'
        'action E1 from=A to=B "x"\nfeedback E2 from=B to=A "y"\niolink E3 from=A to=B "z"\n'
    )
    model = parse(text).model
    assert [e.kind for e in model.edges] == [
        EdgeKind.CONTROL_ACTION,
        EdgeKind.FEEDBACK,
        EdgeKind.IO_LINK,
    ]


def test_assessment_statement():
    text = 'assess action=CA1 type=wrong-timing verdict=not-hazardous rationale="checked"'
    model = parse(text).model
    (assessment,) = model.assessments
    assert assessment.guide_type is GuideType.WRONG_TIMING
    assert assessment.verdict == "not-hazardous"
    assert codes(parse('assess action=CA1 type=provided verdict=maybe rationale="r"')) == ["P004"]


def test_duplicate_model_header():
    (diag,) = parse('model "a"\nmodel "b"').diagnostics
    assert (diag.code, diag.message) == ("P002", "model name already declared")
    assert diag.span == Span("<input>", 2, 1)
    assert diag.related_span == Span("<input>", 1, 1)


def test_serialize_empty_and_named_models():
    assert serialize(parse("").model) == ""
    assert serialize(parse('model "name only"').model) == 'model "name only"\n'


def test_serialize_rejects_newlines_in_text():
    import dataclasses

    model = parse('model "x"').model
    broken = dataclasses.replace(model, name="a\nb")
    with pytest.raises(ValueError):
        serialize(broken)


def test_serialize_is_deterministic_on_fixture(c1):
    assert serialize(c1) == serialize(c1)


def test_parse_file_matches_parse(c1):
    from phasekit import parse_file

    from .conftest import fixture_path

    assert parse_file(str(fixture_path("c1"))).model == c1


def test_parse_file_skips_a_leading_byte_order_mark(c1, tmp_path):
    """Only at the start of a file: ``parse`` of a str reads a BOM as text."""
    from phasekit import parse_file

    from .conftest import fixture_path

    path = tmp_path / "bom.phase"
    path.write_bytes(b"\xef\xbb\xbf" + fixture_path("c1").read_bytes())
    result = parse_file(str(path))
    assert result.model == c1 and result.diagnostics == ()
    spans = {ref: (s.line, s.column) for ref, s in result.model.source_spans.items()}
    assert spans == {ref: (s.line, s.column) for ref, s in c1.source_spans.items()}
    bom_text = parse("\ufeff" + fixture_path("c1").read_text(encoding="utf-8"))
    assert [d.format() for d in bom_text.diagnostics] == [
        "<input>:1:1: error[P001]: unknown character '\\ufeff'"
    ]


def test_canonical_statement_order(c1):
    order = [line.split()[0] for line in serialize(c1).splitlines()]
    keywords = ["model", "loss", "boundary", "hazard", "node",
                "action", "feedback", "iolink", "uca", "scenario",
                "requirement", "assess"]
    # Edges keep declaration order as a single class, so collapse the three
    # edge keywords before checking monotonicity.
    collapsed = ["edge" if k in ("action", "feedback", "iolink") else k for k in order]
    ranking = {"model": 0, "loss": 1, "boundary": 2, "hazard": 3, "node": 4,
               "edge": 5, "uca": 6, "scenario": 7, "requirement": 8, "assess": 9}
    assert [ranking[k] for k in collapsed] == sorted(ranking[k] for k in collapsed)


@settings(max_examples=200, deadline=None)
@given(documents())
def test_round_trip_property(doc):
    first = parse(doc)
    assert first.model is not None, [d.format() for d in first.diagnostics]
    canonical = serialize(first.model)
    second = parse(canonical)
    assert second.model == first.model
    assert serialize(second.model) == canonical


@settings(max_examples=100, deadline=None)
@given(valid_models(), st.integers(0, 2**32))
def test_messy_render_parses_clean(model, seed):
    # Statement order is shuffled, so compare element content, not
    # declaration order.
    from .diff_oracle import element_map

    doc = messy_render(model, random.Random(seed))
    result = parse(doc)
    assert result.model is not None, [d.format() for d in result.diagnostics]
    assert element_map(result.model) == element_map(model)
    assert result.model.name == model.name


_CORRUPTION = st.sampled_from(list('abz019 _-"\\#[]=,.\t\r\n$'))


@settings(max_examples=200, deadline=None)
@given(documents(), st.data())
def test_single_byte_corruption_keeps_spans_in_bounds(doc, data):
    if not doc:
        return
    index = data.draw(st.integers(0, len(doc) - 1))
    replacement = data.draw(_CORRUPTION)
    corrupted = doc[:index] + replacement + doc[index + 1 :]
    result = parse(corrupted, "fuzz.phase")
    # Split physical lines the way the lexer does: \n, \r\n, or bare \r
    # (other Unicode line separators are ordinary string content).
    lines = re.split(r"\r\n|\r|\n", corrupted)
    for diagnostic in result.diagnostics:
        span = diagnostic.span
        assert span is not None
        assert 1 <= span.line <= len(lines)
        assert 1 <= span.column <= max(1, len(lines[span.line - 1]) + 1)
    assert_matches_exact(corrupted)


# ---------------------------------------------------------------------------
# parse against the whole-document token parser of tests/parse_oracle.py
# ---------------------------------------------------------------------------


def assert_matches_exact(text: str):
    """``parse`` must give exactly what the oracle token parser gives."""
    got = parse(text, "doc.phase")
    want = _parse_exact(text, "doc.phase")
    assert got.diagnostics == want.diagnostics
    assert got.model == want.model
    if want.model is not None:
        assert got.model.source_spans == want.model.source_spans
    return got


def token_fallback(text: str) -> tuple[int, tuple]:
    """How many statements ``parse`` hands to the token parser, and the codes
    of the diagnostics it returns."""
    with mock.patch.object(dsl, "_parse_statement", wraps=dsl._parse_statement) as spy:
        result = parse(text, "doc.phase")
    return spy.call_count, tuple(d.code for d in result.diagnostics)


def takes_fast_path(text: str) -> bool:
    """Whether ``parse`` reads every statement with the fast match and
    reports nothing."""
    return token_fallback(text) == (0, ())


# No shrinking: each shrink step renders and parses a model of 1,000+
# elements through the oracle, so a failure would take minutes to report.
_ONE_LARGE_MODEL = settings(
    max_examples=1,
    derandomize=True,
    deadline=None,
    database=None,
    phases=(Phase.explicit, Phase.reuse, Phase.generate),
)


@_ONE_LARGE_MODEL
@given(valid_models(max_per_class=300), st.integers(0, 2**32))
def test_large_document_matches_exact_path(model, seed):
    assume(sum(len(model.elements_of(cls)) for cls in CLASS_FIELDS) >= 1000)
    doc = messy_render(model, random.Random(seed))
    for newline in ("\n", "\r\n", "\r"):
        text = doc.replace("\n", newline)
        assert takes_fast_path(text)
        assert assert_matches_exact(text).model is not None


@_ONE_LARGE_MODEL
@given(valid_models(max_per_class=300))
def test_token_fallback_reads_only_the_bad_statement(model):
    """One bad statement in the middle of a large document is the only one
    the token parser reads; a duplicate id at the end needs none."""
    assume(sum(len(model.elements_of(cls)) for cls in CLASS_FIELDS) >= 1000)
    assume(model.losses)
    lines = serialize(model).splitlines()
    lines[len(lines) // 2] += " $"
    lines.append(next(line for line in lines if line.startswith("loss ")))
    for newline in ("\n", "\r\n", "\r"):
        text = newline.join(lines)
        assert token_fallback(text) == (1, ("P001", "P003"))
        assert_matches_exact(text)


@pytest.mark.parametrize("name", ["c1", "c2", "c3"])
def test_fixtures_take_fast_path(name):
    from .conftest import fixture_path

    text = fixture_path(name).read_text(encoding="utf-8")
    assert takes_fast_path(text)
    assert_matches_exact(text)


@pytest.mark.parametrize(
    "text",
    [
        # A backslash at the very end of the input is a continuation.
        'loss L1 "a" category=sociotechnical \\',
        "\\",
        'model "m"\n\\',
        # '#' inside a string is text, not a comment.
        'loss L1 "a # b" category=sociotechnical # c',
        # A backslash before a newline inside a string is not a continuation.
        'loss L1 "a \\\n" category=sociotechnical',
        # Escaped backslashes and quotes, mixed and adjacent.
        'loss L1 "a\\\\" category=sociotechnical',
        'loss L1 "\\\\\\"" category=sociotechnical',
        'loss L1 "\\"\\\\\\"\\\\x\\\\\\\\\\"" category=sociotechnical',
        'model "\\\\\\"\\\\"\nloss L1 "\\\\" category=sociotechnical "\\"',
        # Only \r\n, \r and \n end a line; other separators are string text.
        'model "a\x85b\u2028c\x0bd"\rloss L1 "x" category=sociotechnical',
        'model "m"\r\n\r\n  loss L1 "x" \\\r\n category=sociotechnical\r',
        # Tokens need no blanks between them where the lexer splits them.
        'loss L1"a"category=sociotechnical',
        'hazard H1 boundary=B leads_to=[ L1 ,\\\n L2 ]"h"',
        "  \\\n\tloss L1 category = sociotechnical \\\n\\\n  \"x\"",
        # Each of these is left to the token fallback.
        'loss L1 "a" category=sociotechnical\nloss L1 "b" category=sociotechnical',
        'model "a"\nmodel "b"',
        'loss L1 "a" "b" category=sociotechnical',
        'assess action=CA1 type=provided verdict=maybe rationale="r"',
        'hazard H1 "h" boundary=SB leads_to=[]',
        'loss L1 "a" category=sociotechnical category=sociotechnical',
        'requirement R1 scenarios=[S1,9x] "r"',
        'loss L1 "a\\q" category=sociotechnical',
        'loss L1 "a" category=sociotechnical \\ x',
        # A keyless item must be a description; a list holds ids only.
        'loss L1 "a" category=sociotechnical sociotechnical',
        'loss L1 category=sociotechnical [L1]',
        'hazard H1 "h" boundary=SB leads_to=[L1,]',
        'hazard H1 "h" boundary=SB leads_to=[L1 L2]',
        'hazard H1 "h" boundary=SB leads_to=[L1,\nL2]',
        'hazard H1 "h" boundary=SB leads_to=[L1, # x\n L2]',
        'hazard H1 "h" boundary=SB leads_to=[L1,"L2"]',
    ],
)
def test_edge_cases_match_exact_path(text):
    assert_matches_exact(text)


def _items(element_class, continued: bool) -> list[str]:
    """One item per written slot of the class, a list spread over two lines
    when ``continued``."""
    values = {STRING: '"s \\" #"', ID: "X1", IDLIST: "[A1,\\\n B2]" if continued else "[A1,B2]"}
    return [
        values[STRING] if slot.key == DESCRIPTION
        else f"{slot.key}={values.get(slot.kind) or next(iter(slot.members))}"
        for slot in element_class.slots
        if slot.key is not None
    ]


@pytest.mark.parametrize("element_class", SCHEMA, ids=[c.name for c in SCHEMA])
def test_every_order_of_a_complete_statement_takes_fast_path(element_class):
    """A statement with every attribute of its class, in each order, is read
    by the fast match, so _MAX_ITEMS leaves no statement to the token fallback."""
    head = element_class.keywords[0] + (" E1" if element_class.identity else "")
    for continued in (True, False):
        for order in itertools.permutations(_items(element_class, continued)):
            if continued:
                text = head + " \\\n  " + " \\\n\t".join(order)
            else:
                # No blanks at all: a continuation only where two words
                # would otherwise run together.
                text = head
                for item in order:
                    text += ("" if text[-1] in '"]' or item[0] == '"' else "\\\n") + item
            assert takes_fast_path(text), text
            assert assert_matches_exact(text).model is not None


def _accepted_shapes(element_class) -> int:
    """How many statement shapes of one keyword the fast match accepts: each
    order of each choice of written slots that holds every required one."""
    written = [slot for slot in element_class.slots if slot.key is not None]
    optional = sum(not slot.required for slot in written)
    required = len(written) - optional
    return sum(
        math.comb(optional, k) * math.factorial(required + k) for k in range(optional + 1)
    )


def test_declined_statements_add_no_plan():
    """A statement the fast match declines leaves the plan table as it was,
    so no input can grow it, and the token parser still reports it."""
    text = "".join(f'loss L{i} "d" category=sociotechnical k{i}=x\n' for i in range(5000))
    with mock.patch.object(dsl, "_PLANS", {}):
        result = parse(text, "doc.phase")
        assert dsl._PLANS == {}
    assert [(d.code, d.message, d.span.line) for d in result.diagnostics] == [
        ("P002", f"unknown attribute 'k{i}' for 'loss'", i + 1) for i in range(5000)
    ]


def test_plan_table_is_bounded_by_the_schema():
    """Every accepted order of every keyword's items, spelled two ways, fills
    the table with one plan per shape and no more."""
    bound = 1 + sum(len(c.keywords) * _accepted_shapes(c) for c in SCHEMA)  # 1: model
    docs = ['model "m"']
    for element_class in SCHEMA:
        items = _items(element_class, continued=False)
        required = [
            item for item, slot in zip(items, [s for s in element_class.slots if s.key is not None])
            if slot.required
        ]
        for keyword in element_class.keywords:
            head = keyword + (" E1" if element_class.identity else "")
            for size in range(len(required), len(items) + 1):
                for order in itertools.permutations(items, size):
                    if set(required) <= set(order):
                        docs.append(" ".join([head, *order]))
                        docs.append(" \\\n\t".join([head, *order]) + "  # c")
    with mock.patch.object(dsl, "_PLANS", {}):
        for doc in docs:
            assert takes_fast_path(doc), doc
        assert len(dsl._PLANS) == bound
        for doc in reversed(docs):
            assert takes_fast_path(doc), doc
        assert len(dsl._PLANS) == bound


def _large_documents(model, seed) -> list[str]:
    """c1-c3 and a messy rendering of ``model``."""
    from .conftest import fixture_path

    texts = [fixture_path(f"c{n}").read_text(encoding="utf-8") for n in (1, 2, 3)]
    return [*texts, messy_render(model, random.Random(seed))]


@_ONE_LARGE_MODEL
@given(valid_models(max_per_class=300), st.integers(0, 2**32))
def test_parse_does_not_depend_on_the_plans_before_it(model, seed):
    """Each document parses as the oracle does from an empty plan table and
    from one the other documents have filled."""
    assume(sum(len(model.elements_of(cls)) for cls in CLASS_FIELDS) >= 1000)
    docs = _large_documents(model, seed)
    for index, doc in enumerate(docs):
        with mock.patch.object(dsl, "_PLANS", {}):
            assert assert_matches_exact(doc).model is not None
        with mock.patch.object(dsl, "_PLANS", {}):
            for other in docs[:index] + docs[index + 1 :]:
                parse(other, "other.phase")
            assert dsl._PLANS
            assert_matches_exact(doc)


@_ONE_LARGE_MODEL
@given(valid_models(max_per_class=300), st.integers(0, 2**32))
def test_parse_from_threads_matches_serial_parse(model, seed):
    """Four threads that start together from an empty plan table, each
    reading the documents in another order, get what one thread gets."""
    assume(sum(len(model.elements_of(cls)) for cls in CLASS_FIELDS) >= 1000)
    docs = _large_documents(model, seed)
    with mock.patch.object(dsl, "_PLANS", {}):
        serial = [parse(doc, "doc.phase") for doc in docs]
    got: dict[int, list] = {}
    start = threading.Barrier(4)

    def work(offset: int) -> None:
        start.wait()
        order = docs[offset:] + docs[:offset]
        got[offset] = [parse(doc, "doc.phase") for doc in order * 2]

    threads = [threading.Thread(target=work, args=(offset,)) for offset in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside plan building too
    try:
        with mock.patch.object(dsl, "_PLANS", {}):
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for offset, results in got.items():
        want = (serial[offset:] + serial[:offset]) * 2
        assert results == want
        for result, expected in zip(results, want):
            assert result.model.source_spans == expected.model.source_spans
    assert len(got) == 4

    # Four threads reading the spans of one fresh model for the first time,
    # two a ref at a time from different ends and two the whole mapping, get
    # what one thread gets.
    for doc, expected in zip(docs, serial):
        spans = parse(doc, "doc.phase").model.source_spans
        refs = list(expected.model.source_spans)
        reads = {
            0: lambda: {ref: spans[ref] for ref in refs},
            1: lambda: {ref: spans.get(ref) for ref in reversed(refs)},
            2: lambda: dict(spans),
            3: lambda: dict(spans.items()),
        }
        read: dict[int, dict] = {}
        start = threading.Barrier(4)

        def work_spans(index: int) -> None:
            start.wait()
            read[index] = reads[index]()

        threads = [threading.Thread(target=work_spans, args=(index,)) for index in reads]
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(read) == 4
        for result in read.values():
            assert result == expected.model.source_spans


@pytest.mark.parametrize(
    "text",
    [
        "loss L1 " + "a=" * 20000,
        "loss L1 " + "a=b" * 20000,
        'loss L1 "x"' + " \\\n" * 20000 + " category=sociotechnical",
        "loss L1 " + "a" * 120 + " $",
    ],
    ids=["keys", "items", "continuations", "long-word"],
)
def test_statement_pattern_never_backtracks_exponentially(text):
    """Possessive repeats leave the statement pattern no way to split a run
    of items or continuations differently once it has read them. A word that
    could be split would give the last text millions of ways to fail."""
    start = time.perf_counter()
    parse(text, "doc.phase")
    assert time.perf_counter() - start < 5.0
    assert_matches_exact(text)


def test_one_item_too_many_declines():
    items = 'action=CA1 type=provided category=functional context="c" hazards=[H1]'.split()
    text = " ".join(["uca", "U1", *items, "type=provided"])
    assert len(items) == _MAX_ITEMS
    assert not takes_fast_path(text)
    result = assert_matches_exact(text)
    assert [(d.code, d.message) for d in result.diagnostics] == [
        ("P002", "duplicate attribute 'type'")
    ]


_SOUP = st.sampled_from(
    [
        "model", "loss", "boundary", "node", "action", "feedback", "iolink",
        "hazard", "uca", "scenario", "requirement", "assess", "L1", "H1", "9x",
        "category=", "kind=", "stage=", "includes=", "leads_to=", "boundary=",
        "from=", "to=", "action=", "type=", "hazards=", "context=", "uca=",
        "class=", "elements=", "scenarios=", "verdict=", "rationale=",
        "sociotechnical", "human", "provided", "functional", "technical",
        "not-hazardous", "[a,b]", "[]", "[L1]", '""', '"x"', '"a\\"b"',
        "\\", "\\\n", "#", "\r", "\n", "\r\n", "\x00", " ", "\t", "=", ",",
    ]
)


@settings(max_examples=300, deadline=None)
@given(st.text(st.characters(exclude_categories=())))
def test_any_text_matches_exact_path(text):
    # Every character, NUL and lone surrogates (category Cs) included.
    assert_matches_exact(text)


@settings(max_examples=300, deadline=None)
@given(st.lists(_SOUP, max_size=40))
def test_token_soup_matches_exact_path(tokens):
    assert_matches_exact("".join(tokens))
    assert_matches_exact(" ".join(tokens))


@pytest.mark.parametrize(
    "text",
    [
        "=".join(["ab", "cd"] * 1250),
        'loss L1 "x" category=sociotechnical ' + "=".join(["ab", "cd"] * 1250),
        "uca U1 " + "".join(f'k{i}="v"' for i in range(700)) + " $",
        'loss L1 "' + "\\q" * 5000,
        "loss 9\n" * 10000,
    ],
    ids=["bare", "after-statement", "quoted-values", "bad-escapes", "bad-statements"],
)
def test_items_without_blanks_parse_in_linear_time(text):
    assert len(text) >= 5000
    start = time.perf_counter()
    assert_matches_exact(text)
    assert time.perf_counter() - start < 2.0


# ---------------------------------------------------------------------------
# source_spans of a parsed model: offsets resolved on read
# ---------------------------------------------------------------------------


def _spy(name: str):
    """Record every call of one ``_Spans`` method, which still runs."""
    return mock.patch.object(
        dsl._Spans, name, autospec=True, side_effect=getattr(dsl._Spans, name)
    )


def _run(argv: list) -> int:
    return cli.run([str(arg) for arg in argv], stdout=io.StringIO(), stderr=io.StringIO())


@pytest.mark.parametrize("name", ["c1", "c2", "c3"])
def test_clean_model_never_resolves_a_span(name, tmp_path):
    """No subcommand builds the line table for a case study, so a clean model
    costs no span; one self-loop edge (V100) makes ``check`` build it once and
    the table of declarations once."""
    from .conftest import fixture_path, load_fixture

    path = fixture_path(name)
    revision = path.parent.parent / "tests" / "goldens" / "inputs" / f"{name}_rev.phase"
    model = load_fixture(name)
    node = model.nodes[0].id
    calls = [
        ["check", path, "--strict"],
        *(["coverage", path, "--format", fmt] for fmt in ("table", "csv", "json")),
        ["hints", path],
        ["render", path],
        *(["report", path, "--format", fmt] for fmt in ("md", "json")),
        ["fmt", path],
        ["trace", path, "--loss", model.losses[0].id],
        ["trace", path, "--node", node],
        ["diff", path, revision, "--impact"],
    ]
    with _spy("_line_starts") as built:
        for argv in calls:
            assert _run(argv) == 0, argv
    assert built.call_count == 0

    looped = tmp_path / "looped.phase"
    text = path.read_text(encoding="utf-8")
    looped.write_text(f"{text}\naction Loop \"loop\" from={node} to={node}\n", encoding="utf-8")
    # The table names the declarations of each class once when it is built.
    naming = mock.patch.object(dsl, "declared_names", side_effect=dsl.declared_names)
    with _spy("_line_starts") as built, naming as named:
        assert _run(["check", looped]) == 0
    assert built.call_count == 1
    assert named.call_count == len(SCHEMA)


_REPEATED_CELLS = (
    'model "m"\r\n'
    'assess action=CA1 type=provided verdict=not-hazardous rationale="a"\r\n'
    "\n"
    "  loss L1 \\\r  \"l\" category=sociotechnical\r"
    'assess action=CA1 type=provided verdict=not-hazardous rationale="b"\n'
    'assess action=CA1 type=not-provided verdict=not-hazardous rationale="c"\n'
    'assess type=provided action=CA1 verdict=not-hazardous rationale="d"\n'
)


def test_parsed_source_spans_repr_is_the_dicts():
    from .conftest import fixture_path

    spans = parse(fixture_path("c1").read_text(encoding="utf-8"), "c1.phase").model.source_spans
    assert type(spans) is not dict
    text = repr(spans)  # read before anything else builds the whole map
    assert text == repr(dict(spans)) and text.startswith("{Ref(cls='loss', id='L1'): Span(")


@pytest.mark.parametrize("name", ["c1", "repeated-cells", "generated"])
def test_parsed_source_spans_contract(name):
    """A parsed model's source_spans equals the oracle's dict, in source
    order, whether read a ref at a time or whole; it is read only, answers
    ``get`` as a dict does, and a pickle or copy of it is a plain dict. The
    generated case is the benchmark generator's authored layout, with
    comments and continuations, and declares every class; at n=160 it has
    eight losses, so ("loss", "L9") is a miss there too."""
    from .conftest import fixture_path
    from .test_diff import _synth

    if name == "generated":
        synth = _synth()
        text = synth.authored(synth.generate(160, 7), 7)
    elif name == "c1":
        text = fixture_path(name).read_text(encoding="utf-8")
    else:
        text = _REPEATED_CELLS
    want = _parse_exact(text, "doc.phase").model.source_spans
    fresh = parse(text, "doc.phase").model.source_spans
    assert {ref: fresh[ref] for ref in want} == want
    model = parse(text, "doc.phase").model
    spans = model.source_spans
    assert spans == want and list(spans) == list(want) and len(spans) == len(want)
    copies = (
        pickle.loads(pickle.dumps(model)).source_spans,
        copy.deepcopy(model).source_spans,
        dataclasses.asdict(model)["source_spans"],
    )
    for copied in copies:
        assert type(copied) is dict
        assert copied == spans
    assert dataclasses.replace(model, source_spans={}).source_spans == {}
    for key in ("x", ("loss",), ("loss", "L9"), ("nothing", "L1"), ("loss", "L1", "x")):
        assert spans.get(key) is None
        assert key not in spans
    with pytest.raises(TypeError):
        spans[("loss", "L1")] = None  # type: ignore[index]
    if name == "repeated-cells":
        key = "CA1/provided"
        assert [spans[Ref("assessment", k)].line for k in (key, f"{key}#2", f"{key}#3")] == [2, 6, 8]
    if name == "generated":
        assert {ref.cls for ref in spans} == {c.name for c in SCHEMA}


def test_parsed_source_spans_miss_a_key_that_cannot_be_hashed():
    spans = parse('loss L1 "l" category=sociotechnical').model.source_spans
    for key in (["loss", "L1"], ("loss", ["L1"]), (["loss"], "L1")):
        with pytest.raises(KeyError):
            spans[key]
        assert spans.get(key) is None and key not in spans
