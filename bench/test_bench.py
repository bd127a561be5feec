"""Self-test of the benchmark's generator and answer key.

    python3 -m pytest bench

At a small size the generated documents must parse and validate without a
diagnostic, the answers computed from the generator's records must equal the
answers computed from the text read back, and every call of every workload
must pass its check when run in-process.
"""

from __future__ import annotations

import io
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from answers import Key, changes  # noqa: E402
from phasekit import parse, validate  # noqa: E402
from phasekit.cli import run  # noqa: E402
from synth import authored, canonical, generate, read, revise  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("seed", [1, 2])
def test_generated_documents_parse_and_validate(seed):
    doc = generate(60, seed)
    for text in (authored(doc, seed), canonical(doc), authored(revise(doc, seed, 2), seed)):
        result = parse(text)
        assert result.diagnostics == ()
        assert validate(result.model) == []


def test_answer_key_agrees_with_the_text():
    doc = generate(60, 3)
    revised = revise(doc, 3, 2)
    text_key, key = Key(read(authored(doc, 3))), Key(doc)
    assert canonical(text_key.doc) == canonical(doc)
    assert text_key.stmts == key.stmts == len(parse(authored(doc, 3)).model.source_spans) + 1
    assert text_key.coverage() == key.coverage()
    assert text_key.hint_counts() == key.hint_counts()
    for loss in key.losses:
        assert text_key.loss_trace(loss) == key.loss_trace(loss)
    for node in key.controllers:
        assert text_key.node_trace(node) == key.node_trace(node)
    assert changes(text_key, Key(read(authored(revised, 3)))) == changes(key, Key(revised))


def test_revision_changes_every_kind_of_ref():
    found = changes(Key(generate(60, 4)), Key(revise(generate(60, 4), 4, 2)))
    assert found["added"] and found["removed"] and found["modified"] and found["re_review"]


@pytest.mark.parametrize(
    "name, size", [("casebook", 1), ("casebook", 2), ("bulk-check", 60), ("trace-review", 60)]
)
def test_every_call_passes_in_process(name, size, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    calls = WORKLOADS[name][0](ROOT, tmp_path, 5, size)
    assert calls
    for call in calls:
        out, err = io.StringIO(), io.StringIO()
        code = run(call.args, stdin=io.StringIO(), stdout=out, stderr=err)
        assert (code, err.getvalue()) == (call.exit, ""), call.args
        assert call.check(out.getvalue()) is None, call.args


def test_checks_reject_answers_for_another_model(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    build = WORKLOADS["trace-review"][0]
    outputs = []
    for call in build(ROOT, tmp_path, 6, 60):
        out = io.StringIO()
        run(call.args, stdin=io.StringIO(), stdout=out, stderr=io.StringIO())
        outputs.append(out.getvalue())
    others = build(ROOT, tmp_path / "other", 7, 60)
    for call, out in zip(others, outputs):
        assert call.check(out) is not None, call.args
