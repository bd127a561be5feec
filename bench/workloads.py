"""The benchmark's three workloads: the phasekit calls each one makes, with
the exit code and the check each call's output must pass.

Every builder takes the checkout root, a work directory (relative to the
root, where it writes its inputs), the workload seed and a size, and returns
the calls of one round. Paths in the calls are relative to the root.
"""

from __future__ import annotations

import csv
import io
import json
import random
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from answers import Key, changes
from synth import GUIDES, authored, canonical, enlarged, generate, read, revise


@dataclass
class Call:
    """One CLI invocation: ``args`` follow ``phasekit``; ``stmts`` counts the
    statements of its input documents; ``check`` returns a complaint about
    stdout, or None."""

    args: list[str]
    stmts: int
    exit: int
    check: Callable[[str], str | None]


def expect_text(expected: str) -> Callable[[str], str | None]:
    def check(out: str) -> str | None:
        return None if out == expected else "output differs from the expected text"
    return check


# -- checks that read the output back ----------------------------------------


def _coverage_check(key: Key, boundary: str | None, fmt: str):
    rows = key.coverage(boundary)
    covered, waived, gap, ratio = Key.counts(rows)
    header = ["controller", "action", *GUIDES]
    counts_line = f"{covered} covered, {waived} waived, {gap} gaps; ratio {ratio!r}"

    def check(out: str) -> str | None:
        if fmt == "csv":
            got = list(csv.reader(io.StringIO(out)))
            if got != [header, *rows]:
                return "coverage csv rows differ"
        elif fmt == "json":
            document = json.loads(out)
            got = [
                [r["controller"], r["action"], *(_json_cell(r["cells"][g]) for g in GUIDES)]
                for r in document["rows"]
            ]
            if got != rows:
                return "coverage json rows differ"
            if document["counts"] != {"covered": covered, "waived": waived, "gap": gap}:
                return "coverage json counts differ"
            if document["ratio"] != ratio:
                return "coverage json ratio differs"
        else:
            lines = out.splitlines()
            if [line.split() for line in lines[:-1]] != [header, *rows]:
                return "coverage table rows differ"
            if lines[-1] != counts_line:
                return "coverage table totals differ"
        return None
    return check


def _json_cell(cell: dict) -> str:
    if cell["state"] == "covered":
        return "covered:" + ";".join(cell["ucas"])
    return cell["state"]


def _hints_check(key: Key):
    expected = key.hint_counts()

    def check(out: str) -> str | None:
        got = Counter(line.split(" ", 1)[0] for line in out.splitlines())
        return None if got == expected else f"hint counts {dict(got)} != {dict(expected)}"
    return check


_DOT_NODE = re.compile(r'^  "([^"]*)" \[')
_DOT_EDGE = re.compile(r'^  "([^"]*)" -> "([^"]*)" \[')


def _dot_check(key: Key, boundary: str | None):
    nodes, edges = key.dot(boundary)

    def check(out: str) -> str | None:
        got_nodes, got_edges = [], []
        for line in out.splitlines():
            edge = _DOT_EDGE.match(line)
            if edge:
                got_edges.append(edge.groups())
            elif _DOT_NODE.match(line):
                got_nodes.append(_DOT_NODE.match(line).group(1))
        if got_nodes != nodes or got_edges != edges:
            return "dot nodes or edges differ"
        return None
    return check


def _section(lines: list[str], title: str) -> list[str]:
    """The ``- `` items under a markdown heading."""
    start = lines.index(title) + 1
    end = next((i for i in range(start, len(lines)) if lines[i].startswith("## ")), len(lines))
    return [line for line in lines[start:end] if line.startswith("- ")]


def _report_md_check(key: Key):
    covered, waived, gap, ratio = Key.counts(key.coverage())
    counts_line = f"{covered} covered, {waived} waived, {gap} gaps; ratio {ratio!r}"
    chains = [key.chain_line(loss) for loss in key.losses]
    hints = key.hint_counts()

    def check(out: str) -> str | None:
        lines = out.split("\n")
        if counts_line not in lines:
            return "report coverage totals differ"
        if "## Diagnostics\n\nNo diagnostics.\n" not in out:
            return "report lists diagnostics"
        if Counter(line[2:].split(" ", 1)[0] for line in _section(lines, "## Hints")) != hints:
            return "report hint counts differ"
        if _section(lines, "## Traceability") != chains:
            return "report traceability differs"
        return None
    return check


def _report_json_check(key: Key):
    covered, waived, gap, _ = Key.counts(key.coverage())
    hints = key.hint_counts()
    sizes = {
        "losses": "loss", "boundaries": "boundary", "hazards": "hazard", "nodes": "node",
        "edges": "edge", "ucas": "uca", "scenarios": "scenario",
        "requirements": "requirement", "assessments": "assessment",
    }

    def check(out: str) -> str | None:
        document = json.loads(out)
        if document["schema_version"] != "1" or document["diagnostics"]:
            return "report json header or diagnostics differ"
        if document["coverage"]["counts"] != {"covered": covered, "waived": waived, "gap": gap}:
            return "report json coverage counts differ"
        if Counter(h["code"] for h in document["hints"]) != hints:
            return "report json hint counts differ"
        if any(document["metrics"][name] != len(key.doc.of[cls]) for name, cls in sizes.items()):
            return "report json element counts differ"
        if [loss["id"] for loss in document["model"]["losses"]] != key.losses:
            return "report json losses differ"
        return None
    return check


def _diff_check(old: Key, new: Key, fmt: str):
    expected = changes(old, new)

    def check(out: str) -> str | None:
        got = _diff_json(out) if fmt == "json" else _diff_text(out)
        for section, refs in expected.items():
            if got[section] != refs:
                return f"diff {section} differs"
        return None
    return check


def _refs(items: list[dict]) -> list[tuple[str, str]]:
    return [(item["class"], item["id"]) for item in items]


def _diff_json(out: str) -> dict:
    document = json.loads(out)
    return {
        "added": _refs(document["added"]),
        "removed": _refs(document["removed"]),
        "modified": _refs([entry["ref"] for entry in document["modified"]]),
        "re_review": _refs([entry["subject"] for entry in document["impact"]["re_review"]]),
        "dangling": [
            (_refs([entry["removed"]])[0], sorted(_refs(entry["referenced_by"])))
            for entry in document["impact"]["dangling"]
        ],
    }


_TEXT_SECTIONS = {
    "added:": "added", "removed:": "removed", "modified:": "modified",
    "re-review required:": "re_review", "dangling after removal:": "dangling",
}


def _diff_text(out: str) -> dict:
    got: dict[str, list] = {name: [] for name in _TEXT_SECTIONS.values()}
    section = None
    for line in out.splitlines():
        if line in _TEXT_SECTIONS:
            section = _TEXT_SECTIONS[line]
        elif line.startswith("  ") and not line.startswith("   ") and section:
            ref, _, rest = line[2:].partition(":")
            ref = tuple(ref.split(" "))
            if section == "dangling":
                cited = [] if rest.strip() == "(no references)" else [
                    tuple(r.split(" ")) for r in rest.strip().split(", ")
                ]
                got[section].append((ref, sorted(cited)))
            else:
                got[section].append(ref)
    return got


# -- workloads ---------------------------------------------------------------


def _write(root: Path, path: Path, text: str) -> str:
    (root / path).parent.mkdir(parents=True, exist_ok=True)
    (root / path).write_text(text, encoding="utf-8")
    return str(path)


def casebook(root: Path, work: Path, seed: int, copies: int) -> list[Call]:
    """Every subcommand and output format on the three bundled case studies.
    With ``copies`` > 1 each fixture is enlarged by renamed copies of itself
    and the same queries run on the larger model (used to measure how the
    layers scale on this traffic)."""
    calls = []
    for name in ("c1", "c2", "c3"):
        fixture = Path("fixtures") / f"{name}.phase"
        doc = read((root / fixture).read_text(encoding="utf-8"))
        queries = Key(doc)
        if copies == 1:
            path = str(fixture)
            golden = (root / "tests" / "goldens" / f"{name}_report.md").read_text(encoding="utf-8")
        else:
            doc = enlarged(doc, copies)
            path = _write(root, work / f"{name}_x{copies}.phase", canonical(doc))
            golden = None
        key = Key(doc)
        edited = revise(doc, f"{seed}/{name}", 1)
        edited_path = _write(root, work / f"{name}_x{copies}_edited.phase", canonical(edited))
        edited_key = Key(edited)
        n = key.stmts

        calls.append(Call(["check", path], n, 0, expect_text("")))
        calls.append(Call(["check", path, "--strict"], n, 0, expect_text("")))
        for fmt in ("table", "csv", "json"):
            for boundary in (None, *queries.boundaries):
                extra = [] if boundary is None else ["--boundary", boundary]
                calls.append(Call(["coverage", path, "--format", fmt, *extra], n, 0,
                                  _coverage_check(key, boundary, fmt)))
        for loss in queries.losses:
            calls.append(Call(["trace", path, "--loss", loss], n, 0, expect_text(key.loss_trace(loss))))
        for node in queries.controllers:
            calls.append(Call(["trace", path, "--node", node], n, 0, expect_text(key.node_trace(node))))
        calls.append(Call(["hints", path], n, 0, _hints_check(key)))
        for boundary in queries.boundaries:
            calls.append(Call(["render", path, "--boundary", boundary], n, 0, _dot_check(key, boundary)))
        calls.append(Call(["report", path, "--format", "md"], n, 0,
                          expect_text(golden) if golden is not None else _report_md_check(key)))
        calls.append(Call(["report", path, "--format", "json"], n, 0, _report_json_check(key)))
        calls.append(Call(["fmt", path], n, 0, expect_text(canonical(doc))))
        pair = n + edited_key.stmts
        calls.append(Call(["diff", path, edited_path, "--impact"], pair, 0,
                          _diff_check(key, edited_key, "text")))
        calls.append(Call(["diff", path, edited_path, "--impact", "--format", "json"], pair, 0,
                          _diff_check(key, edited_key, "json")))
    return calls


#: The coverage gate the bulk-check workload applies.
FAIL_UNDER = 0.5


def bulk_check(root: Path, work: Path, seed: int, n: int) -> list[Call]:
    """The CI-gate subcommands on one large authored-style model."""
    doc = generate(n, seed)
    key = Key(doc)
    path = _write(root, work / f"bulk_n{n}.phase", authored(doc, seed))
    ratio = Key.counts(key.coverage())[3]
    return [
        Call(["check", path, "--strict"], key.stmts, 0, expect_text("")),
        Call(["fmt", path], key.stmts, 0, expect_text(canonical(doc))),
        Call(["coverage", path, "--format", "csv", "--fail-under", str(FAIL_UNDER)], key.stmts,
             1 if ratio < FAIL_UNDER else 0, _coverage_check(key, None, "csv")),
        Call(["hints", path], key.stmts, 0, _hints_check(key)),
        Call(["render", path], key.stmts, 0, _dot_check(key, None)),
    ]


#: Losses and controllers traced per round of the trace-review workload. With
#: four reports and one diff this puts the median call among the reports in
#: json and the 90th percentile among the markdown reports, each a block of
#: several samples, so that neither falls between two kinds of call.
TRACE_SAMPLE = 2


def trace_review(root: Path, work: Path, seed: int, n: int) -> list[Call]:
    """Reviewing a revision: reports on both versions, traces on the new one,
    and the diff with its impact."""
    old = generate(n, seed)
    new = revise(old, seed, max(1, n // 100))
    old_key, key = Key(old), Key(new)
    old_path = _write(root, work / f"review_n{n}_old.phase", authored(old, seed))
    path = _write(root, work / f"review_n{n}_new.phase", authored(new, f"{seed}/new"))
    rng = random.Random(f"trace-review/{n}/{seed}")
    calls = []
    for version, version_key in ((old_path, old_key), (path, key)):
        calls.append(Call(["report", version, "--format", "md"], version_key.stmts, 0,
                          _report_md_check(version_key)))
        calls.append(Call(["report", version, "--format", "json"], version_key.stmts, 0,
                          _report_json_check(version_key)))
    for loss in rng.sample(key.losses, min(TRACE_SAMPLE, len(key.losses))):
        calls.append(Call(["trace", path, "--loss", loss], key.stmts, 0, expect_text(key.loss_trace(loss))))
    for node in rng.sample(key.controllers, min(TRACE_SAMPLE, len(key.controllers))):
        calls.append(Call(["trace", path, "--node", node], key.stmts, 0, expect_text(key.node_trace(node))))
    calls.append(Call(["diff", old_path, path, "--impact", "--format", "json"],
                      old_key.stmts + key.stmts, 0, _diff_check(old_key, key, "json")))
    return calls


#: name -> (builder, size reported, size compared against for the scaling exponent)
WORKLOADS = {
    "casebook": (casebook, 1, 2),
    "bulk-check": (bulk_check, 2000, 1000),
    "trace-review": (trace_review, 1000, 500),
}
