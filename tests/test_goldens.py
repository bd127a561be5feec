"""Byte-exact goldens for CLI output and diagnostics.

Each case runs one CLI invocation in-process from the repository root and
compares its exit code, stdout and stderr with what is stored under
``tests/goldens/cli``: ``cases.json`` holds the argv and exit code of every
case, ``<case>.stdout`` and ``<case>.stderr`` the streams (a missing file
means the stream was empty). The input documents live in
``tests/goldens/inputs``. Diagnostics that no document can produce (V002,
V004) are pinned from a programmatic model in ``validate_programmatic.txt``.

The goldens are written by running this module as a script
(``PYTHONPATH=src python -m tests.test_goldens``). Regenerate them only for a
deliberate change of output, and review the diff.
"""

from __future__ import annotations

import io
import json
from pathlib import Path

import pytest

from phasekit import (
    Edge,
    EdgeKind,
    GuideType,
    Hazard,
    Loss,
    LossCategory,
    Model,
    Node,
    NodeKind,
    SafetyRequirement,
    SystemBoundary,
    Uca,
    UcaCategory,
    validate,
)
from phasekit.cli import run

ROOT = Path(__file__).resolve().parent.parent
GOLDENS = Path(__file__).resolve().parent / "goldens"
CLI_GOLDENS = GOLDENS / "cli"
INPUTS = "tests/goldens/inputs"

_TRACE_NODES = {"c1": "Physician", "c2": "InsulinPump", "c3": "Artist"}


def _cases() -> dict[str, list[str]]:
    """Case name -> argv, paths relative to the repository root."""
    cases: dict[str, list[str]] = {}
    for name in ("c1", "c2", "c3"):
        path = f"fixtures/{name}.phase"
        revision = f"{INPUTS}/{name}_rev.phase"
        # The invocations of the CLI determinism acceptance test.
        cases.update({
            f"{name}_check": ["check", path],
            f"{name}_coverage": ["coverage", path],
            f"{name}_coverage_csv": ["coverage", path, "--format", "csv"],
            f"{name}_coverage_json": ["coverage", path, "--format", "json"],
            f"{name}_trace_loss": ["trace", path, "--loss", "L1"],
            f"{name}_trace_node": ["trace", path, "--node", _TRACE_NODES[name]],
            f"{name}_hints": ["hints", path],
            f"{name}_render": ["render", path],
            f"{name}_report_json": ["report", path, "--format", "json"],
            f"{name}_report_md": ["report", path, "--format", "md"],
            f"{name}_diff_self": ["diff", path, path],
            f"{name}_diff_self_impact_json": ["diff", path, path, "--impact", "--format", "json"],
            f"{name}_fmt": ["fmt", path],
        })
        # Against an edited revision: together the three revisions change a
        # field of every element class and remove referenced elements.
        cases[f"{name}_diff_rev_impact"] = ["diff", path, revision, "--impact"]
        # Without --impact: the JSON document with no impact section.
        cases[f"{name}_diff_rev_json"] = ["diff", path, revision, "--format", "json"]
        cases[f"{name}_diff_rev_impact_json"] = [
            "diff", path, revision, "--impact", "--format", "json",
        ]
    cases["parse_errors_check"] = ["check", f"{INPUTS}/parse_errors.phase"]
    cases["semantic_errors_check"] = ["check", f"{INPUTS}/semantic_errors.phase"]
    # hints loads a model as check does: errors exit 2 with the same stderr.
    cases["semantic_errors_hints"] = ["hints", f"{INPUTS}/semantic_errors.phase"]
    cases["coverage_c001"] = ["coverage", f"{INPUTS}/coverage_c001.phase"]
    # The only CLI document with a non-empty warnings list.
    cases["coverage_c001_json"] = [
        "coverage", f"{INPUTS}/coverage_c001.phase", "--format", "json",
    ]
    # A control cycle with a tail, a self-loop and a parallel edge, drawn
    # whole and inside a boundary that cuts the cycle open.
    cycle = f"{INPUTS}/control_cycle.phase"
    cases["control_cycle_render"] = ["render", cycle]
    cases["control_cycle_render_boundary"] = ["render", cycle, "--boundary", "Scope"]
    # Its diagnostics list holds one V100 warning.
    cases["control_cycle_report_json"] = ["report", cycle, "--format", "json"]
    # Refused before stdin is read, so the case needs no input.
    cases["diff_stdin_twice"] = ["diff", "-", "-"]
    return cases


def _invoke(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def _programmatic_model() -> Model:
    """Empty required reference lists (V004) and a uca attached to the wrong
    node (V002): neither can come from a parsed document."""
    return Model(
        name="programmatic",
        losses=(Loss("L1", "Loss", LossCategory.SAFETY_CRITICAL),),
        boundaries=(SystemBoundary("B1", "Boundary", includes=("N1", "N2")),),
        hazards=(Hazard("H1", "Hazard", "B1", ()),),
        nodes=(
            Node("N1", "Controller", NodeKind.HUMAN),
            Node("N2", "Process", NodeKind.AI_MODEL),
        ),
        edges=(Edge("A1", EdgeKind.CONTROL_ACTION, "N1", "N2", "control"),),
        ucas=(
            Uca("U1", "N1", "A1", GuideType.PROVIDED, UcaCategory.FUNCTIONAL, "c", ()),
            Uca("U2", "N2", "A1", GuideType.WRONG_TIMING, UcaCategory.FUNCTIONAL, "c", ("H1",)),
        ),
        requirements=(SafetyRequirement("R1", (), "Requirement"),),
    )


def _validate_programmatic() -> str:
    return "".join(d.format() + "\n" for d in validate(_programmatic_model()))


def _stored(case: str, stream: str) -> str:
    path = CLI_GOLDENS / f"{case}.{stream}"
    return path.read_bytes().decode("utf-8") if path.exists() else ""


def _index() -> dict:
    return json.loads((CLI_GOLDENS / "cases.json").read_text(encoding="utf-8"))


def test_golden_cases_match_the_index():
    assert {name: entry["argv"] for name, entry in _index().items()} == _cases()


@pytest.mark.parametrize("case", sorted(_cases()))
def test_cli_golden(case, monkeypatch):
    monkeypatch.chdir(ROOT)
    entry = _index()[case]
    code, out, err = _invoke(entry["argv"])
    assert code == entry["exit"]
    assert out == _stored(case, "stdout")
    assert err == _stored(case, "stderr")


def test_case_study_reports_match_their_cli_goldens():
    # The bundled reports are the stdout the CLI goldens pin for report --format md.
    for name in ("c1", "c2", "c3"):
        stored = (GOLDENS / f"{name}_report.md").read_bytes().decode("utf-8")
        assert _stored(f"{name}_report_md", "stdout") == stored


def test_validate_programmatic_golden():
    stored = (GOLDENS / "validate_programmatic.txt").read_bytes().decode("utf-8")
    assert _validate_programmatic() == stored


def _capture() -> None:
    import os

    os.chdir(ROOT)
    CLI_GOLDENS.mkdir(parents=True, exist_ok=True)
    index = {}
    for case, argv in _cases().items():
        code, out, err = _invoke(argv)
        index[case] = {"argv": argv, "exit": code}
        for stream, text in (("stdout", out), ("stderr", err)):
            path = CLI_GOLDENS / f"{case}.{stream}"
            if text:
                path.write_text(text, encoding="utf-8", newline="")
            elif path.exists():
                path.unlink()
    (CLI_GOLDENS / "cases.json").write_text(
        json.dumps(index, indent=2) + "\n", encoding="utf-8"
    )
    (GOLDENS / "validate_programmatic.txt").write_text(
        _validate_programmatic(), encoding="utf-8", newline=""
    )


if __name__ == "__main__":
    _capture()
