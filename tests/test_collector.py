"""``cli.run`` pauses the cyclic garbage collector for each run. That is safe
only if a run leaves no reference cycles among phasekit's objects, and only
polite if the collector, and what it has frozen, are left as the caller had
them."""

from __future__ import annotations

import argparse
import gc
import io

import pytest

from phasekit.cli import run

from .conftest import fixture_path, load_fixture


def _runs():
    """Every subcommand on each fixture, named by fixture rather than path."""
    for name, other_name in (("c1", "c2"), ("c2", "c1"), ("c3", "c1")):
        path, other = str(fixture_path(name)), str(fixture_path(other_name))
        model = load_fixture(name)
        for argv in (
            ["check", path],
            ["check", path, "--strict"],
            *(["coverage", path, "--format", fmt] for fmt in ("table", "csv", "json")),
            ["coverage", path, "--fail-under", "1"],
            ["trace", path, "--loss", model.losses[0].id],
            ["trace", path, "--node", model.nodes[0].id],
            ["hints", path],
            ["render", path],
            ["render", path, "--boundary", model.boundaries[0].id],
            ["report", path, "--format", "md"],
            ["report", path, "--format", "json"],
            ["diff", other, path, "--impact"],
            ["diff", other, path, "--impact", "--format", "json"],
            ["fmt", path],
            ["fmt", path, "--check"],
        ):
            shown = " ".join(argv).replace(path, name).replace(other, other_name)
            yield pytest.param(argv, id=shown)


def _cyclic_garbage(argv: list[str]) -> list:
    """The objects that only the cyclic collector frees after one run."""
    enabled = gc.isenabled()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run(argv, stdin=io.StringIO(), stdout=io.StringIO(), stderr=io.StringIO())
        gc.collect()
        return list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()


@pytest.mark.parametrize("argv", list(_runs()))
def test_runs_leave_no_phasekit_objects_in_cycles(argv):
    # argparse's parsers refer to each other; that cycle is argparse's own,
    # though the parsers are instances of phasekit's subclass.
    leaked = [
        type(obj).__qualname__
        for obj in _cyclic_garbage(argv)
        if type(obj).__module__.startswith("phasekit")
        and not isinstance(obj, argparse.ArgumentParser)
    ]
    assert leaked == []


class _BrokenPipe(io.StringIO):
    """A stdout whose reader has gone; it notes whether the collector was on
    when the run wrote to it."""

    def __init__(self) -> None:
        super().__init__()
        self.collector_on: list[bool] = []

    def write(self, text: str) -> int:
        self.collector_on.append(gc.isenabled())
        raise BrokenPipeError


INVALID = 'loss L1 "l" category=sociotechnical\nhazard H1 "h" boundary=SB leads_to=[L1]\n'
SELF_LOOP = 'node A "a" kind=human\naction CA1 from=A to=A "self"\n'


@pytest.fixture
def collector():
    """Restores the collector to on, whatever a test left it as."""
    yield
    gc.enable()


@pytest.mark.parametrize("initially", [True, False], ids=["caller-on", "caller-off"])
@pytest.mark.parametrize(
    "argv,stdin,code",
    [
        (["check", str(fixture_path("c1"))], "", 0),
        (["check", "-", "--strict"], SELF_LOOP, 1),
        (["check", "-"], INVALID, 2),
        (["frobnicate"], "", 3),
        (["trace", str(fixture_path("c1")), "--loss", "L99"], "", 3),
    ],
    ids=["exit-0", "exit-1", "exit-2", "exit-3", "unknown-reference"],
)
def test_collector_state_is_restored(collector, initially, argv, stdin, code):
    (gc.enable if initially else gc.disable)()
    frozen = gc.get_freeze_count()
    out, err = io.StringIO(), io.StringIO()
    assert run(argv, stdin=io.StringIO(stdin), stdout=out, stderr=err) == code
    assert gc.isenabled() is initially
    # Only the process entry point, cli.main, freezes the heap.
    assert gc.get_freeze_count() == frozen


@pytest.mark.parametrize("initially", [True, False], ids=["caller-on", "caller-off"])
def test_collector_state_is_restored_after_version(collector, initially, capsys):
    (gc.enable if initially else gc.disable)()
    assert run(["--version"]) == 0
    assert capsys.readouterr().out.startswith("phasekit ")
    assert gc.isenabled() is initially


@pytest.mark.parametrize("initially", [True, False], ids=["caller-on", "caller-off"])
def test_collector_is_off_during_a_run_and_restored_after_broken_pipe(collector, initially):
    (gc.enable if initially else gc.disable)()
    stdout = _BrokenPipe()
    assert run(["hints", str(fixture_path("c1"))], stdin=io.StringIO(), stdout=stdout,
               stderr=io.StringIO()) == 0
    assert stdout.collector_on == [False]
    assert gc.isenabled() is initially
