"""The phasekit benchmark.

    python3 bench/run.py --workload casebook --seed 1 --seconds 30 --trace 0

Run it from the root of a phasekit checkout. It builds its inputs from the
seed under ``.bench_work/``, checks every output against answers computed
from the generator's own data (or the committed goldens), and prints one
JSON object as its last line of output.

``--trace 0`` measures end to end: a closed loop with one client runs the
workload's calls as ``python -m phasekit ...`` subprocesses, one at a time,
in whole rounds, for at least ``--seconds`` seconds and two rounds. Each
call's wall time is scaled by the speed of a fixed Python loop timed just
before and after it, so drift in the host's speed does not read as a change
in phasekit (see REFERENCE_S).
``--trace 1`` gives the per-layer numbers instead: it runs the calls
in-process through ``phasekit.cli.run`` once to warm up, once untraced, once
with spans around every layer function, and once traced at a second model
size for the scaling exponents. ``--seconds`` does not apply to it.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import math
import os
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

from spans import LAYERS, Recorder, installed
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(".bench_work")
#: Files a checkout must hold for the benchmark to run.
REQUIRED = ("src/phasekit/cli.py", "fixtures/c1.phase", "tests/goldens/c1_report.md")

SETUP_REPEATS = 5
MIN_ROUNDS = 2
#: In-process rounds per traced pass; casebook calls take milliseconds
#: in-process, so it takes several rounds to get measurable layer times.
TRACE_ROUNDS = {"casebook": 5, "bulk-check": 1, "trace-review": 1}
IMPORT_PAIRS = 10
#: The reference loop and the time it is scaled to. phasekit is pure Python,
#: so on a shared host its speed drifts with this loop's by tens of percent
#: over minutes; end-to-end times are reported as if the loop took
#: REFERENCE_S, a typical time for it under CPython 3.11 on a 2-vCPU cloud VM.
REFERENCE_LOOPS = 50_000
REFERENCE_S = 0.005
COUNTED = ("dsl.parse", "analysis.coverage", "analysis.trace_loss", "model.lookup")
DEADLINE_S = 170


class Deadline(Exception):
    """The run would not end in time."""


def _on_alarm(signum, frame):
    raise Deadline


class Runner:
    """Starts Python children one at a time with stdout and stderr in files,
    and reads each child's resource usage as it is reaped."""

    def __init__(self, work: Path) -> None:
        self.stdin = ROOT / work / "stdin"
        self.stdout = ROOT / work / "stdout"
        self.stderr = ROOT / work / "stderr"
        self.stdin.write_bytes(b"")
        self.env = {
            "PATH": os.environ.get("PATH", os.defpath),
            "PYTHONPATH": str(ROOT / "src"),
            "PYTHONIOENCODING": "utf-8",
            "NO_COLOR": "1",
        }

    def python(self, args: list[str]) -> tuple[int, str, str, float, float]:
        """(exit code, stdout, stderr, wall seconds, max RSS in MB)."""
        with open(self.stdin, "rb") as fin, open(self.stdout, "wb") as fout, \
                open(self.stderr, "wb") as ferr:
            actions = [
                (os.POSIX_SPAWN_DUP2, fin.fileno(), 0),
                (os.POSIX_SPAWN_DUP2, fout.fileno(), 1),
                (os.POSIX_SPAWN_DUP2, ferr.fileno(), 2),
            ]
            start = perf_counter()
            pid = os.posix_spawn(sys.executable, [sys.executable, *args], self.env,
                                 file_actions=actions)
            try:
                _, status, usage = os.wait4(pid, 0)
            except BaseException:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                raise
            wall = perf_counter() - start
        out = self.stdout.read_bytes().decode("utf-8", "replace")
        err = self.stderr.read_bytes().decode("utf-8", "replace")
        return os.waitstatus_to_exitcode(status), out, err, wall, usage.ru_maxrss / 1024

    def check_import(self) -> str | None:
        """Import phasekit in a child, filling the .pyc cache; complain if it
        does not come from this checkout."""
        code, out, err, _, _ = self.python(["-c", "import phasekit.cli; print(phasekit.cli.__file__)"])
        if code != 0 or Path(out.strip()) != ROOT / "src" / "phasekit" / "cli.py":
            return f"phasekit did not import from {ROOT / 'src'}: {(err or out).strip()}"
        return None


def verify(call, code: int, out: str, err: str, digests: dict) -> str | None:
    """Why a call's result is wrong, or None."""
    if code != call.exit:
        return f"exit {code}, expected {call.exit}: {err.strip()[:200]}"
    if err:
        return f"unexpected stderr: {err.strip()[:200]}"
    digest = hashlib.sha256(out.encode("utf-8", "surrogateescape")).hexdigest()
    if digests.setdefault(tuple(call.args), digest) != digest:
        return "stdout differs from an earlier identical call"
    try:
        return call.check(out)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {exc!r}"


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def reference_s() -> float:
    """Time a fixed pure-Python loop."""
    start = perf_counter()
    total = 0
    for i in range(REFERENCE_LOOPS):
        total += i * i % 7
    return perf_counter() - start


def timed(action) -> tuple[object, float]:
    """Run ``action``, returning its result and its time scaled to the
    reference speed, with the reference loop timed before and after it."""
    before = reference_s()
    start = perf_counter()
    result = action()
    elapsed = perf_counter() - start
    return result, elapsed * REFERENCE_S * 2 / (before + reference_s())


def end_to_end(name: str, seed: int, seconds: int, work: Path, runner: Runner) -> dict:
    build, size, _ = WORKLOADS[name]
    setups = []
    for _ in range(SETUP_REPEATS):
        (calls, problem), setup_s = timed(lambda: (build(ROOT, work, seed, size), runner.check_import()))
        setups.append(setup_s)
        if problem:
            raise SystemExit(problem)

    walls, peaks, failures, digests = [], [], [], {}
    stmts = rounds = 0
    start = perf_counter()
    while rounds < MIN_ROUNDS or perf_counter() - start < seconds:
        for call in calls:
            (code, out, err, _, peak), wall = timed(
                lambda: runner.python(["-m", "phasekit", *call.args])
            )
            problem = verify(call, code, out, err, digests)
            if problem:
                failures.append((call.args, problem))
            walls.append(wall)
            peaks.append(peak)
            stmts += call.stmts
        rounds += 1

    report_failures(failures)
    attempted = len(walls)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            "stmts_per_s": _metric(stmts / sum(walls), "stmt/s"),
            "call_ms_p50": _metric(statistics.median(walls) * 1000, "ms"),
            "call_ms_p90": _metric(
                statistics.quantiles(walls, n=10, method="inclusive")[8] * 1000, "ms"
            ),
            "peak_rss_mb": _metric(max(peaks), "MB"),
            "pass_ratio": _metric((attempted - len(failures)) / attempted, "ratio"),
            "setup_s": _metric(statistics.median(setups), "s"),
        },
    }


def per_layer(name: str, seed: int, work: Path, runner: Runner) -> dict:
    build, size, other = WORKLOADS[name]
    problem = runner.check_import()
    if problem:
        raise SystemExit(problem)
    sys.path.insert(0, str(ROOT / "src"))
    import phasekit.cli

    calls = build(ROOT, work, seed, size)
    other_calls = build(ROOT, work, seed, other)
    rounds = TRACE_ROUNDS[name]
    failures, digests, checked = [], {}, []

    def run_pass(batch, recorder=None) -> float:
        """Run every call ``rounds`` times, check the outputs, and return the
        time taken, scaled like the end-to-end times."""
        def run_all() -> list:
            results = []
            for r in range(rounds):
                for i, call in enumerate(batch):
                    if recorder is not None:
                        recorder.call_id = r * len(batch) + i
                    out, err = io.StringIO(), io.StringIO()
                    code = phasekit.cli.run(call.args, stdin=io.StringIO(), stdout=out, stderr=err)
                    results.append((call, code, out.getvalue(), err.getvalue()))
            return results

        gc.collect()
        results, elapsed = timed(run_all)
        for call, code, out, err in results:
            problem = verify(call, code, out, err, digests)
            if problem:
                failures.append((call.args, problem))
        checked.append(len(results))
        return elapsed

    run_pass(calls)  # warm-up: first-call costs stay out of the comparison
    untraced_s = run_pass(calls)
    main = Recorder()
    with installed(main):
        traced_s = run_pass(calls, main)
    compared = Recorder()
    with installed(compared):
        run_pass(other_calls, compared)
    (ROOT / work / f"spans-{seed}.json").write_text(json.dumps(
        {"sizes": [size, other], "spans": [main.records(), compared.records()]}
    ))

    totals, other_totals = main.totals(), compared.totals()
    doubling = math.log2(max(size, other) / min(size, other))
    metrics = {}
    for module, function in LAYERS:
        layer = f"{module}.{function}"
        self_s, _ = totals.get(layer, (0.0, 0))
        other_s, _ = other_totals.get(layer, (0.0, 0))
        large, small = (self_s, other_s) if size > other else (other_s, self_s)
        metrics[f"{layer}.self_ms"] = _metric(self_s * 1000 / rounds, "ms")
        metrics[f"{layer}.exponent"] = _metric(
            math.log2(large / small) / doubling if large > 0 and small > 0 else 0.0, "log2"
        )
    for layer in COUNTED:
        metrics[f"{layer}.calls"] = _metric(totals.get(layer, (0.0, 0))[1] / rounds, "count")
    parse_s = totals["dsl.parse"][0]
    metrics["dsl.parse.stmts_per_s"] = _metric(
        sum(call.stmts for call in calls) * rounds / parse_s, "stmt/s"
    )
    metrics["startup.import_ms"] = _metric(startup_import_ms(runner), "ms")
    metrics["trace.overhead_pct"] = _metric((traced_s / untraced_s - 1) * 100, "%")

    report_failures(failures)
    return {"correct": not failures, "attempted": sum(checked), "failed": len(failures),
            "metrics": metrics}


def startup_import_ms(runner: Runner) -> float:
    """``python -c "import phasekit.cli"`` minus ``python -c pass``, medians."""
    bare, imported = [], []
    for _ in range(IMPORT_PAIRS):
        bare.append(runner.python(["-c", "pass"])[3])
        imported.append(runner.python(["-c", "import phasekit.cli"])[3])
    return (statistics.median(imported) - statistics.median(bare)) * 1000


def report_failures(failures: list) -> None:
    for args, problem in failures[:10]:
        print(f"FAILED phasekit {' '.join(args)}: {problem}", file=sys.stderr)
    if len(failures) > 10:
        print(f"... and {len(failures) - 10} more failures", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [path for path in REQUIRED if not (ROOT / path).is_file()]
    if missing:
        print(f"bench: not a phasekit checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    work = WORK / args.workload
    (ROOT / work).mkdir(parents=True, exist_ok=True)
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(DEADLINE_S)
    runner = Runner(work)
    try:
        if args.trace:
            result = per_layer(args.workload, args.seed, work, runner)
        else:
            result = end_to_end(args.workload, args.seed, args.seconds, work, runner)
    except Deadline:
        print(f"bench: stopped after {DEADLINE_S} s", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
