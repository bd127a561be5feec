"""Span recording around phasekit's layer functions, installed from outside.

A wrapper replaces each layer function on every ``phasekit.*`` module that
binds it (``lookup`` is bound in ``model``, ``analysis`` and ``cli``;
``metrics`` reaches ``coverage`` through the ``analysis`` globals), so calls
between modules are recorded too. Spans stay in memory until written out.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from time import perf_counter

#: The layers a traced pass records, as (module, function).
LAYERS = (
    ("cli", "run"),
    ("dsl", "parse"),
    ("dsl", "serialize"),
    ("analysis", "validate"),
    ("analysis", "coverage"),
    ("analysis", "hints"),
    ("analysis", "metrics"),
    ("analysis", "trace_loss"),
    ("analysis", "trace_node"),
    ("model", "lookup"),
    ("diff", "diff"),
    ("diff", "impact"),
    ("export", "to_dot"),
    ("export", "coverage_csv"),
    ("export", "coverage_json"),
    ("export", "report_markdown"),
    ("export", "report_json"),
)


class Recorder:
    """Spans as ``[name, start, end, parent index, call id]`` lists."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.call_id = 0
        self._open: list[int] = []

    def wrap(self, name: str, function):
        spans, stack = self.spans, self._open

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1, self.call_id])
            stack.append(index)
            try:
                return function(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = perf_counter()

        return wrapper

    def totals(self) -> dict[str, tuple[float, int]]:
        """Per layer: self time in seconds (duration minus the time its
        child spans cover) and number of calls."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, tuple[float, int]] = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            self_time, calls = totals.get(name, (0.0, 0))
            totals[name] = (self_time + end - start - covered[index], calls + 1)
        return totals

    def records(self) -> list[dict]:
        return [
            {"name": name, "start": start, "end": end, "parent": parent, "call": call}
            for name, start, end, parent, call in self.spans
        ]


@contextmanager
def installed(recorder: Recorder):
    """Route every binding of a layer function through ``recorder``."""
    wrappers = {}
    for module, function in LAYERS:
        original = getattr(sys.modules[f"phasekit.{module}"], function)
        wrappers[id(original)] = recorder.wrap(f"{module}.{function}", original)
    patched = []
    for name, module in list(sys.modules.items()):
        if name == "phasekit" or name.startswith("phasekit."):
            for attr, value in vars(module).items():
                if id(value) in wrappers:
                    patched.append((module, attr, value))
    for module, attr, value in patched:
        setattr(module, attr, wrappers[id(value)])
    try:
        yield recorder
    finally:
        for module, attr, value in patched:
            setattr(module, attr, value)
