"""Spans around calls into hatlab's layers, recorded from outside the package.

A span has a name, a start, an end, the span that caused it and the id of the
operation it belongs to. Spans stay in memory; the runner writes them out when
the run ends. ``DecideShim`` counts and times ``Strategy.decide`` calls; it is
installed only in the traced run, because it adds a few hundred nanoseconds to
every play step.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._ops = 0

    def new_op(self) -> int:
        self._ops += 1
        return self._ops

    @contextmanager
    def span(self, name: str, op: int | None = None, **attrs):
        parent = self._stack[-1] if self._stack else None
        if op is None and parent is not None:
            op = parent["op"]
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": None if parent is None else parent["id"],
            "op": op,
            **attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec)
        rec["start"] = perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            self._stack.pop()

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]


def duration(span: dict) -> float:
    return span["end"] - span["start"]


class DecideShim:
    """Counts and times ``decide`` per strategy label.

    The wrapper is set as an instance attribute, which shadows the class's
    method for the engine's ``strat.decide`` lookup and is removed again by
    ``remove``. Only the strategies handed to the engine are wrapped, so a
    combined strategy's time includes its parts.
    """

    def __init__(self, strategies):
        self.strategies = list(strategies)
        self.calls: dict[str, int] = {}
        self.seconds: dict[str, float] = {}

    def install(self) -> None:
        for strat in self.strategies:
            strat.decide = self._wrap(strat.decide, strat.label)

    def remove(self) -> None:
        for strat in self.strategies:
            del strat.decide

    def _wrap(self, inner, label):
        calls, seconds = self.calls, self.seconds
        calls.setdefault(label, 0)
        seconds.setdefault(label, 0.0)

        def decide(t, seen, heard):
            start = perf_counter()
            guess = inner(t, seen, heard)
            seconds[label] += perf_counter() - start
            calls[label] += 1
            return guess

        return decide

    def snapshot(self) -> tuple[dict[str, int], dict[str, float]]:
        return dict(self.calls), dict(self.seconds)
