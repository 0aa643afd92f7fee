"""Spans around the program's public functions, recorded from outside ``src/``.

The tracer swaps module attributes of the program for wrappers while a
traced request runs, and swaps the originals back afterwards, so the
untraced requests of the same process run the unmodified program.  Spans
live in memory as ``[name, start, end, parent, request]`` rows (times from
``time.perf_counter``) and are written out once, when the run ends.  A
span's self time is its duration minus the durations of its child spans;
the program is single-threaded, so children never overlap.

A wrapped name that the program no longer has is reported as an absent
layer rather than an error.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from importlib import import_module
from pathlib import Path
from typing import Any, Callable, Optional

SPAN_FIELDS = ["name", "start", "end", "parent", "request"]

# (module, attribute, span name, layer).  The oracle reaches the kernel,
# the enumeration and its witness replay through its own module globals,
# so those are wrapped where the oracle looks them up.
TARGETS = [
    ("repairalloc.oracle", "oracle_optimal", "oracle", "oracle"),
    ("repairalloc.oracle", "enumerate_feasible_allocations", "oracle.enumerate", "oracle"),
    ("repairalloc._kernel", "solve_allocation", "_kernel.search", "_kernel"),
    ("repairalloc.oracle", "simulate", "engine.replay", "engine"),
    ("repairalloc.engine", "simulate", "engine.simulate", "engine"),
    ("repairalloc.engine", "verify_trace", "engine.verify", "engine"),
    ("repairalloc.allocation", "allocate_budgeted", "allocation.allocate_budgeted", "allocation"),
    ("repairalloc.allocation", "run_online_policy", "allocation.run_online", "allocation"),
]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.counts: Counter[str] = Counter()
        self.request = -1
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._work = 0  # bumped by every kernel search and witness replay
        self._saved: list[tuple[Any, str, Any]] = []
        self._wrappers: list[tuple[Any, str, Any]] = []
        for module_name, attr, span, layer in TARGETS:
            try:
                module = import_module(module_name)
            except ImportError:
                module = None
            original = getattr(module, attr, None)
            if original is None:
                if layer not in self.absent:
                    self.absent.append(layer)
                continue
            if span == "oracle.enumerate":
                wrapper = self._wrap_enumeration(original)
            else:
                wrapper = self._wrap(original, span, _COUNTERS.get(span))
            self._wrappers.append((module, attr, wrapper))

    # -- spans ---------------------------------------------------------

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.request])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    # -- wrapping ------------------------------------------------------

    def install(self) -> None:
        for module, attr, wrapper in self._wrappers:
            self._saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def policy(self, inner):
        """Delegate to ``inner``, with a span around every ``select``."""
        return _TracedPolicy(inner, self)

    def _wrap(self, fn: Callable, span: str, count: Optional[Callable]) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer.begin(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(index)
            if count is not None:
                count(tracer, args, result)
            return result

        return wrapper

    def _wrap_enumeration(self, fn: Callable) -> Callable:
        """Time every yield of the allocation enumeration.

        An allocation counts as searched when a kernel search or a witness
        replay ran between its yield and the next one.  Over-budget
        assignments are those the enumeration scanned but did not yield:
        all (M+1)^N when it ran to the end, and up to the last yielded
        assignment when the oracle stopped it early.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(scenario, *args, **kwargs):
            inner = fn(scenario, *args, **kwargs)
            yielded = 0
            last = None
            exhausted = False
            mark: Optional[int] = None
            try:
                while True:
                    index = tracer.begin("oracle.enumerate")
                    try:
                        allocation = next(inner)
                    except StopIteration:
                        exhausted = True
                        return
                    finally:
                        tracer.end(index)
                        if mark is not None and tracer._work != mark:
                            tracer.counts["oracle.allocations_searched"] += 1
                        mark = None
                    yielded += 1
                    last = allocation
                    mark = tracer._work
                    yield allocation
            finally:
                inner.close()
                if mark is not None and tracer._work != mark:
                    tracer.counts["oracle.allocations_searched"] += 1
                m, n = len(scenario.entities), len(scenario.nodes)
                if exhausted:
                    scanned = (m + 1) ** n
                elif last is not None:
                    scanned = _assignment_index(scenario, last) + 1
                else:
                    scanned = 0
                tracer.counts["oracle.allocations_enumerated"] += yielded
                tracer.counts["oracle.allocations_over_budget"] += scanned - yielded

        return wrapper

    # -- results -------------------------------------------------------

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-layer figures keyed by metric name: totals are per pass over the pool."""
        duration = [end - start for _, start, end, _, _ in self.spans]
        child = [0.0] * len(self.spans)
        for i, row in enumerate(self.spans):
            if row[3] >= 0:
                child[row[3]] += duration[i]
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter[str] = Counter()
        for i, row in enumerate(self.spans):
            self_s[row[0]] += duration[i] - child[i]
            calls[row[0]] += 1
        total = sum(d for d, row in zip(duration, self.spans) if row[0] == "request")
        longest_search = max((d for d, row in zip(duration, self.spans) if row[0] == "_kernel.search"), default=0.0)
        c = self.counts
        enumerated = c["oracle.allocations_enumerated"]
        node_steps = c["engine.simulate_node_steps"]
        per_pass = {
            "_kernel.search_s": self_s["_kernel.search"],
            "_kernel.calls": calls["_kernel.search"],
            "_kernel.witness_steps": c["_kernel.witness_steps"],
            "oracle.enumerate_s": self_s["oracle.enumerate"],
            "oracle.allocations_enumerated": enumerated,
            "oracle.allocations_over_budget": c["oracle.allocations_over_budget"],
            "oracle.allocations_searched": c["oracle.allocations_searched"],
            "oracle.self_s": self_s["oracle"],
            "engine.replay_s": self_s["engine.replay"],
            "engine.replay_calls": calls["engine.replay"],
            "engine.replay_steps": c["engine.replay_steps"],
            "engine.simulate_s": self_s["engine.simulate"],
            "engine.simulate_steps": c["engine.simulate_steps"],
            "engine.verify_s": self_s["engine.verify"],
            "policies.select_s": self_s["policies.select"],
            "policies.select_calls": calls["policies.select"],
            "allocation.allocate_budgeted_s": self_s["allocation.allocate_budgeted"],
            "allocation.run_online_s": self_s["allocation.run_online"],
            "allocation.online_steps": c["allocation.online_steps"],
            "trace.total_s": total,
            "trace.request_self_s": self_s["request"],
        }
        metrics = {name: value / passes for name, value in per_pass.items()}
        metrics["_kernel.search_max_ms"] = longest_search * 1000.0
        metrics["oracle.searched_frac"] = c["oracle.allocations_searched"] / enumerated if enumerated else 0.0
        metrics["engine.us_per_node_step"] = self_s["engine.simulate"] / node_steps * 1e6 if node_steps else 0.0
        return metrics

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({**header, "fields": SPAN_FIELDS, "spans": self.spans}, handle)


class _TracedPolicy:
    def __init__(self, inner, tracer: Tracer) -> None:
        self.inner = inner
        self.time_invariant = inner.time_invariant
        self._tracer = tracer

    def select(self, *args, **kwargs):
        index = self._tracer.begin("policies.select")
        try:
            return self.inner.select(*args, **kwargs)
        finally:
            self._tracer.end(index)


def _assignment_index(scenario, allocation) -> int:
    """Position of an allocation in the oracle's lexicographic assignment order."""
    owner = {nid: k + 1 for k, eid in enumerate(scenario.entity_ids) for nid in allocation.nodes_of(eid)}
    index = 0
    for node in scenario.nodes:
        index = index * (len(scenario.entities) + 1) + owner.get(node.id, 0)
    return index


def _count_kernel(tracer: Tracer, args, result) -> None:
    tracer._work += 1
    tracer.counts["_kernel.witness_steps"] += len(result[1])


def _count_replay(tracer: Tracer, args, result) -> None:
    tracer._work += 1
    tracer.counts["engine.replay_steps"] += result[0].terminal_step


def _count_simulate(tracer: Tracer, args, result) -> None:
    steps = result[0].terminal_step
    tracer.counts["engine.simulate_steps"] += steps
    tracer.counts["engine.simulate_node_steps"] += steps * len(result[0].node_ids)


def _count_online(tracer: Tracer, args, result) -> None:
    tracer.counts["allocation.online_steps"] += result.trace.terminal_step


_COUNTERS = {
    "_kernel.search": _count_kernel,
    "engine.replay": _count_replay,
    "engine.simulate": _count_simulate,
    "allocation.run_online": _count_online,
}
