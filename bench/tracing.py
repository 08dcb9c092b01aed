"""Spans around diffusekit's public functions, recorded from outside the package.

``Tracer.install()`` swaps the names that ``Session`` and the executor call
for wrappers that record one span per call, ``(name, start_ns, end_ns,
parent)``, and puts the originals back on exit. Spans stay in memory until
``write`` is called. A span's self time is its duration minus the durations
of its direct children, so the self times of all spans under one root add up
to the root's duration.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Iterator

from diffusekit import executor, pipeline
from diffusekit.kernels import KernelRegistry
from diffusekit.memo import MemoCache
from diffusekit.pipeline import Session

ROOT = "pipeline.run_events"

# (owner, attribute, span name). Module attributes are the names the pipeline
# and the executor look up at call time; class attributes cover every instance.
TARGETS = (
    (pipeline, "canonicalize", "memo.canonicalize"),
    (MemoCache, "lookup", "memo.lookup"),
    (MemoCache, "insert", "memo.insert"),
    (pipeline, "longest_fusible_prefix", "fusion.prefix"),
    (pipeline, "build_fused_task", "fusion.build"),
    (pipeline, "find_temporaries", "temporaries.find"),
    (KernelRegistry, "generate", "kernels.generate"),
    (pipeline, "compose", "kernels.compose"),
    (pipeline, "optimize", "kernels.optimize"),
    (pipeline, "count_memory_traffic", "kernels.traffic"),
    (executor, "interpret", "kernels.interpret"),
    (pipeline, "sub_store_bounds", "ir.bounds_traffic"),
    (executor, "sub_store_bounds", "ir.bounds_bind"),
    (pipeline, "execute_task", "executor.execute_task"),
    (Session, "submit", "pipeline.submit"),
    (Session, "drop_ref", "pipeline.drop_ref"),
    (Session, "flush", "pipeline.flush"),
    (Session, "finish", "pipeline.finish"),
)

# Per-layer metric -> the spans whose self times it sums. Every span name
# appears exactly once, so these metrics add up to the traced run time.
SELF_TIME_METRICS = {
    "memo.canonicalize_s": ("memo.canonicalize",),
    "memo.lookup_s": ("memo.lookup", "memo.insert"),
    "fusion.prefix_s": ("fusion.prefix",),
    "fusion.build_s": ("fusion.build",),
    "temporaries.find_s": ("temporaries.find",),
    "kernels.compile_s": ("kernels.generate", "kernels.compose", "kernels.optimize"),
    "kernels.interpret_s": ("kernels.interpret",),
    "kernels.traffic_s": ("kernels.traffic",),
    "ir.bounds_bind_s": ("ir.bounds_bind",),
    "ir.bounds_traffic_s": ("ir.bounds_traffic",),
    "executor.bind_s": ("executor.execute_task",),
    "pipeline.self_s": (
        ROOT,
        "pipeline.submit",
        "pipeline.drop_ref",
        "pipeline.flush",
        "pipeline.finish",
    ),
}

# Per-layer metric -> the spans whose calls it counts.
CALL_METRICS = {
    "memo.canonicalize_calls": ("memo.canonicalize",),
    "fusion.build_calls": ("fusion.build",),
    "kernels.compile_calls": ("kernels.generate", "kernels.compose", "kernels.optimize"),
    "kernels.interpret_calls": ("kernels.interpret",),
    "ir.bounds_calls": ("ir.bounds_bind", "ir.bounds_traffic"),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int] | None] = []
        self._stack = [-1]
        self.points = 0
        self.heap_peak_bytes = 0

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, stack[-1])

        return traced

    def _count_points(self, execute_task: Callable) -> Callable:
        """Count executed point tasks and the heap's peak size after each launch."""

        def counted(task, heap, *args, **kwargs):
            execute_task(task, heap, *args, **kwargs)
            self.points += task.domain.volume
            self.heap_peak_bytes = max(
                self.heap_peak_bytes, sum(a.nbytes for a in heap.arrays.values())
            )

        return counted

    @contextlib.contextmanager
    def install(self) -> Iterator["Tracer"]:
        saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in TARGETS]
        try:
            for owner, attr, name in TARGETS:
                fn = vars(owner)[attr]
                if name == "executor.execute_task":
                    fn = self._count_points(fn)
                setattr(owner, attr, self.wrap(name, fn))
            yield self
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    def totals(self) -> tuple[dict[str, int], dict[str, int]]:
        """Per span name: summed self time in ns, and number of calls."""
        inner = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                inner[parent] += end - start
        self_ns: dict[str, int] = defaultdict(int)
        calls: dict[str, int] = defaultdict(int)
        for (name, start, end, _), children in zip(self.spans, inner):
            self_ns[name] += end - start - children
            calls[name] += 1
        return self_ns, calls

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent) in enumerate(self.spans):
                record = {"id": index, "name": name, "start_ns": start, "end_ns": end, "parent": parent}
                fh.write(json.dumps(record) + "\n")
