"""The benchmark's tracer patches names by ``vars(owner)[attr]``; a refactor
that stops calling one of them loses that span silently. Every span it
declares must be recorded on a few small traces."""

from __future__ import annotations

import importlib.util
import inspect
from pathlib import Path

from diffusekit import pipeline
from diffusekit.pipeline import Session, SessionConfig, run_events
from diffusekit.trace import gen_benchmark

_TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_called():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    with tracer.install():
        for name, execute in [("stencil", True), ("jacobi", True), ("cg_like", False)]:
            run_events(Session(SessionConfig(execute=execute)), gen_benchmark(name, iters=3))
    _, calls = tracer.totals()
    declared = {span for _, _, span in tracing.TARGETS}
    assert len(declared) == 18
    assert sorted(declared - set(calls)) == []


def test_execute_task_takes_the_task_and_heap_first():
    """The tracer's point counter unpacks ``(task, heap, *rest)``."""
    assert list(inspect.signature(pipeline.execute_task).parameters)[:2] == ["task", "heap"]
