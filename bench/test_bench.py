"""Quick tests of the benchmark itself, at tiny make-ups.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import run
import tracing
from diffusekit.pipeline import Session

TINY = {
    "cg_analyze": dict(size=32, nodes=8, iters=4),
    "stencil_fine": dict(size=10, nodes=2, iters=3),
    "chain_large": dict(size=64, nodes=4, iters=3),
}


def tiny(name: str) -> run.Workload:
    return replace(run.WORKLOADS[name], **TINY[name])


def declared_units(kind: str) -> dict[str, str]:
    spec = json.loads((run.BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_tiny_workload_passes_its_checks(name, traced):
    result = run.run(tiny(name), seed=3, seconds=0, traced=traced)
    assert result["correct"] and result["failed"] == 0
    # The warm-up round and one measured round, each checked at every iteration.
    assert result["attempted"] == 2 * TINY[name]["iters"]
    reported = {k: m["unit"] for k, m in result["metrics"].items()}
    assert reported == declared_units("per_layer" if traced else "end_to_end")


def _corrupt_grid(session):
    session.heap.arrays[0][1, 1] += 1.0


def _corrupt_out(session):
    session.heap.arrays[2][0] += 1.0


def _corrupt_prefixes(session):
    session.report.fused_prefixes[-1] += 1


CORRUPT = {
    "stencil_fine": _corrupt_grid,
    "chain_large": _corrupt_out,
    "cg_analyze": _corrupt_prefixes,
}


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_corrupted_output_fails_the_check(name, monkeypatch):
    flush = Session.flush

    def corrupted_flush(self):
        flush(self)
        if getattr(self, "check", None) is not None:
            CORRUPT[name](self)

    monkeypatch.setattr(Session, "flush", corrupted_flush)
    result = run.run(tiny(name), seed=3, seconds=0, traced=False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_self_times_add_up_to_traced_run_time(name):
    metrics = run.run(tiny(name), seed=3, seconds=0, traced=True)["metrics"]
    total = sum(metrics[m]["value"] for m in tracing.SELF_TIME_METRICS)
    # run_s is clocked around the root span, so it also holds the root
    # wrapper's own few microseconds.
    assert total == pytest.approx(metrics["pipeline.run_s"]["value"], rel=1e-3)
    assert metrics["pipeline.self_s"]["value"] > 0


def test_every_span_counts_in_exactly_one_self_time_metric():
    counted = sorted(s for spans in tracing.SELF_TIME_METRICS.values() for s in spans)
    assert counted == sorted([name for _, _, name in tracing.TARGETS] + [tracing.ROOT])


def test_install_puts_the_program_back():
    before = [vars(owner)[attr] for owner, attr, _ in tracing.TARGETS]
    with pytest.raises(KeyError):
        with tracing.Tracer().install():
            raise KeyError("inside")
    after = [vars(owner)[attr] for owner, attr, _ in tracing.TARGETS]
    assert all(a is b for a, b in zip(before, after))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "stencil_fine", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
