"""diffusekit benchmark: three workloads through the public API.

    python3 bench/run.py --workload cg_analyze --seed 1 --seconds 15 --trace 0

A run generates its workload's stream, prints and parses it (the path that
``diffusekit run FILE`` takes), then replays it through fresh ``Session``
objects in whole rounds until ``--seconds`` have passed. Every iteration of
every round is checked against a computation made apart from the program.
With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it records spans around each module's public functions and reports the
per-layer metrics. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the same
object goes to ``bench/out/<workload>.trace<0|1>.json``.
"""

from __future__ import annotations

import os

# One process, one thread: keep numpy's native thread pools from starting.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import gc
import json
import sys
import time
import tracemalloc
from dataclasses import dataclass, replace
from pathlib import Path
from statistics import median
from typing import Callable, Sequence

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
SRC_DIR = BENCH_DIR.parent / "src"

if not (SRC_DIR / "diffusekit" / "__init__.py").is_file():
    raise SystemExit(f"bench: no diffusekit sources under {SRC_DIR}")
sys.path.insert(0, str(SRC_DIR))

import numpy as np  # noqa: E402

from diffusekit import trace as tracefmt  # noqa: E402
from diffusekit.oracle import oracle_fusible  # noqa: E402
from diffusekit.pipeline import Session, SessionConfig, run_events, task_from_event  # noqa: E402

import tracing  # noqa: E402

# Launch volume of the cg_analyze reference pass. The brute-force oracle's cost
# grows with the square of the volume; it refuses volumes above its cap.
ORACLE_NODES = 4
# Before each measured round, set up again until this much time is spent.
SETUP_SECONDS_PER_ROUND = 0.02

Check = Callable[[Session, int], bool]


@dataclass(frozen=True)
class Workload:
    stream: str  # a name in diffusekit.trace.BENCHMARKS
    size: int
    nodes: int
    iters: int
    execute: bool
    checker: Callable[["Workload", list, SessionConfig], Check]


@dataclass(frozen=True)
class IterationRecord:
    prefixes: tuple[int, ...]
    tasks_in: int
    traffic: int


class TimedSession(Session):
    """A Session that stamps each explicit flush and checks the state it leaves.

    The check runs after the stamp. Its time accumulates in ``paused_ns`` and
    is taken out of every stamp, so no figure includes it.
    """

    def __init__(self, config: SessionConfig, check: Check | None = None) -> None:
        super().__init__(config)
        self.check = check
        self.marks: list[int] = []
        self.iterations: list[IterationRecord] = []
        self.paused_ns = 0
        self.failed = 0
        self.start_ns = 0
        self.run_ns = 0  # run_events through finish(), checks excluded
        self._seen = (0, 0, 0)

    def flush(self) -> None:
        super().flush()
        stamp = time.perf_counter_ns()
        self.marks.append(stamp - self.paused_ns)
        r = self.report
        n_prefixes, tasks_in, traffic = len(r.fused_prefixes), r.tasks_in, r.loads + r.stores
        seen = self._seen
        self.iterations.append(
            IterationRecord(
                tuple(r.fused_prefixes[seen[0]:]), tasks_in - seen[1], traffic - seen[2]
            )
        )
        self._seen = (n_prefixes, tasks_in, traffic)
        if self.check is not None and not self.check(self, len(self.marks) - 1):
            self.failed += 1
        self.paused_ns += time.perf_counter_ns() - stamp


def replay(
    events: list, config: SessionConfig, check: Check | None, tracer: tracing.Tracer | None = None
) -> TimedSession:
    """Run the stream through a fresh TimedSession and time it."""
    session = TimedSession(config, check)
    drive = run_events if tracer is None else tracer.wrap(tracing.ROOT, run_events)
    session.start_ns = time.perf_counter_ns()
    drive(session, events)
    session.run_ns = time.perf_counter_ns() - session.start_ns - session.paused_ns
    if len(session.marks) != sum(isinstance(e, tracefmt.Flush) for e in events):
        raise RuntimeError("the session saw a different number of explicit flushes than the stream holds")
    return session


@dataclass(frozen=True)
class Round:
    """What one replay leaves for the figures. Sessions are not kept: a run's
    earlier sessions would hold heaps and grow the garbage collector's work."""

    run_ns: int
    first_iter_ns: int
    later_iter_ns: tuple[int, ...]
    launches: int
    traffic: int
    attempted: int
    failed: int

    @classmethod
    def of(cls, session: TimedSession) -> "Round":
        marks, report = session.marks, session.report
        return cls(
            session.run_ns,
            marks[0] - session.start_ns,
            tuple(b - a for a, b in zip(marks, marks[1:])),
            report.tasks_out,
            report.loads + report.stores,
            len(marks),
            session.failed,
        )


# --- independent checks --------------------------------------------------------


def _store_ids(events: Sequence) -> list[int]:
    return [e.id for e in events if isinstance(e, tracefmt.CreateStore)]


def _initial_contents(seed: int, store_id: int, shape: tuple[int, ...]) -> np.ndarray:
    """The heap's documented initial contents of a store."""
    rng = np.random.default_rng([seed, store_id])
    return rng.integers(1, 10, size=shape).astype(np.float64)


def stencil_checker(w: Workload, events: list, config: SessionConfig) -> Check:
    """After iteration i the grid holds i+1 steps of the 5-point recurrence."""
    grid, work = _store_ids(events)[:2]
    states = [_initial_contents(config.seed, grid, (w.size, w.size))]
    for _ in range(w.iters):
        g = states[-1].copy()
        g[1:-1, 1:-1] = (
            (((g[1:-1, 1:-1] + g[:-2, 1:-1]) + g[1:-1, 2:]) + g[1:-1, :-2]) + g[2:, 1:-1]
        ) * 0.2
        states.append(g)

    def check(session: Session, i: int) -> bool:
        got_grid = session.heap.arrays.get(grid)
        got_work = session.heap.arrays.get(work)
        want = states[i + 1]
        return (
            got_grid is not None
            and got_work is not None
            and np.array_equal(got_grid, want)
            and np.array_equal(got_work, want[1:-1, 1:-1])
        )

    return check


def chain_checker(w: Workload, events: list, config: SessionConfig) -> Check:
    """The 65-op NEG, x2, COPY, x0.5, NEG cycle is exactly the identity: out == x + y."""
    x, y, out = _store_ids(events)[:3]
    want = _initial_contents(config.seed, x, (w.size,)) + _initial_contents(config.seed, y, (w.size,))

    def check(session: Session, i: int) -> bool:
        got = session.heap.arrays.get(out)
        return got is not None and np.array_equal(got, want)

    return check


def cg_checker(w: Workload, events: list, config: SessionConfig) -> Check:
    """Iteration i fuses exactly as the same stream does at a small launch volume,
    where the brute-force oracle accepts every fused prefix; its prefixes
    account for all of its tasks; and its static traffic is no more than
    with fusion off."""
    small_size = w.size // w.nodes * ORACLE_NODES
    small_events = tracefmt.gen_benchmark(w.stream, small_size, ORACLE_NODES, w.iters)
    small = replay(small_events, config, None)
    tasks = [task_from_event(small, e) for e in small_events if isinstance(e, tracefmt.TaskEvent)]
    accepted: list[tuple[int, ...] | None] = []
    at = 0
    for rec in small.iterations:
        ok = True
        for f in rec.prefixes:
            ok = ok and (f == 1 or oracle_fusible(tasks[at : at + f], small.stores))
            at += f
        accepted.append(rec.prefixes if ok else None)
    unfused = replay(events, replace(config, fusion=False), None).iterations

    def check(session: Session, i: int) -> bool:
        rec = session.iterations[i]
        return (
            accepted[i] is not None
            and rec.prefixes == accepted[i]
            and sum(rec.prefixes) == rec.tasks_in
            and rec.traffic <= unfused[i].traffic
        )

    return check


WORKLOADS = {
    "cg_analyze": Workload("cg_like", 4096, 1024, 300, False, cg_checker),
    "stencil_fine": Workload("stencil", 66, 32, 3, True, stencil_checker),
    "chain_large": Workload("blackscholes_chain", 1 << 20, 4, 8, True, chain_checker),
}


# --- measurement ----------------------------------------------------------------


def set_up(w: Workload, config: SessionConfig) -> tuple[list, float, float, float]:
    """Generate, print and parse the stream and build a Session, as `diffusekit run` does.

    Returns the events and the seconds spent generating (with printing),
    parsing, and in all.
    """
    t0 = time.perf_counter()
    text = tracefmt.print_trace(tracefmt.gen_benchmark(w.stream, w.size, w.nodes, w.iters))
    t1 = time.perf_counter()
    events = tracefmt.parse_trace(text)
    t2 = time.perf_counter()
    Session(config)
    t3 = time.perf_counter()
    return events, t1 - t0, t2 - t1, t3 - t0


def peak_memory(events: list, config: SessionConfig) -> int:
    """Peak bytes that tracemalloc sees while one fresh Session runs the stream."""
    gc.collect()
    tracemalloc.start()
    try:
        run_events(TimedSession(config), events)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _single(values: Sequence[int], what: str) -> int:
    if len(set(values)) != 1:
        raise RuntimeError(f"{what} differs between rounds of one stream: {sorted(set(values))}")
    return values[0]


def end_to_end(rounds: list[Round], setups: Sequence[float], peak_bytes: int) -> dict:
    return {
        "setup_s": (median(setups), "s"),
        "run_s": (median([r.run_ns for r in rounds]) * 1e-9, "s"),
        "first_iter_ms": (median([r.first_iter_ns for r in rounds]) * 1e-6, "ms"),
        "iter_ms": (median([d for r in rounds for d in r.later_iter_ns]) * 1e-6, "ms"),
        "launches": (_single([r.launches for r in rounds], "launches"), "count"),
        "traffic_melem": (_single([r.traffic for r in rounds], "traffic") / 1e6, "Melem"),
        "peak_mem_mb": (peak_bytes / 2**20, "MiB"),
    }


def per_layer(tracer: tracing.Tracer, session: TimedSession) -> dict:
    self_ns, calls = tracer.totals()
    report = session.report
    busy_ns = {name: sum(self_ns[s] for s in spans) for name, spans in tracing.SELF_TIME_METRICS.items()}
    # The checks ran inside the root span; they are no part of the pipeline's share.
    busy_ns["pipeline.self_s"] -= session.paused_ns
    metrics = {name: (ns * 1e-9, "s") for name, ns in busy_ns.items()}
    for name, spans in tracing.CALL_METRICS.items():
        metrics[name] = (sum(calls[s] for s in spans), "count")
    lookups = report.memo_hits + report.memo_misses
    metrics.update(
        {
            "memo.hits": (report.memo_hits, "count"),
            "memo.misses": (report.memo_misses, "count"),
            "memo.hit_rate": (report.memo_hits / lookups if lookups else 0.0, "ratio"),
            "fusion.constraint_steps": (report.constraint_steps, "count"),
            "temporaries.demoted": (len(report.temporaries_eliminated), "count"),
            "executor.points": (tracer.points, "count"),
            "executor.heap_peak_mb": (tracer.heap_peak_bytes / 2**20, "MiB"),
            "pipeline.flushes": (len(report.per_flush), "count"),
            "pipeline.final_window": (report.final_window, "count"),
            "pipeline.run_s": (session.run_ns * 1e-9, "s"),
        }
    )
    return metrics


def _medians(samples: list[dict]) -> dict:
    return {
        name: (median([s[name][0] for s in samples]), unit)
        for name, (_, unit) in samples[0].items()
    }


def run(
    w: Workload, seed: int, seconds: float, traced: bool, spans_path: Path | None = None, **flags
) -> dict:
    """One benchmark run; ``flags`` are SessionConfig overrides (fusion, memoize)."""
    config = SessionConfig(execute=w.execute, seed=seed, **flags)
    events, *first_setup = set_up(w, config)
    setups = [first_setup]
    check = w.checker(w, events, config)
    warm_up = Round.of(replay(events, config, check))  # checked, not reported
    # Measured while the process's history is the same in every run, since
    # tracemalloc's peak moves by a few hundred bytes with what ran before.
    peak = 0 if traced else peak_memory(events, config)

    samples: list[dict] = []
    tracer = None
    measured: list[Round] = []
    start = time.perf_counter()
    while not measured or time.perf_counter() - start < seconds:
        # Set-up samples are spread over the whole run, like the rounds, so
        # that a slow spell of the machine touches both alike.
        spent = 0.0
        while spent < SETUP_SECONDS_PER_ROUND:
            setups.append(set_up(w, config)[1:])
            spent += setups[-1][2]
        if traced:
            tracer = tracing.Tracer()
            with tracer.install():
                session = replay(events, config, check, tracer)
            samples.append(per_layer(tracer, session))
        else:
            session = replay(events, config, check)
        measured.append(Round.of(session))
        del session
    gen_s, parse_s, setup_s = zip(*setups)
    if tracer is not None and spans_path is not None:
        tracer.write(spans_path)

    if traced:
        metrics = _medians(samples)
        metrics["trace.gen_s"] = (median(gen_s), "s")
        metrics["trace.parse_s"] = (median(parse_s), "s")
    else:
        metrics = end_to_end(measured, setup_s, peak)
    attempted = sum(r.attempted for r in [warm_up, *measured])
    failed = sum(r.failed for r in [warm_up, *measured])
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv: Sequence[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True, help="seeds the heap's initial store contents")
    ap.add_argument("--seconds", type=float, required=True, help="how long to replay whole rounds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer spans instead of end-to-end")
    ap.add_argument("--no-memo", action="store_true", help="reference figures: analysis memo cache off")
    ap.add_argument("--no-fusion", action="store_true", help="reference figures: every task launched unfused")
    ns = ap.parse_args(argv)

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{ns.workload}.trace{ns.trace}"
    result = run(
        WORKLOADS[ns.workload],
        ns.seed,
        ns.seconds,
        bool(ns.trace),
        spans_path=OUT_DIR / f"{stem}.spans.jsonl" if ns.trace else None,
        memoize=not ns.no_memo,
        fusion=not ns.no_fusion,
    )
    for name, m in result["metrics"].items():
        print(f"{name:<26} {m['value']:.6g} {m['unit']}")
    line = json.dumps(result)
    (OUT_DIR / f"{stem}.json").write_text(line + "\n", encoding="utf-8")
    print(line)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
