"""End-to-end acceptance: one check per criterion, each printing a verdict."""

from __future__ import annotations

import time

from diffusekit.cli import bench_report
from diffusekit.executor import heap_diff
from diffusekit.fusion import build_fused_task, longest_fusible_prefix
from diffusekit.kernels import default_registry
from diffusekit.memo import canonicalize
from diffusekit.pipeline import Session, SessionConfig, run_events
from diffusekit.temporaries import find_temporaries
from diffusekit.trace import gen_benchmark

import stream_fuzz
from helpers import R, RD, W, stencil_window, store_table, task, tiling
from test_memo import _stores, _swap_stream, _swap_stream_variant

FUZZ_STREAMS = 1000


def _verdict(name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


def _run(name, config, **gen_kwargs):
    session = Session(config)
    report = run_events(session, gen_benchmark(name, **gen_kwargs))
    return session, report


def test_1_stencil_golden():
    start = time.monotonic()
    fused, report = _run("stencil", SessionConfig(), size=34, iters=10)
    plain, _ = _run("stencil", SessionConfig(fusion=False), size=34, iters=10)
    ok = report.fused_prefixes == [5, 1] * 10
    ok &= all(len(fr.temporaries) == 4 for fr in report.per_flush)
    ok &= 1 not in report.temporaries_eliminated  # work stays distributed
    ok &= heap_diff(fused.heap, plain.heap, fused.live_store_ids()) == []
    tasks, _, _ = stencil_window(size=34, nodes=2)
    f, _, _ = longest_fusible_prefix(tasks, default_registry())
    kind, _, _ = build_fused_task(tasks, f)
    ok &= kind == "FUSED_ADD_MULT"
    elapsed = time.monotonic() - start
    ok &= elapsed < 5.0
    _verdict("1 stencil golden (fused [FUSED_ADD_MULT, COPY], exact heap)", ok)


def test_2_task_count_table():
    expected = {"blackscholes_chain": (67, 1), "jacobi": (3, 2), "stencil": (6, 2)}
    ok = True
    for name, (tin, tout) in expected.items():
        result = bench_report(name)
        ok &= (result["tasks_per_iter_in"], result["tasks_per_iter_fused"]) == (tin, tout)
    cg = bench_report("cg_like")
    ok &= cg["tasks_per_iter_in"] == 12 and abs(cg["tasks_per_iter_fused"] - 4) <= 1
    _verdict("2 task counts 67->1, 3->2, 6->2, 12->4(+-1)", ok)


def test_3_soundness_fuzz():
    start = time.monotonic()
    config = SessionConfig(execute=False, oracle_check=True)
    for stream in stream_fuzz.corpus(FUZZ_STREAMS):
        stream_fuzz.run_stream(stream, config)  # SoundnessError on any bad prefix
    elapsed = time.monotonic() - start
    ok = elapsed < 60.0
    _verdict(f"3 soundness fuzz ({FUZZ_STREAMS} streams, {elapsed:.1f}s)", ok)


def test_4_differential_semantics():
    configs = [
        SessionConfig(),
        SessionConfig(temp_elim=False),
        SessionConfig(memoize=False),
        SessionConfig(isolated=True),
        SessionConfig(window=2),
        SessionConfig(window=5),
        SessionConfig(window=30),
    ]
    mismatches = 0
    for stream in stream_fuzz.corpus(FUZZ_STREAMS):
        reference = stream_fuzz.run_stream(stream, SessionConfig(fusion=False))
        expected = reference.heap.digest(stream.live_ids)
        for config in configs:
            session = stream_fuzz.run_stream(stream, config)
            if session.heap.digest(stream.live_ids) != expected:
                mismatches += 1
    _verdict("4 differential semantics (fused == sequential, isolated clean)", mismatches == 0)


def test_5_memoization():
    _, report = _run("stencil", SessionConfig(execute=False), iters=3)
    ok = len(report.per_flush) == 3
    for fr in report.per_flush[1:]:
        ok &= fr.memo_hits == 1 and fr.memo_misses == 0 and fr.constraint_steps == 0
    left, *_ = canonicalize(_swap_stream(1, 2, 3), _stores([1, 2, 3]), {1, 2, 3})
    middle, *_ = canonicalize(_swap_stream(5, 6, 7), _stores([5, 6, 7]), {5, 6, 7})
    right, *_ = canonicalize(_swap_stream_variant(1, 2, 3), _stores([1, 2, 3]), {1, 2, 3})
    ok &= left == middle and left != right
    _verdict("5 memoization (iterations 2-3 hit with 0 constraint steps)", ok)


def test_6_temporary_elimination():
    from diffusekit.ir import NonePart

    stores = store_table((8,), (8,), (8,), (8,), (8,), ())
    p = tiling((2,))
    n = NonePart()
    x, y, z, w, v, norm = range(6)
    tasks = [
        task("MULT", (4,), [(x, p, R), (y, p, R), (z, p, W)]),
        task("ADD", (4,), [(y, p, R), (z, p, R), (w, p, W)]),
        task("POW", (4,), [(w, p, R), (v, p, W)], [("s", 2.0)]),
        task("NORM", (4,), [(w, n, R), (norm, n, RD)]),
    ]
    live = set(stores) - {x, y, z, w}  # the application dropped these
    f, _, _ = longest_fusible_prefix(tasks, default_registry())
    temps = find_temporaries(tasks, f, live, stores)
    _verdict("6 temporary elimination (exactly {z})", f == 3 and temps == {z})


def test_7_kernel_quality():
    n = 1_000_000
    result = bench_report("blackscholes_chain", size=n, iters=1, window=67)
    # kernel_stats entries are (prefix length, loop nests, local buffers)
    session = Session(SessionConfig(window=67, execute=False))
    report = run_events(session, gen_benchmark("blackscholes_chain", size=n, iters=1))
    big = [ks for fr in report.per_flush for ks in fr.kernel_stats if ks[0] == 67]
    ok = big == [(67, 1, 0)]
    ok &= result["traffic_reduction"] >= 10.0
    _verdict(
        f"7 kernel quality (1 nest, 0 locals, {result['traffic_reduction']:.1f}x traffic)",
        ok,
    )


def test_8_scale_freeness():
    def steps(size, nodes):
        _, report = _run(
            "stencil",
            SessionConfig(execute=False, memoize=False),
            size=size,
            nodes=nodes,
            iters=3,
        )
        return report.constraint_steps

    small = steps(34, 2)  # launch volume 4
    large = steps(4098, 64)  # launch volume 4096
    _verdict("8 scale-freeness (equal analysis step counts at volume 4 vs 4096)", small == large)
