"""Reference execution: heaps, sequential semantics, isolated arenas."""

from __future__ import annotations

import numpy as np
import pytest

from diffusekit import executor, kernels
from diffusekit import trace as tracefmt
from diffusekit.executor import (
    ArenaViolationError,
    Heap,
    UnknownTaskKindError,
    default_builtins,
    execute_isolated,
    execute_sequential,
    execute_task,
    heap_diff,
)
from diffusekit.fusion import build_fused_task, fused_scalars
from diffusekit.kernels import (
    BufParam,
    Kernel,
    LoopNest,
    ScalarParam,
    ScalarRef,
    StoreStmt,
    compose,
    default_registry,
    interpret,
    optimize,
)
from diffusekit.ir import Domain, IndexTask, NonePart, ProjectionFn, Store
from diffusekit.pipeline import Session, SessionConfig, run_events
import stream_fuzz
from helpers import R, RD, RW, W, stencil_window, store_table, task, tasks_of, tiling

REG = default_registry()
BUILTINS = default_builtins()


class TestHeap:
    def test_deterministic_lazy_contents(self):
        stores = store_table((4, 4), (8,))
        h1, h2 = Heap(stores, seed=1), Heap(stores, seed=1)
        assert not h1.materialized(0)
        assert (h1.get(0) == h2.get(0)).all()
        assert h1.materialized(0)
        assert ((h1.get(1) >= 1) & (h1.get(1) <= 9)).all()

    def test_seed_changes_contents(self):
        stores = store_table((8,))
        assert (Heap(stores, 0).get(0) != Heap(stores, 1).get(0)).any()

    def test_free_then_reaccess_regenerates(self):
        stores = store_table((8,))
        h = Heap(stores, 0)
        before = h.get(0).copy()
        h.get(0)[...] = 0.0
        h.free(0)
        assert (h.get(0) == before).all()

    def test_heap_diff(self):
        stores = store_table((4,), (4,))
        h1, h2 = Heap(stores, 0), Heap(stores, 0)
        assert heap_diff(h1, h2, [0, 1]) == []
        h2.get(1)[0] = -1.0
        assert heap_diff(h1, h2, [0, 1]) == [1]


class TestSequentialExecution:
    def test_stencil_iteration_matches_direct_formula(self):
        tasks, stores, _ = stencil_window(size=6, nodes=2)
        heap = Heap(stores, seed=0)
        grid0 = heap.get(0).copy()
        execute_sequential(tasks, heap, stores, REG, BUILTINS)
        c = grid0[1:5, 1:5]
        n, e = grid0[0:4, 1:5], grid0[1:5, 2:6]
        w, s = grid0[1:5, 0:4], grid0[2:6, 1:5]
        expected = 0.2 * (c + n + e + w + s)
        assert (heap.get(1) == expected).all()
        assert (heap.get(0)[1:5, 1:5] == expected).all()

    def test_fill_then_copy(self):
        stores = store_table((6,), (6,))
        p = tiling((3,))
        heap = Heap(stores, 0)
        execute_sequential(
            [
                task("FILL", (2,), [(0, p, W)], [("s", 7.0)]),
                task("COPY", (2,), [(0, p, R), (1, p, W)]),
            ],
            heap,
            stores,
            REG,
            BUILTINS,
        )
        assert (heap.get(1) == 7.0).all()

    def test_dot_accumulates_onto_existing_contents(self):
        stores = store_table((8,), (8,), ())
        p = tiling((2,))
        heap = Heap(stores, 0)
        heap.arrays[0] = np.ones(8)
        heap.arrays[1] = np.ones(8)
        heap.arrays[2] = np.zeros(())
        t = task("DOT", (4,), [(0, p, R), (1, p, R), (2, NonePart(), RD)])
        execute_task(t, heap, stores, REG, BUILTINS)
        assert heap.get(2)[()] == 8.0
        execute_task(t, heap, stores, REG, BUILTINS)
        assert heap.get(2)[()] == 16.0

    def test_matvec_builtin(self):
        stores = store_table((4, 4), (4,), (4,))
        n = NonePart()
        heap = Heap(stores, 0)
        t = task("MATVEC", (1,), [(0, n, R), (1, n, R), (2, n, W)])
        mat, vec = heap.get(0).copy(), heap.get(1).copy()
        execute_task(t, heap, stores, REG, BUILTINS)
        assert (heap.get(2) == mat @ vec).all()

    def test_unknown_kind_rejected(self):
        stores = store_table((4,))
        t = task("MYSTERY", (2,), [(0, tiling((2,)), W)])
        with pytest.raises(UnknownTaskKindError):
            execute_task(t, Heap(stores, 0), stores, REG, BUILTINS)

    def test_repeated_runs_are_bit_identical(self):
        tasks, stores, _ = stencil_window()
        digests = []
        for _ in range(2):
            heap = Heap(stores, seed=3)
            execute_sequential(tasks, heap, stores, REG, BUILTINS)
            digests.append(heap.digest([0, 1]))
        assert digests[0] == digests[1]


def _compile_fused(tasks, f, stores, distinct_classes=False):
    kind, args, arg_map = build_fused_task(tasks, f, REG)
    kernels = [REG.generate(t) for t in tasks[:f]]
    if distinct_classes:
        classes = {j: j for j in range(len(args))}
    else:
        classes = {j: 0 for j in range(len(args))}
    kernel = optimize(compose(kernels, arg_map, args, frozenset(), classes))
    return IndexTask(kind, tasks[0].domain, args, fused_scalars(tasks[:f])), kernel


class TestIsolatedExecution:
    def test_sound_fusion_matches_sequential(self):
        stores = store_table((8,), (8,), (8,))
        p = tiling((2,))
        tasks = [
            task("ADD", (4,), [(0, p, R), (1, p, R), (2, p, W)]),
            task("MULT", (4,), [(2, p, R), (1, p, W)], [("s", 0.5)]),
        ]
        fused, kernel = _compile_fused(tasks, 2, stores)
        h_iso, h_seq = Heap(stores, 0), Heap(stores, 0)
        execute_isolated(fused, h_iso, stores, REG, BUILTINS, kernel)
        execute_sequential(tasks, h_seq, stores, REG, BUILTINS)
        assert heap_diff(h_iso, h_seq, [0, 1, 2]) == []

    def test_mis_fused_aliased_views_trip_the_arena(self):
        # Bypassing the constraints: write the center view, then read the
        # overlapping north view. Point tasks now need each other's data.
        stores = store_table((6, 6), (4, 4), (4, 4))
        center, north = tiling((2, 2), (1, 1)), tiling((2, 2), (0, 1))
        p0 = tiling((2, 2))
        tasks = [
            task("COPY", (2, 2), [(1, p0, R), (0, center, W)]),
            task("COPY", (2, 2), [(0, north, R), (2, p0, W)]),
        ]
        fused, kernel = _compile_fused(tasks, 2, stores, distinct_classes=True)
        with pytest.raises(ArenaViolationError):
            execute_isolated(fused, Heap(stores, 0), stores, REG, BUILTINS, kernel)

    def test_overlapping_writes_trip_the_arena(self):
        stores = store_table((5,), (4,))
        shifted = tiling((2,), (1,))
        tasks = [
            task("FILL", (2,), [(0, tiling((2,)), W)], [("s", 1.0)]),
            task("FILL", (2,), [(0, shifted, W)], [("s", 2.0)]),
        ]
        fused, kernel = _compile_fused(tasks, 2, stores, distinct_classes=True)
        with pytest.raises(ArenaViolationError):
            execute_isolated(fused, Heap(stores, 0), stores, REG, BUILTINS, kernel)

    def test_single_point_launch_is_trivially_isolated(self):
        stores = store_table((4,), (4,))
        p = tiling((4,))
        tasks = [
            task("COPY", (1,), [(0, p, R), (1, p, W)]),
            task("NEG", (1,), [(1, p, R), (0, p, W)]),
        ]
        fused, kernel = _compile_fused(tasks, 2, stores)
        h_iso, h_seq = Heap(stores, 0), Heap(stores, 0)
        execute_isolated(fused, h_iso, stores, REG, BUILTINS, kernel)
        execute_sequential(tasks, h_seq, stores, REG, BUILTINS)
        assert heap_diff(h_iso, h_seq, [0, 1]) == []

    def test_reductions_combine_in_point_order(self):
        stores = store_table((8,), ())
        p = tiling((2,))
        t = task("DOT", (4,), [(0, p, R), (0, p, R), (1, NonePart(), RD)])
        h_iso, h_seq = Heap(stores, 0), Heap(stores, 0)
        execute_isolated(t, h_iso, stores, REG, BUILTINS)
        execute_task(t, h_seq, stores, REG, BUILTINS)
        assert heap_diff(h_iso, h_seq, [1]) == []


# --- whole-launch execution ----------------------------------------------------


@pytest.fixture
def interpret_calls(monkeypatch):
    """Counts the executor's kernel calls: one per launch run whole, one per point otherwise."""
    calls = []

    def counted(kernel, bufs, *args):
        calls.append(kernel)
        return interpret(kernel, bufs, *args)

    monkeypatch.setattr(executor, "interpret", counted)
    return calls


def _whole_vs_sequential(tasks, stores):
    whole, ref = Heap(stores, 0), Heap(stores, 0)
    for t in tasks:
        execute_task(t, whole, stores, REG, BUILTINS)
    execute_sequential(tasks, ref, stores, REG, BUILTINS)
    return heap_diff(whole, ref, sorted(stores))


SMALL_BENCHMARKS = {
    "stencil": dict(size=10, nodes=2, iters=2),
    "blackscholes_chain": dict(size=16, nodes=4, iters=2),
    "jacobi": dict(size=8, nodes=4, iters=2),
    "cg_like": dict(size=8, nodes=4, iters=2),
}


class TestWholeLaunch:
    def test_fuzz_corpus_matches_point_by_point(self):
        for stream in stream_fuzz.corpus(1000):
            stores = {s: Store(s, Domain(shape)) for s, shape in stream.stores.items()}
            assert _whole_vs_sequential(stream.tasks, stores) == [], stream.seed

    @pytest.mark.parametrize("name", sorted(SMALL_BENCHMARKS))
    def test_benchmarks_match_point_by_point(self, name):
        events = tracefmt.gen_benchmark(name, **SMALL_BENCHMARKS[name])
        tasks, stores = tasks_of(events)
        assert _whole_vs_sequential(tasks, stores) == []
        # fused kernels run whole too, and still match the per-point reference
        session = Session(SessionConfig())
        run_events(session, events)
        ref = Heap(stores, 0)
        execute_sequential(tasks, ref, stores, REG, BUILTINS)
        assert heap_diff(session.heap, ref, session.live_store_ids()) == []

    def test_stencil_copy_runs_as_one_call(self, interpret_calls):
        tasks, stores, _ = stencil_window(size=10, nodes=2)
        copy = tasks[-1]
        assert copy.kind == "COPY" and copy.domain.volume == 4
        execute_task(copy, Heap(stores, 0), stores, REG, BUILTINS)
        assert len(interpret_calls) == 1

    def test_fused_stencil_runs_as_one_call(self, interpret_calls):
        tasks, stores, _ = stencil_window(size=10, nodes=2)
        fused, kernel = _compile_fused(tasks, 5, stores)
        execute_task(fused, Heap(stores, 0), stores, REG, BUILTINS, kernel)
        assert len(interpret_calls) == 1

    def test_sequential_reference_stays_point_by_point(self, interpret_calls):
        tasks, stores, _ = stencil_window(size=10, nodes=2)
        execute_sequential(tasks, Heap(stores, 0), stores, REG, BUILTINS)
        assert len(interpret_calls) == 6 * 4


def _per_point_case(t, stores, interpret_calls):
    """Runs ``t`` through execute_task; it must go point by point and match the reference."""
    got, ref = Heap(stores, 0), Heap(stores, 0)
    execute_task(t, got, stores, REG, BUILTINS)
    assert len(interpret_calls) == t.domain.volume
    execute_sequential([t], ref, stores, REG, BUILTINS)
    assert heap_diff(got, ref, sorted(stores)) == []
    return got


class TestWholeLaunchFallback:
    def test_shifted_write_of_a_read_store(self, interpret_calls):
        # point p reads [2p, 2p+2) and writes [2p+1, 2p+3): each point reads a
        # cell its predecessor wrote, so only point order gives the answer
        stores = store_table((9,))
        t = task("COPY", (4,), [(0, tiling((2,)), R), (0, tiling((2,), (1,)), W)])
        want = Heap(stores, 0).get(0).copy()
        at_once = want.copy()
        at_once[1:] = want[:-1]
        for p in range(4):
            want[2 * p + 1 : 2 * p + 3] = want[2 * p : 2 * p + 2].copy()
        assert (want != at_once).any()
        got = _per_point_case(t, stores, interpret_calls).get(0)
        assert (got == want).all()

    def test_clamped_edge_tile(self, interpret_calls):
        stores = store_table((7,), (7,))
        p = tiling((2,))
        _per_point_case(task("NEG", (4,), [(0, p, R), (1, p, W)]), stores, interpret_calls)

    def test_different_tiles(self, interpret_calls):
        stores = store_table((4,), (8,))
        t = task("COPY", (4,), [(0, tiling((1,)), R), (1, tiling((2,)), W)])
        got = _per_point_case(t, stores, interpret_calls)
        assert (got.get(1) == np.repeat(got.get(0), 2)).all()

    def test_written_replication(self, interpret_calls):
        stores = store_table((4,), (4,))
        n = NonePart()
        t = task("AXPY", (3,), [(0, n, R), (1, n, RW)], [("w", 2.0)])
        x, y = Heap(stores, 0).get(0), Heap(stores, 0).get(1)
        got = _per_point_case(t, stores, interpret_calls)
        assert (got.get(1) == y + 2.0 * x + 2.0 * x + 2.0 * x).all()

    def test_dimension_dropping_projection(self, interpret_calls):
        stores = store_table((4,), (4, 4))
        drop = tiling((2,), proj=ProjectionFn(((1, 0),), (0,)))
        t = task("COPY", (2, 2), [(0, drop, R), (1, tiling((2, 2)), W)])
        _per_point_case(t, stores, interpret_calls)

    def test_permuted_projection(self, interpret_calls):
        stores = store_table((4, 4), (4, 4))
        transpose = tiling((2, 2), proj=ProjectionFn(((0, 1), (1, 0)), (0, 0)))
        t = task("COPY", (2, 2), [(0, transpose, R), (1, tiling((2, 2)), W)])
        _per_point_case(t, stores, interpret_calls)

    def test_reduction_keeps_point_order(self, interpret_calls):
        stores = store_table((8,), ())
        t = task("DOT", (4,), [(0, tiling((2,)), R), (0, tiling((2,)), R), (1, NonePart(), RD)])
        _per_point_case(t, stores, interpret_calls)


def test_fused_temp_keeps_values_of_a_buffer_overwritten_later():
    # tmp = x; x = y; z = tmp. Fused with tmp demoted, the kernel reads x into
    # a temp and then overwrites x in the same nest; z must get the old x.
    p = tiling((4,))
    tasks = [
        task("COPY", (2,), [(0, p, R), (1, p, W)]),
        task("COPY", (2,), [(2, p, R), (0, p, W)]),
        task("COPY", (2,), [(1, p, R), (3, p, W)]),
    ]
    session = Session(SessionConfig())
    for s in range(4):
        session.create_store(s, (8,))
    for t in tasks:
        session.submit(t)
    session.drop_ref(1)
    report = session.finish()
    assert report.fused_prefixes == [3] and report.temporaries_eliminated == [1]
    ref = Heap(session.stores, 0)
    execute_sequential(tasks, ref, session.stores, REG, BUILTINS)
    assert heap_diff(session.heap, ref, [0, 2, 3]) == []


# --- strips ----------------------------------------------------------------------


@pytest.fixture
def evals(monkeypatch):
    """Counts the passes of nest ops: one per nest run whole, one per strip otherwise."""
    calls = []
    run = kernels._NestPlan._eval

    def counted(plan, regs):
        calls.append(plan)
        return run(plan, regs)

    monkeypatch.setattr(kernels._NestPlan, "_eval", counted)
    return calls


class TestStrips:
    """Nests run in strips of ``kernels.STRIP`` elements leave the heap the
    unstripped run and the point-by-point reference leave, byte for byte."""

    @pytest.mark.parametrize("name", sorted(SMALL_BENCHMARKS))
    def test_benchmarks(self, name, monkeypatch, evals):
        events = tracefmt.gen_benchmark(name, **SMALL_BENCHMARKS[name])
        tasks, stores = tasks_of(events)
        ref = Heap(stores, 0)
        execute_sequential(tasks, ref, stores, REG, BUILTINS)

        def run():
            session = Session(SessionConfig())
            run_events(session, events)
            return session.heap.digest(session.live_store_ids())

        monkeypatch.setattr(kernels, "STRIP", 1 << 30)  # every nest fits one strip
        del evals[:]
        whole = run()
        assert whole == ref.digest(sorted(whole))
        passes = len(evals)
        for strip in (3, 5):
            monkeypatch.setattr(kernels, "STRIP", strip)
            del evals[:]
            assert run() == whole, strip
            assert len(evals) > passes

    def test_fuzz_corpus(self, monkeypatch):
        for stream in stream_fuzz.corpus(1000):
            monkeypatch.setattr(kernels, "STRIP", 1 << 30)
            stores = {s: Store(s, Domain(shape)) for s, shape in stream.stores.items()}
            ref = Heap(stores, 0)
            execute_sequential(stream.tasks, ref, stores, REG, BUILTINS)
            want = ref.digest(stream.live_ids)
            assert stream_fuzz.run_stream(stream, SessionConfig()).heap.digest(stream.live_ids) == want
            for strip in (3, 5):
                monkeypatch.setattr(kernels, "STRIP", strip)
                got = stream_fuzz.run_stream(stream, SessionConfig()).heap.digest(stream.live_ids)
                assert got == want, (stream.seed, strip)

    def test_stripped_launch_is_one_interpret_call(self, monkeypatch, interpret_calls, evals):
        monkeypatch.setattr(kernels, "STRIP", 3)
        tasks, stores, _ = stencil_window(size=10, nodes=2)
        fused, kernel = _compile_fused(tasks, 5, stores)
        execute_task(fused, Heap(stores, 0), stores, REG, BUILTINS, kernel)
        assert len(interpret_calls) == 1
        assert len(evals) == 8  # one row of the 8x8 interior per strip


# --- first touch -------------------------------------------------------------------


@pytest.fixture
def filled(monkeypatch):
    """The store ids whose documented contents the heap generates."""
    ids = []
    default_rng = np.random.default_rng

    def recording(seed):
        ids.append(seed[1])
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", recording)
    return ids


def _documented(stores, store_id):
    return Heap(stores, 0).get(store_id).copy()


class TestFirstTouch:
    """A launch that overwrites a store whole materializes it unfilled."""

    def test_covering_write_skips_the_fill(self, filled):
        stores = store_table((8,), (8,))
        heap = Heap(stores, 0)
        execute_task(task("NEG", (4,), [(0, tiling((2,)), R), (1, tiling((2,)), W)]), heap, stores, REG, BUILTINS)
        assert filled == [0] and heap.materialized(1)
        assert (heap.get(1) == -heap.get(0)).all()

    def test_point_by_point_covering_write_skips_the_fill(self, filled):
        stores = store_table((7,), (7,))
        heap = Heap(stores, 0)
        p = tiling((2,))  # a clamped edge tile: the launch runs point by point
        execute_task(task("NEG", (4,), [(0, p, R), (1, p, W)]), heap, stores, REG, BUILTINS)
        assert filled == [0] and (heap.get(1) == -heap.get(0)).all()

    def test_partial_first_write_keeps_the_documented_contents(self, filled):
        stores = store_table((9,), (9,))
        heap = Heap(stores, 0)
        shifted = tiling((2,), (1,))  # writes cells 1..8 of store 1, never cell 0
        execute_task(task("COPY", (4,), [(0, tiling((2,)), R), (1, shifted, W)]), heap, stores, REG, BUILTINS)
        assert sorted(filled) == [0, 1]
        want = _documented(stores, 1)
        want[1:] = heap.get(0)[:8]
        assert (heap.get(1) == want).all()

    @pytest.mark.parametrize(
        "case, shape",
        [
            # OPAQUE is a builtin: it reads its W arguments
            (task("OPAQUE", (2,), [(0, NonePart(), R), (1, tiling((4,)), W)]), (8,)),
            (task("AXPY", (4,), [(0, tiling((2,)), R), (1, tiling((2,)), RW)], [("s", 2.0)]), (8,)),
            # AXPY given W still loads its second argument
            (task("AXPY", (4,), [(0, tiling((2,)), R), (1, tiling((2,)), W)], [("s", 2.0)]), (8,)),
            # a reduction given W adds to its accumulator's contents
            (task("DOT", (4,), [(0, tiling((2,)), R), (0, tiling((2,)), R), (1, NonePart(), W)]), ()),
            (task("SUM", (4,), [(0, tiling((2,)), R), (1, NonePart(), W)]), ()),
        ],
        ids=["opaque", "rw", "loaded-w", "dot-w", "sum-w"],
    )
    def test_written_stores_that_are_read_are_filled(self, case, shape, filled):
        stores = store_table((8,), shape)
        heap, ref = Heap(stores, 0), Heap(stores, 0)
        execute_task(case, heap, stores, REG, BUILTINS)
        assert 1 in filled
        execute_sequential([case], ref, stores, REG, BUILTINS)
        assert heap_diff(heap, ref, [0, 1]) == []

    def test_store_named_through_two_partitions_is_filled(self, filled):
        stores = store_table((8,))
        kernel = Kernel(
            (BufParam("a0", W), BufParam("a1", W)),
            (ScalarParam("s"),),
            (),
            (LoopNest("a0", (StoreStmt("a0", ScalarRef("s")),)),
             LoopNest("a1", (StoreStmt("a1", ScalarRef("s")),))),
        )
        t = task("FILL2", (2,), [(0, tiling((4,)), W), (0, tiling((2,)), W)], [("s", 5.0)])
        heap = Heap(stores, 0)
        execute_task(t, heap, stores, REG, BUILTINS, kernel)
        assert filled == [0] and (heap.get(0) == 5.0).all()

    def test_raising_launch_leaves_no_unfilled_store(self, monkeypatch):
        stores = store_table((8,), (8,))
        heap = Heap(stores, 0)

        def failing(kernel, bufs, *args):
            bufs["a1"][...] = np.nan
            raise RuntimeError("kernel failed")

        monkeypatch.setattr(executor, "interpret", failing)
        with pytest.raises(RuntimeError):
            execute_task(task("COPY", (4,), [(0, tiling((2,)), R), (1, tiling((2,)), W)]), heap, stores, REG, BUILTINS)
        assert heap.materialized(0) and not heap.materialized(1)
        assert (heap.get(1) == _documented(stores, 1)).all()


class TestLaunchPlanCache:
    """A session works each launch plan out once per distinct descriptor.
    Each case fails against a cache keyed by less than ``plan_key``."""

    @staticmethod
    def _session(tasks, shapes, log):
        """Runs each task in its own window and checks the heap against the
        sequential reference; returns the session and ``log`` as it stood
        before the reference ran."""
        session = Session(SessionConfig())
        for sid, shape in enumerate(shapes):
            session.create_store(sid, shape)
        for t in tasks:
            session.submit(t)
            session.flush()
        session.finish()
        got = list(log)
        ref = Heap(session.stores, 0)
        execute_sequential(tasks, ref, session.stores, REG, BUILTINS)
        assert heap_diff(session.heap, ref, range(len(shapes))) == []
        return session, got

    @pytest.mark.parametrize("iters", [3, 30])
    def test_launch_descriptors_decided_once_per_plan(self, monkeypatch, iters):
        calls = []
        images = executor._launch_images

        def counted(*args):
            calls.append(args)
            return images(*args)

        monkeypatch.setattr(executor, "_launch_images", counted)
        session = Session(SessionConfig())
        report = run_events(session, tracefmt.gen_benchmark("stencil", iters=iters))
        assert report.tasks_out == 2 * iters
        assert len(calls) == len(session._launch_plans) == 2

    def test_launch_extents_decide_whole_launch_under_one_memo_key(self, interpret_calls):
        # the offset tiling is "clamped" for both launches, so the memo key,
        # which then omits launch extents, is the same; [1, 7) fits a store
        # of 8, [1, 9) does not
        shifted = tiling((2,), (1,))
        tasks = [
            task("NEG", (3,), [(0, shifted, R), (1, shifted, W)]),
            task("NEG", (4,), [(2, shifted, R), (3, shifted, W)]),
        ]
        session, calls = self._session(tasks, [(8,)] * 4, interpret_calls)
        assert session.report.memo_hits == 1
        plans = list(session._launch_plans.values())
        assert [p.regions is not None for p in plans] == [True, False]
        assert len(calls) == 1 + 4

    def test_a_shared_plan_still_fills_a_store_its_kernel_loads(self, filled):
        # AXPY given W loads its second argument; COPY does not
        p = tiling((2,))
        tasks = [
            task("COPY", (4,), [(0, p, R), (1, p, W)]),
            task("AXPY", (4,), [(2, p, R), (3, p, W)], [("s", 2.0)]),
        ]
        session, got = self._session(tasks, [(8,)] * 4, filled)
        assert len(session._launch_plans) == 1
        assert got == [0, 2, 3]

    def test_a_written_store_named_twice_gets_its_own_plan(self, filled):
        p = tiling((2,))
        tasks = [
            task("COPY", (4,), [(0, p, R), (1, p, W)]),
            task("COPY", (4,), [(2, p, R), (2, p, W)]),
        ]
        session, got = self._session(tasks, [(8,)] * 3, filled)
        plans = list(session._launch_plans.values())
        assert [p.fill_candidates for p in plans] == [(1,), ()]
        assert got == [0, 2]
