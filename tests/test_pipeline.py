"""Windowed session pipeline: flushing, adaptive sizing, memo, execution."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from diffusekit import memo, pipeline, trace as tracefmt
from diffusekit.executor import UnknownTaskKindError, default_builtins, heap_diff
from diffusekit.fusion import fused_scalars
from diffusekit.ir import IndexTask, StoreArg
from diffusekit.kernels import KernelRegistry
from diffusekit.pipeline import MAX_WINDOW, Session, SessionConfig, run_events
from diffusekit.trace import gen_benchmark
from helpers import R, W, task, tiling
import stream_fuzz


def _run(name, config, **gen_kwargs):
    session = Session(config)
    report = run_events(session, gen_benchmark(name, **gen_kwargs))
    return session, report


class TestStencilPipeline:
    def test_each_iteration_fuses_six_into_two(self):
        _, report = _run("stencil", SessionConfig(execute=False), iters=4)
        assert report.iterations() == [(6, 2)] * 4
        assert report.fused_prefixes == [5, 1] * 4

    def test_four_temporaries_eliminated_per_iteration(self):
        _, report = _run("stencil", SessionConfig(execute=False), iters=3)
        for fr in report.per_flush:
            assert len(fr.temporaries) == 4

    def test_temporaries_never_materialize(self):
        session = Session(SessionConfig())
        touched: set[int] = set()
        original = session.heap.get

        def recording_get(sid, fill=True):
            touched.add(sid)
            return original(sid, fill)

        session.heap.get = recording_get
        report = run_events(session, gen_benchmark("stencil", iters=3))
        assert sum(len(fr.temporaries) for fr in report.per_flush) == 12
        assert touched == {0, 1}  # grid and work only

    def test_fused_heap_equals_unfused_heap(self):
        fused, _ = _run("stencil", SessionConfig(), iters=5)
        plain, _ = _run("stencil", SessionConfig(fusion=False), iters=5)
        assert heap_diff(fused.heap, plain.heap, fused.live_store_ids()) == []

    @pytest.mark.parametrize("window", [2, 5, 30])
    def test_window_size_does_not_change_results(self, window):
        fused, _ = _run("stencil", SessionConfig(window=window), iters=4)
        plain, _ = _run("stencil", SessionConfig(fusion=False), iters=4)
        assert heap_diff(fused.heap, plain.heap, fused.live_store_ids()) == []

    def test_memo_replays_from_second_iteration(self):
        _, report = _run("stencil", SessionConfig(execute=False), iters=3)
        first, second, third = report.per_flush
        assert first.memo_hits == 0 and first.memo_misses > 0
        for fr in (second, third):
            assert fr.memo_hits == 2
            assert fr.memo_misses == 0
            assert fr.constraint_steps == 0
            assert fr.verdicts == first.verdicts  # the replayed stop reason

    def test_memo_disabled_reanalyzes(self):
        _, report = _run("stencil", SessionConfig(execute=False, memoize=False), iters=3)
        assert report.memo_hits == 0
        assert all(fr.constraint_steps > 0 for fr in report.per_flush)

    def test_oracle_cross_check_accepts_engine_decisions(self):
        _, report = _run("stencil", SessionConfig(oracle_check=True), iters=2)
        assert report.fused_prefixes == [5, 1] * 2

    def test_isolated_mode_matches_sequential(self):
        fused, _ = _run("stencil", SessionConfig(isolated=True), iters=3)
        plain, _ = _run("stencil", SessionConfig(fusion=False), iters=3)
        assert heap_diff(fused.heap, plain.heap, fused.live_store_ids()) == []


class TestAdaptiveWindow:
    def test_window_doubles_when_a_full_buffer_fuses(self):
        _, report = _run("blackscholes_chain", SessionConfig(execute=False), iters=4)
        assert report.final_window > 10
        assert report.iterations()[-1] == (67, 1)

    def test_window_is_capped(self):
        _, report = _run("blackscholes_chain", SessionConfig(execute=False), iters=4)
        assert report.final_window == MAX_WINDOW


class TestOtherBenchmarks:
    def test_jacobi_opaque_barrier_keeps_two_tasks(self):
        _, report = _run("jacobi", SessionConfig(execute=False), iters=3)
        assert report.iterations() == [(3, 2)] * 3

    def test_cg_like_steady_state(self):
        _, report = _run("cg_like", SessionConfig(execute=False), iters=4)
        counts = report.iterations()
        assert counts[-1] == (12, 4)
        assert all(abs(tout - 4) <= 1 for _, tout in counts)

    @pytest.mark.parametrize("name", ["jacobi", "cg_like", "blackscholes_chain"])
    def test_differential_heaps(self, name):
        fused, _ = _run(name, SessionConfig(), iters=3)
        plain, _ = _run(name, SessionConfig(fusion=False), iters=3)
        assert heap_diff(fused.heap, plain.heap, fused.live_store_ids()) == []


class TestAnalysisCost:
    """Call counts of the analysis steps, wrapped in the pipeline module as a
    tracer wraps them. They are sizes, not times."""

    @staticmethod
    def _counted(monkeypatch, iters):
        session = Session(SessionConfig(execute=False))
        lookups = Counter()  # flush index -> canonicalize calls
        prefixes, builds, bounds = [], [], []

        def wrap(name, record):
            fn = getattr(pipeline, name)

            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                record(result)
                return result

            monkeypatch.setattr(pipeline, name, counted)

        wrap("canonicalize", lambda _: lookups.update([len(session.report.per_flush)]))
        wrap("longest_fusible_prefix", lambda result: prefixes.append(result[0]))
        wrap("build_fused_task", builds.append)
        wrap("sub_store_bounds", bounds.append)
        report = run_events(session, gen_benchmark("cg_like", iters=iters))
        return session, report, lookups, prefixes, builds, bounds

    def test_one_lookup_per_flush_once_warm(self, monkeypatch):
        _, report, lookups, *_ = self._counted(monkeypatch, 40)
        for i, fr in enumerate(report.per_flush):
            # a flush looks up each missed remainder, and one that hits
            assert lookups[i] == fr.memo_misses + (fr.memo_hits > 0)
        warm = [i for i, fr in enumerate(report.per_flush) if fr.memo_misses]
        assert warm == [0, 1, 2]  # window growth, then the first full iteration
        assert all(lookups[i] == 1 for i in range(3, len(report.per_flush)))
        assert sum(lookups.values()) <= len(report.per_flush) + report.memo_misses

    def test_fused_task_built_only_for_fused_misses(self, monkeypatch):
        _, report, _, prefixes, builds, _ = self._counted(monkeypatch, 40)
        assert len(prefixes) == report.memo_misses
        assert len(builds) == sum(f > 1 for f in prefixes) > 0

    def test_sub_store_bounds_once_per_argument_shape(self, monkeypatch):
        session, report, *_, bounds = self._counted(monkeypatch, 40)
        assert len(bounds) == len(session._arg_facts) < report.tasks_out

    def test_argument_facts_do_not_grow_with_the_stream(self, monkeypatch):
        sizes = [len(self._counted(monkeypatch, n)[0]._arg_facts) for n in (50, 200)]
        assert sizes[0] == sizes[1] > 0

    def test_a_hit_looks_up_each_distinct_argument_once(self, monkeypatch):
        calls = Counter()  # flush index -> Session._facts calls
        windows = {}  # flush index -> distinct (store, partition, launch domain)
        facts, flush = Session._facts, Session._flush

        def counted(session, *args):
            calls[len(session.report.per_flush)] += 1
            return facts(session, *args)

        def snapshot(session, explicit):
            windows[len(session.report.per_flush)] = {
                (a.store, a.partition, t.domain) for t in session._buffer for a in t.args
            }
            flush(session, explicit)

        monkeypatch.setattr(Session, "_facts", counted)
        monkeypatch.setattr(Session, "_flush", snapshot)
        report = self._counted(monkeypatch, 40)[1]
        hits = [i for i, fr in enumerate(report.per_flush) if fr.memo_hits and not fr.memo_misses]
        assert len(hits) == len(report.per_flush) - 3
        for i in hits:
            assert 0 < calls[i] <= len(windows[i])

    def test_analysis_only_builds_no_task_to_launch(self, monkeypatch):
        built = []
        post_init = IndexTask.__post_init__

        def counted(t):
            built.append(t.kind)
            post_init(t)

        monkeypatch.setattr(IndexTask, "__post_init__", counted)
        _, report, _, _, builds, _ = self._counted(monkeypatch, 40)
        # the submitted tasks only: a missed prefix builds no fused task
        assert len(built) == report.tasks_in
        assert report.memo_hits > 10 * len(builds) > 0

    def test_partition_built_once_per_distinct_value(self, monkeypatch):
        events = gen_benchmark("cg_like", iters=40)
        parts = [e for e in events if isinstance(e, tracefmt.CreatePartition)]
        values = {tracefmt.partition_from_event(e) for e in parts}
        built = []
        build = tracefmt.partition_from_event

        def counted(ev):
            built.append(ev)
            return build(ev)

        monkeypatch.setattr(tracefmt, "partition_from_event", counted)
        session = Session(SessionConfig(execute=False))
        run_events(session, events)
        assert len(built) == len(values) == 2 < len(parts)
        assert {id(p) for p in session.partitions.values()} == {id(p) for p in session._interned}

    # executed cg_like overflows to NaN long before 40 iterations
    @pytest.mark.parametrize("execute, iters", [(False, 40), (True, 6)])
    def test_a_hit_only_flush_rebuilds_no_argument_tuple(self, monkeypatch, execute, iters):
        calls, rebinds = [0], []  # Carve.rebind calls, in all and per flush
        rebind, flush = memo.Carve.rebind, Session._flush

        def counted(carve, *args):
            calls[0] += 1
            return rebind(carve, *args)

        def per_flush(session, explicit):
            before = calls[0]
            flush(session, explicit)
            rebinds.append(calls[0] - before)

        monkeypatch.setattr(memo.Carve, "rebind", counted)
        monkeypatch.setattr(Session, "_flush", per_flush)
        session = Session(SessionConfig(execute=execute))
        report = run_events(session, gen_benchmark("cg_like", iters=iters))
        hit_only = [i for i, fr in enumerate(report.per_flush) if fr.memo_hits and not fr.memo_misses]
        assert len(hit_only) == len(report.per_flush) - 3
        # executed, each hit carve is rebound to run; analysis-only, none is
        assert [rebinds[i] for i in hit_only] == [
            report.per_flush[i].memo_hits if execute else 0 for i in hit_only
        ]

    def test_executed_fused_launch_runs_the_carves_task(self, monkeypatch):
        expected, executed = [], []
        launch, execute = Session._launch, pipeline.execute_task

        def recording_launch(session, carve, fr, *rest):
            prefix = session._buffer[: carve.prefix_len]
            args = tuple([StoreArg(s, p, pr) for s, p, pr in carve.args])
            scalars = fused_scalars(prefix) if len(prefix) > 1 else prefix[0].scalars
            expected.append((carve.kind, prefix[0].domain, args, scalars))
            launch(session, carve, fr, *rest)

        def recording_execute(t, *args):
            executed.append(t)
            execute(t, *args)

        monkeypatch.setattr(Session, "_launch", recording_launch)
        monkeypatch.setattr(pipeline, "execute_task", recording_execute)
        report = run_events(Session(SessionConfig()), gen_benchmark("cg_like", iters=6))
        assert report.memo_hits > 0 and max(report.fused_prefixes) > 1
        assert all(isinstance(t, IndexTask) for t in executed)
        assert [(t.kind, t.domain, t.args, t.scalars) for t in executed] == expected


class TestSessionLifecycle:
    @pytest.mark.parametrize("window", [0, -3, MAX_WINDOW + 1])
    def test_window_out_of_range_rejected(self, window):
        with pytest.raises(ValueError, match=f"got {window}"):
            Session(SessionConfig(window=window))
        assert Session(SessionConfig(window=1)).window == 1
        assert Session(SessionConfig(window=MAX_WINDOW)).window == MAX_WINDOW

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            Session(SessionConfig(seed=-1))
        Session(SessionConfig(seed=0))

    def test_equal_partitions_are_one_object(self):
        session = Session(SessionConfig())
        session.create_partition(0, tiling((2,)))
        session.create_partition(1, tiling((2,)))
        session.create_partition(2, tiling((2,), (1,)))
        assert session.partitions[0] is session.partitions[1]
        assert session.partitions[2] is not session.partitions[0]
        with pytest.raises(ValueError):
            session.create_partition(1, tiling((2,), (1,)))
        assert session.partitions[1] == tiling((2,))

    def test_a_long_stream_keeps_one_object_per_partition_value(self):
        session = Session(SessionConfig(execute=False))
        run_events(session, gen_benchmark("cg_like", iters=300))
        assert len(session.partitions) > 2000
        assert len({id(p) for p in session.partitions.values()}) == 2

    def test_duplicate_store_id_rejected(self):
        session = Session(SessionConfig())
        session.create_store(0, (4,))
        with pytest.raises(ValueError):
            session.create_store(0, (4,))

    def test_unknown_store_in_task_rejected(self):
        session = Session(SessionConfig())
        with pytest.raises(ValueError):
            session.submit(task("FILL", (2,), [(0, tiling((2,)), W)], [("s", 0.0)]))

    def test_drop_ref_frees_heap_storage(self):
        session = Session(SessionConfig())
        session.create_store(0, (4,))
        session.heap.get(0)
        session.drop_ref(0)
        assert not session.heap.materialized(0)

    # executed cg_like overflows to NaN long before 40 iterations
    @pytest.mark.parametrize("execute, iters", [(False, 40), (True, 6)])
    @pytest.mark.parametrize("name", ["cg_like", "stencil"])
    def test_explicit_flush_releases_every_runtime_reference(self, name, execute, iters):
        freed = Counter()
        checked = []

        class Checked(Session):
            def flush(self):
                super().flush()
                assert not any(self.refs.runtime_refs.values())
                dead = {s for s in self.stores if not self.refs.live(s)}
                assert set(freed) == dead  # freed when the last reference went
                assert set(freed.values()) <= {1}  # and only then
                checked.append(len(dead))

        session = Checked(SessionConfig(execute=execute))
        free = session.heap.free
        session.heap.free = lambda s: (freed.update([s]), free(s))
        run_events(session, gen_benchmark(name, iters=iters))
        assert len(checked) == iters and checked[-1] > checked[0] > 0

    def test_buffered_task_keeps_dropped_store_alive(self):
        session = Session(SessionConfig(window=50))
        session.create_store(0, (4,))
        session.create_store(1, (4,))
        session.submit(task("COPY", (2,), [(0, tiling((2,)), R), (1, tiling((2,)), W)]))
        session.drop_ref(0)
        assert session.refs.live(0)
        session.finish()
        assert not session.refs.live(0)

    def test_no_fusion_passthrough(self):
        _, report = _run("stencil", SessionConfig(execute=False, fusion=False), iters=2)
        assert report.tasks_out == report.tasks_in == 12
        assert report.fused_prefixes == [1] * 12

    def test_unfused_launch_generates_its_kernel_once(self, monkeypatch):
        calls = []
        generate = KernelRegistry.generate

        def counting(registry, t):
            calls.append(t.kind)
            return generate(registry, t)

        monkeypatch.setattr(KernelRegistry, "generate", counting)
        session = Session(SessionConfig(fusion=False))
        session.create_store(0, (4,))
        session.create_store(1, (4,))
        session.submit(task("COPY", (2,), [(0, tiling((2,)), R), (1, tiling((2,)), W)]))
        session.finish()
        assert calls == ["COPY"]
        assert (session.heap.get(1) == session.heap.get(0)).all()

    def test_finish_is_idempotent(self):
        session = Session(SessionConfig(execute=False))
        report = run_events(session, gen_benchmark("stencil", iters=1))
        assert session.finish() is report

    def test_finish_launches_a_task_submitted_after_an_earlier_finish(self):
        session = Session(SessionConfig())
        session.create_store(0, (4,))
        session.create_store(1, (4,))
        session.finish()
        session.submit(task("COPY", (2,), [(0, tiling((2,)), R), (1, tiling((2,)), W)]))
        report = session.finish()
        assert report.fused_prefixes == [1] and session._buffer == []
        assert (session.heap.get(1) == session.heap.get(0)).all()


class TestFailedFlush:
    """A launch that raises keeps the unlaunched tasks buffered."""

    @staticmethod
    def _window(session):
        for sid in range(4):
            session.create_store(sid, (4,))
        p = tiling((2,))
        for src, kind in enumerate(["COPY", "MYSTERY", "COPY"]):
            session.submit(task(kind, (2,), [(src, p, R), (src + 1, p, W)]))

    @staticmethod
    def _mystery(t, bufs):
        bufs["a1"][...] = 2.0 * bufs["a0"] + 1.0

    def test_flush_resumes_after_a_failed_launch(self):
        session = Session(SessionConfig())
        self._window(session)
        with pytest.raises(UnknownTaskKindError):
            session.flush()
        assert [t.kind for t in session._buffer] == ["MYSTERY", "COPY"]
        held = Counter(s for t in session._buffer for s in {a.store for a in t.args})
        assert {s: n for s, n in session.refs.runtime_refs.items() if n} == dict(held)

        copies = []
        session.builtins["MYSTERY"] = self._mystery
        with pytest.MonkeyPatch.context() as mp:
            execute = pipeline.execute_task
            mp.setattr(pipeline, "execute_task", lambda t, *a: copies.append(t.kind) or execute(t, *a))
            session.flush()
        assert copies == ["MYSTERY", "COPY"]
        assert not any(session.refs.runtime_refs.values())

        whole = Session(SessionConfig(), builtins={**default_builtins(), "MYSTERY": self._mystery})
        self._window(whole)
        whole.flush()
        assert heap_diff(session.heap, whole.heap, range(4)) == []
        report = session.finish()
        assert report.tasks_in == 3 == sum(report.fused_prefixes)


    def test_capacity_flush_that_raises_keeps_the_next_task(self):
        session = Session(SessionConfig(window=2))
        with pytest.raises(UnknownTaskKindError):
            self._window(session)  # the third task finds the buffer full
        assert [t.kind for t in session._buffer] == ["MYSTERY", "COPY"]
        held = Counter(s for t in session._buffer for s in {a.store for a in t.args})
        assert {s: n for s, n in session.refs.runtime_refs.items() if n} == dict(held)
        session.builtins["MYSTERY"] = self._mystery
        report = session.finish()
        assert report.tasks_in == 3 == sum(report.fused_prefixes)
        whole = Session(SessionConfig(), builtins={**default_builtins(), "MYSTERY": self._mystery})
        self._window(whole)
        whole.flush()
        assert heap_diff(session.heap, whole.heap, range(4)) == []


class TestCapacityFlush:
    """A full buffer is flushed when the next task arrives, after the
    ``drop_ref``s that follow the window's last task."""

    @staticmethod
    def _flushes(stream, config, explicit):
        """Per flush, its fused prefixes and temporaries. With ``explicit``,
        the session never fills: an explicit flush comes before each task
        that finds as many tasks buffered as the window, which grows as a
        session's does."""
        session = Session(config)
        never = len(stream.tasks) + 1
        window = session.window
        for sid in sorted(stream.stores):
            session.create_store(sid, stream.stores[sid])
        for i, t in enumerate(stream.tasks):
            if explicit:
                if len(session._buffer) >= window:
                    session.flush()
                    fr = session.report.per_flush[-1]
                    if fr.tasks_in > 1 and fr.tasks_out == 1:
                        window = min(window * 2, MAX_WINDOW)
                session.window = never
            session.submit(t)
            for sid in stream.drops.get(i, ()):
                session.drop_ref(sid)
        report = session.finish()
        return [(fr.fused_prefixes, fr.temporaries) for fr in report.per_flush], report

    @pytest.mark.parametrize("window", [2, 3])
    def test_fuzz_corpus_flushes_as_at_an_explicit_boundary(self, window):
        fired = 0
        for stream in stream_fuzz.corpus(1000):
            config = SessionConfig(window=window, execute=False)
            got, report = self._flushes(stream, config, explicit=False)
            want, _ = self._flushes(stream, config, explicit=True)
            assert got == want, stream.seed
            fired += sum(not fr.explicit for fr in report.per_flush)
        assert fired

    def test_chain_at_window_67_demotes_every_temporary(self):
        _, report = _run("blackscholes_chain", SessionConfig(window=67, execute=False), iters=4)
        assert [len(fr.temporaries) for fr in report.per_flush] == [66] * 4


class TestMemoBound:
    @staticmethod
    def _cycle(config):
        """Three distinct two-task windows, submitted in turn three times."""
        session = Session(config)
        for sid in range(3):
            session.create_store(sid, (4,))
        p = tiling((2,))
        kinds = [("COPY", "NEG"), ("NEG", "COPY"), ("COPY", "COPY")]
        sizes = []
        for _ in range(3):
            for first, second in kinds:
                session.submit(task(first, (2,), [(0, p, R), (1, p, W)]))
                session.submit(task(second, (2,), [(1, p, R), (2, p, W)]))
                session.flush()
                sizes.append(len(session.memo))
        return session, session.finish(), sizes

    def test_memo_keeps_at_most_its_capacity(self, monkeypatch):
        monkeypatch.setattr(memo, "MEMO_CAPACITY", 2)
        session, report, sizes = self._cycle(SessionConfig())
        assert max(sizes) == 2 and report.memo_hits == 0
        plain, plain_report, _ = self._cycle(SessionConfig(memoize=False))
        assert report.fused_prefixes == plain_report.fused_prefixes
        assert report.temporaries_eliminated == plain_report.temporaries_eliminated
        assert heap_diff(session.heap, plain.heap, range(3)) == []

    def test_steady_state_cg_like_hits_as_unbounded(self):
        _, report = _run("cg_like", SessionConfig(execute=False), iters=300)
        assert (report.memo_hits, report.memo_misses) == (1192, 9)
