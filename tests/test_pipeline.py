"""Windowed session pipeline: flushing, adaptive sizing, memo, execution."""

from __future__ import annotations

import math
import random
from collections import Counter

import numpy as np
import pytest

from diffusekit import memo, pipeline, trace as tracefmt
from diffusekit.executor import UnknownTaskKindError, default_builtins, heap_diff
from diffusekit.fusion import longest_fusible_prefix
from diffusekit.ir import Domain, IndexTask, ProjectionFn, StoreArg, Tiling
from diffusekit.kernels import KernelError, KernelRegistry
from diffusekit.oracle import DEFAULT_ORACLE_CAP
from diffusekit.pipeline import MAX_WINDOW, Session, SessionConfig, run_events
from diffusekit.temporaries import RefUnderflowError
from diffusekit.trace import BENCHMARKS, gen_benchmark
from helpers import R, RD, W, task, tiling
import stream_fuzz


def _run(name, config, **gen_kwargs):
    session = Session(config)
    report = run_events(session, gen_benchmark(name, **gen_kwargs))
    return session, report


def _argument_counts(session):
    """Per store, the number of buffered task arguments that name it."""
    return Counter(a.store for t in session._buffer for a in t.args)


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
            assert fr.memo_hits == 1
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

    def test_oracle_cross_check_rejects_a_prefix_past_a_dependence(self, monkeypatch):
        """The analysis admits one task past where it stopped: the stencil's
        trailing copy, which the AntiDep on the grid keeps apart."""
        analyse = pipeline.longest_fusible_prefix

        def one_too_many(tasks, registry):
            f, verdicts, steps = analyse(tasks, registry)
            return (f + 1 if verdicts else f), verdicts, steps

        monkeypatch.setattr(pipeline, "longest_fusible_prefix", one_too_many)
        with pytest.raises(
            pipeline.SoundnessError, match="oracle rejected engine-accepted prefix of 6 tasks starting with ADD"
        ):
            _run("stencil", SessionConfig(oracle_check=True), iters=1)

    @pytest.mark.parametrize("points, checked", [(DEFAULT_ORACLE_CAP, 1), (DEFAULT_ORACLE_CAP + 1, 0)])
    def test_oracle_cross_check_skips_a_launch_past_its_cap(self, points, checked, monkeypatch):
        """A fused prefix launched over more points than the oracle's cap is
        not checked: an oracle that rejects every prefix is never called."""
        calls = []
        monkeypatch.setattr(pipeline, "oracle_fusible", lambda *a: calls.append(a) or False)
        session = Session(SessionConfig(oracle_check=True, execute=False))
        for sid in range(3):
            session.create_store(sid, (points,))
        p = tiling((1,))
        session.submit(task("COPY", (points,), [(0, p, R), (1, p, W)]))
        session.submit(task("COPY", (points,), [(1, p, R), (2, p, W)]))
        if checked:
            with pytest.raises(pipeline.SoundnessError):
                session.flush()
        else:
            assert session.finish().fused_prefixes == [2]
        assert len(calls) == checked

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

    def test_chain_is_not_cut_while_the_window_grows(self):
        _, report = _run("blackscholes_chain", SessionConfig(execute=False), iters=4)
        assert [fr.fused_prefixes for fr in report.per_flush] == [[67]] * 4
        assert [len(fr.temporaries) for fr in report.per_flush] == [66] * 4
        assert report.memo_misses == 1

    def test_capacity_flush_that_does_not_fuse_whole_launches(self):
        _, report = _run("cg_like", SessionConfig(execute=False), iters=4)
        first, second = report.per_flush[:2]
        assert (first.explicit, first.fused_prefixes) == (False, [1, 2, 3, 4])
        assert (second.explicit, second.fused_prefixes) == (True, [2])

    @staticmethod
    def _neg_chain(config, n=600):
        """``n`` NEGs in a chain, with no explicit flush; the application
        drops each intermediate after the task that reads it."""
        session = Session(config)
        for sid in range(n + 1):
            session.create_store(sid, (8,))
        for i in range(n):
            session.submit(task("NEG", (4,), [(i, tiling((2,)), R), (i + 1, tiling((2,)), W)]))
            if i:
                session.drop_ref(i)
        return session, session.finish()

    @pytest.mark.parametrize("execute", [True, False], ids=["executed", "analysis-only"])
    @pytest.mark.parametrize("memoize", [True, False], ids=["memo on", "memo off"])
    def test_full_buffer_at_the_cap_launches_whole(self, memoize, execute):
        """At ``MAX_WINDOW`` a capacity flush whose buffer fuses whole is
        not deferred: it launches, and the window stays at the cap."""
        session, report = self._neg_chain(SessionConfig(memoize=memoize, execute=execute))
        assert [fr.fused_prefixes for fr in report.per_flush] == [[256], [256], [88]]
        assert [fr.explicit for fr in report.per_flush] == [False, False, True]
        assert report.final_window == MAX_WINDOW == 256
        if execute:
            plain, _ = self._neg_chain(SessionConfig(fusion=False))
            assert heap_diff(session.heap, plain.heap, session.live_store_ids()) == []


class TestDeferral:
    """A capacity flush whose whole buffer fuses grows the window and
    launches nothing."""

    @staticmethod
    def _counted(monkeypatch):
        """Deferrals per session: ``_flush`` calls that report nothing."""
        deferrals = Counter()
        flush = Session._flush

        def counted(session, explicit):
            flushes, window = len(session.report.per_flush), session.window
            buffered = session._buffer[:]
            flush(session, explicit)
            if buffered and len(session.report.per_flush) == flushes:
                assert not explicit and window < MAX_WINDOW
                assert session.window == min(2 * window, MAX_WINDOW)
                assert session._buffer == buffered
                deferrals[session] += 1

        monkeypatch.setattr(Session, "_flush", counted)
        return deferrals

    @pytest.mark.parametrize("memoize", [True, False])
    @pytest.mark.parametrize("window", [2, 10])
    def test_deferrals_are_bounded_and_their_steps_reported(self, window, memoize, monkeypatch):
        """Every constraint step an analysis takes is reported exactly once,
        deferred or not."""
        deferrals = self._counted(monkeypatch)
        steps = Counter()  # per session's registry, the steps its analyses took
        analyse = pipeline.longest_fusible_prefix

        def counted(tasks, registry):
            result = analyse(tasks, registry)
            steps[registry] += result[2]
            return result

        monkeypatch.setattr(pipeline, "longest_fusible_prefix", counted)
        config = SessionConfig(window=window, execute=False, memoize=memoize)
        sessions = [_run(name, config, iters=6)[0] for name in BENCHMARKS]
        sessions += [stream_fuzz.run_stream(s, config) for s in stream_fuzz.corpus(200)]
        assert 0 < max(deferrals.values()) <= math.ceil(math.log2(MAX_WINDOW / window))
        assert sum(steps.values()) > 0
        for session in sessions:
            assert session.report.constraint_steps == steps[session.registry]

    @staticmethod
    def _copy(src):
        return task("COPY", (2,), [(src, tiling((2,)), R), (src + 1, tiling((2,)), W)])

    def _submit_copies(self, session, srcs):
        for src in srcs:
            session.submit(self._copy(src))

    def test_a_memo_hit_defers_as_fresh_analysis_does(self):
        """A two-task window that fuses whole is memoized by an explicit
        flush. At window 2, a session starting from that memo fills its
        window with an isomorphic pair, and the next task defers the
        capacity flush from the hit."""
        warm = Session(SessionConfig(window=2))
        for sid in range(3):
            warm.create_store(sid, (4,))
        self._submit_copies(warm, [0, 1])
        warm.flush()
        assert warm.report.per_flush[-1].fused_prefixes == [2]
        outcomes = []
        for memoize in (True, False):
            session = Session(SessionConfig(window=2, memoize=memoize))
            if memoize:
                session.memo = warm.memo
            for sid in range(4):
                session.create_store(sid, (4,))
            self._submit_copies(session, [0, 1])
            analysed = []
            with pytest.MonkeyPatch.context() as mp:
                prefix = pipeline.longest_fusible_prefix
                counted = lambda *a: analysed.append(1) or prefix(*a)
                mp.setattr(pipeline, "longest_fusible_prefix", counted)
                session.submit(self._copy(2))
            assert session.window == 4 and len(session._buffer) == 3
            assert len(analysed) == (0 if memoize else 1)  # a hit analyses nothing
            report = session.finish()
            heaps = session.heap.digest(range(4))
            outcomes.append((report.fused_prefixes, report.temporaries_eliminated, heaps))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == [3]


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
        warm = [i for i, fr in enumerate(report.per_flush) if fr.memo_misses]
        assert warm == [0, 1, 2]  # window growth, then the first full iteration
        assert lookups == Counter(range(len(report.per_flush)))  # one per flush

    @pytest.mark.parametrize("memoize", [True, False], ids=["memo on", "memo off"])
    @pytest.mark.parametrize("window", [2, 10])
    def test_one_canonicalize_per_flush(self, window, memoize, monkeypatch):
        """Every ``_flush`` of a nonempty buffer, deferrals included,
        canonicalizes it once: a miss analyses its remainders from the
        buffer's facts, and a hit replays its carves from the one lookup."""
        calls = []  # per _flush call: its buffer's length, its canonicalize calls
        canonicalize, flush = pipeline.canonicalize, Session._flush

        def counted(*args):
            calls[-1][1] += 1
            return canonicalize(*args)

        def recorded(session, explicit):
            calls.append([len(session._buffer), 0])
            flush(session, explicit)

        monkeypatch.setattr(pipeline, "canonicalize", counted)
        monkeypatch.setattr(Session, "_flush", recorded)
        config = SessionConfig(window=window, execute=False, memoize=memoize)
        for name in BENCHMARKS:
            _run(name, config, iters=6)
        for stream in stream_fuzz.corpus(200):
            stream_fuzz.run_stream(stream, config)
        assert sum(n > 0 for n, _ in calls) > 200
        assert all(count == (n > 0) for n, count in calls)

    def test_fused_task_built_only_for_fused_misses(self, monkeypatch):
        _, report, _, prefixes, builds, _ = self._counted(monkeypatch, 40)
        # a missed flush analyses each of its carves, and a hit none
        assert len(prefixes) == sum(fr.tasks_out for fr in report.per_flush if fr.memo_misses)
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

    @pytest.mark.parametrize("memoize", [True, False], ids=["memo on", "memo off"])
    @pytest.mark.parametrize("execute", [False, True], ids=["analysis-only", "executed"])
    @pytest.mark.parametrize("name", ["cg_like", "stencil"])
    def test_argument_facts_are_resolved_only_by_canonicalize(
        self, monkeypatch, name, execute, memoize
    ):
        depth, calls = [0], [0]  # open and all canonicalize calls
        stray, per_flush = [], []  # Session._facts calls outside it; its calls per flush
        canonicalize, facts, flush = pipeline.canonicalize, Session._facts, Session._flush

        def nested(*args):
            calls[0] += 1
            depth[0] += 1
            try:
                return canonicalize(*args)
            finally:
                depth[0] -= 1

        def counted(session, *args):
            if not depth[0]:
                stray.append(args)
            return facts(session, *args)

        def flushed(session, explicit):
            before, buffered = calls[0], bool(session._buffer)
            flush(session, explicit)
            if buffered:
                per_flush.append(calls[0] - before)

        monkeypatch.setattr(pipeline, "canonicalize", nested)
        monkeypatch.setattr(Session, "_facts", counted)
        monkeypatch.setattr(Session, "_flush", flushed)
        # executed cg_like overflows to NaN long before 40 iterations
        session = Session(SessionConfig(execute=execute, memoize=memoize))
        report = run_events(session, gen_benchmark(name, iters=6))
        assert stray == [] and session._arg_facts
        assert len(per_flush) >= len(report.per_flush) > 0
        if memoize:
            assert report.memo_hits > 0
        else:
            assert per_flush == [1] * len(per_flush)
            assert len(session.memo) == 0

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
        replayed = sum(fr.tasks_out for fr in report.per_flush if fr.memo_hits)
        assert replayed > 10 * len(builds) > 0

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
        assert {id(p) for p in session.partitions.values()} == {id(p) for p in session._event_parts.values()}

    # executed cg_like overflows to NaN long before 40 iterations
    @pytest.mark.parametrize("execute, iters", [(False, 40), (True, 6)])
    def test_a_hit_only_flush_rebuilds_no_argument_tuple(self, monkeypatch, execute, iters):
        calls, builds = [0], []  # argument tuples built, in all and per flush
        store_args, flush = Session._store_args, Session._flush

        def counted(session, carve):
            calls[0] += 1
            return store_args(session, carve)

        def per_flush(session, explicit):
            before = calls[0]
            flush(session, explicit)
            builds.append(calls[0] - before)

        monkeypatch.setattr(Session, "_store_args", counted)
        monkeypatch.setattr(Session, "_flush", per_flush)
        session = Session(SessionConfig(execute=execute))
        report = run_events(session, gen_benchmark("cg_like", iters=iters))
        hit_only = [i for i, fr in enumerate(report.per_flush) if fr.memo_hits and not fr.memo_misses]
        assert len(hit_only) == len(report.per_flush) - 3
        # executed, each fused carve builds its task's arguments; analysis-only, none does
        fused = [sum(f > 1 for f in report.per_flush[i].fused_prefixes) for i in hit_only]
        assert [builds[i] for i in hit_only] == (fused if execute else [0] * len(hit_only))
        assert not execute or min(fused) > 0

    def test_executed_fused_launch_runs_the_carves_task(self, monkeypatch):
        expected, executed = [], []
        launch, execute = Session._launch, pipeline.execute_task

        def recording_launch(session, carve, fr, *rest):
            prefix = session._buffer[: carve.prefix_len]
            args = tuple([StoreArg(*prefix[t].args[k][:2], pr) for t, k, pr in carve.args])
            scalars = prefix[0].scalars
            if len(prefix) > 1:  # task i's k-th scalar is named s{i}_{k}
                scalars = tuple(
                    (f"s{i}_{k}", v) for i, t in enumerate(prefix) for k, (_, v) in enumerate(t.scalars)
                )
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
        # stored as given: apply_event builds one object per partition event
        assert session.partitions[0] == session.partitions[1]
        assert session.partitions[2] != session.partitions[0]
        with pytest.raises(ValueError):
            session.create_partition(1, tiling((2,), (1,)))
        assert session.partitions[1] == tiling((2,))

    def test_a_long_stream_keeps_one_object_per_partition_value(self):
        session = Session(SessionConfig(execute=False))
        run_events(session, gen_benchmark("cg_like", iters=300))
        assert len(session.partitions) > 2000
        assert len({id(p) for p in session.partitions.values()}) == 2

    def test_apply_event_of_a_non_event_rejected(self):
        session = Session(SessionConfig())
        with pytest.raises(TypeError, match="^unknown event"):
            pipeline.apply_event(session, ("create_store", 0, (4,)))
        assert session.stores == {} and session._buffer == []

    def test_duplicate_store_id_rejected(self):
        session = Session(SessionConfig())
        session.create_store(0, (4,))
        with pytest.raises(ValueError, match=r"^store id 0 already exists$"):
            session.create_store(0, (4,))
        session.drop_ref(0)
        with pytest.raises(ValueError, match=r"^store id 0 already exists$"):
            session.create_store(0, (4,))  # a dropped id is not created again
        assert session.refs.app_live == set()

    def test_drop_ref_of_an_unknown_store_rejected(self):
        session = Session(SessionConfig())
        with pytest.raises(ValueError, match=r"^drop_ref names unknown store 99$"):
            session.drop_ref(99)
        session.create_store(0, (4,))
        session.drop_ref(0)
        with pytest.raises(RefUnderflowError, match=r"^application reference underflow on store 0$"):
            session.drop_ref(0)

    def test_unknown_store_in_task_rejected(self):
        session = Session(SessionConfig())
        with pytest.raises(ValueError, match=r"^task FILL names unknown store 0$"):
            session.submit(task("FILL", (2,), [(0, tiling((2,)), W)], [("s", 0.0)]))

    @pytest.mark.parametrize("buffered", [True, False])
    def test_task_naming_a_released_store_rejected(self, buffered):
        """Still held by a buffered task or freed, a store the application
        dropped cannot be named again; the rejected task changes nothing."""
        session = Session(SessionConfig(window=50))
        for sid in range(3):
            session.create_store(sid, (4,))
        p = tiling((2,))
        session.submit(task("COPY", (2,), [(0, p, R), (1, p, W)]))
        session.drop_ref(0)
        if not buffered:
            session.flush()
        state = (session._buffer[:], set(session.refs.app_live), dict(session.refs.runtime_refs))
        with pytest.raises(ValueError, match=r"^task COPY names released store 0$"):
            session.submit(task("COPY", (2,), [(0, p, R), (2, p, W)]))
        assert (session._buffer, session.refs.app_live, session.refs.runtime_refs) == state
        assert (0 in session.refs.runtime_refs) == buffered
        assert 0 not in session.refs.app_live

    def test_drop_ref_frees_heap_storage(self):
        session = Session(SessionConfig())
        session.create_store(0, (4,))
        session.heap.get(0)
        session.drop_ref(0)
        assert 0 not in session.heap.arrays

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
                # no runtime reference is left, so the dead are those the
                # application dropped
                dead = set(self.stores) - self.refs.app_live
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
        assert 0 not in session.refs.app_live and session.refs.runtime_refs[0] == 1
        session.finish()
        assert 0 not in session.refs.app_live and 0 not in session.refs.runtime_refs

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


class TestReferenceLifetimes:
    """A seeded model of an application's steps. After every step, the
    application holds the stores it created and did not drop, the runtime
    holds one reference per buffered task argument, and the heap has freed
    each dropped store that no buffered task names exactly once, and no
    other store."""

    @staticmethod
    def _step(rng, session, p, created, dropped, step):
        live = sorted(created - dropped)
        r = rng.random()
        if r < 0.3 or len(live) < 3:
            session.create_store(step, (4,))
            created.add(step)
        elif r < 0.65:
            a, b, out = rng.sample(live, 3)
            if rng.random() < 0.4:
                session.submit(task("COPY", (2,), [(a, p, R), (out, p, W)]))
            else:
                b = a if rng.random() < 0.3 else b  # some ADDs read one store twice
                session.submit(task("ADD", (2,), [(a, p, R), (b, p, R), (out, p, W)]))
        elif r < 0.9:
            s = rng.choice(live)
            session.drop_ref(s)
            dropped.add(s)
        else:
            session.flush()

    @pytest.mark.parametrize("execute", [False, True])
    @pytest.mark.parametrize("memoize", [True, False])
    @pytest.mark.parametrize("window", [1, 2, 4])
    def test_random_steps_keep_references_exact(self, window, memoize, execute):
        rng = random.Random(f"{window}-{memoize}-{execute}")
        session = Session(SessionConfig(window=window, memoize=memoize, execute=execute))
        freed = Counter()
        free = session.heap.free
        session.heap.free = lambda s: (freed.update([s]), free(s))
        p = tiling((2,))
        created, dropped = set(), set()
        twice = 0
        for step in range(300):
            self._step(rng, session, p, created, dropped, step)
            named = _argument_counts(session)
            assert session.refs.app_live == created - dropped
            assert session.refs.runtime_refs == named
            assert set(freed) == dropped - set(named) and set(freed.values()) <= {1}
            twice += any(n > 1 for n in named.values())
        session.finish()
        assert session.refs.runtime_refs == {} and set(freed) == dropped
        assert twice and len(freed) > 50 and session.report.tasks_in > 50

    # executed cg_like overflows to NaN, so it runs analysis-only only
    @pytest.mark.parametrize("name, execute, lengths", [
        pytest.param("cg_like", False, (50, 400), id="cg_like"),
        pytest.param("stencil", False, (50, 400), id="stencil"),
        pytest.param("stencil", True, (10, 40), id="stencil-executed"),
        pytest.param("blackscholes_chain", True, (4, 16), id="blackscholes_chain-executed"),
        pytest.param("jacobi", True, (10, 40), id="jacobi-executed"),
    ])
    def test_reference_tables_do_not_grow_with_the_stream(self, name, execute, lengths):
        """The references, the descriptor tables, the memo and each memoized
        kernel's traffic counts stay one size at both stream lengths."""
        sizes = []
        for iters in lengths:
            session, _ = _run(name, SessionConfig(execute=execute), iters=iters)
            refs = {table: len(v) for table, v in vars(session.refs).items()}
            assert set(refs) == {"app_live", "runtime_refs"} and refs["app_live"] > 0
            assert bool(session._launch_plans) == execute  # executed runs plan their launches
            tables = [session._arg_facts, session._launch_plans, session._domains]
            tables += [session._event_parts, session.memo]
            kernels = [c.kernel for carves, _ in session.memo._entries.values() for c in carves]
            traffic = [len(k.traffic) for k in kernels if k is not None]
            sizes.append((refs, [len(t) for t in tables], sorted(traffic)))
        assert sizes[0] == sizes[1]


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
        assert session.refs.runtime_refs == _argument_counts(session)

        copies = []
        session.builtins["MYSTERY"] = self._mystery
        with pytest.MonkeyPatch.context() as mp:
            execute = pipeline.execute_task
            mp.setattr(pipeline, "execute_task", lambda t, *a: copies.append(t.kind) or execute(t, *a))
            session.flush()
        assert copies == ["MYSTERY", "COPY"]
        assert session.refs.runtime_refs == {}

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
        assert session.refs.runtime_refs == _argument_counts(session)
        session.builtins["MYSTERY"] = self._mystery
        report = session.finish()
        assert report.tasks_in == 3 == sum(report.fused_prefixes)
        whole = Session(SessionConfig(), builtins={**default_builtins(), "MYSTERY": self._mystery})
        self._window(whole)
        whole.flush()
        assert heap_diff(session.heap, whole.heap, range(4)) == []


    @pytest.mark.parametrize("memoize", [True, False], ids=["memo on", "memo off"])
    def test_a_flush_whose_planning_raises_launches_nothing(self, memoize):
        session = Session(SessionConfig(memoize=memoize))
        for sid in range(3):
            session.create_store(sid, (8,))
        session.submit(task("COPY", (2,), [(0, tiling((4,)), R), (1, tiling((4,)), W)]))
        # a new launch domain ends the COPY's carve; the ADD lacks an argument
        session.submit(task("ADD", (4,), [(1, tiling((2,)), R), (2, tiling((2,)), W)]))
        buffer, refs = list(session._buffer), dict(session.refs.runtime_refs)
        assert not session.heap.arrays
        with pytest.raises(KernelError, match="expected 3 store args"):
            session.flush()
        assert session._buffer == buffer
        assert session.refs.runtime_refs == refs
        assert not session.heap.arrays
        assert len(session.memo) == 0
        assert session.report.per_flush == []


    @staticmethod
    def _jacobi(fail):
        """Executed jacobi at window 10; with ``fail``, the first traffic
        count raises, after the launch's kernel is planned, and the error is
        caught at ``apply_event``. The kernels run, the report, the number of
        tasks submitted and the live heaps."""
        executed, counts = [], []
        execute, traffic = pipeline.execute_task, pipeline.count_memory_traffic

        def raising(*args):
            counts.append(1)
            if fail and len(counts) == 1:
                raise MemoryError("injected")
            return traffic(*args)

        session = Session(SessionConfig(window=10))
        events = gen_benchmark("jacobi", iters=3)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pipeline, "execute_task", lambda t, *a: executed.append(t) or execute(t, *a))
            mp.setattr(pipeline, "count_memory_traffic", raising)
            for ev in events:
                try:
                    pipeline.apply_event(session, ev)
                except MemoryError:
                    assert session.refs.runtime_refs == _argument_counts(session)
            report = session.finish()
        submitted = sum(type(ev) is tracefmt.TaskEvent for ev in events)
        return executed, report, submitted, session.heap.digest(session.live_store_ids())

    def test_a_launch_whose_bookkeeping_raises_runs_its_kernel_once(self):
        executed, report, submitted, heaps = self._jacobi(fail=True)
        clean, clean_report, _, clean_heaps = self._jacobi(fail=False)
        assert len(executed) == len(clean) == 6
        assert report.tasks_in == clean_report.tasks_in == submitted == 9
        assert heaps == clean_heaps


class TestReadAndReduceOneStore:
    """A task that reads and reduces one store is valid, and launches alone:
    fused with the next task, its R and Rd arguments would be joined."""

    @staticmethod
    def _run(config):
        session = Session(config)
        for sid in range(3):
            session.create_store(sid, (8,))
        p = Tiling((4,), (0,), ProjectionFn.identity(1))
        for _ in range(2):  # the second window replays the first's carves
            session.submit(IndexTask("SUM", Domain((2,)), (StoreArg(0, p, R), StoreArg(0, p, RD))))
            session.submit(IndexTask("NEG", Domain((2,)), (StoreArg(1, p, R), StoreArg(2, p, W))))
            session.flush()
        return session, session.finish()

    @pytest.mark.parametrize("execute", [True, False], ids=["executed", "analysis-only"])
    @pytest.mark.parametrize("memoize", [True, False], ids=["memo on", "memo off"])
    def test_flush_launches_it_alone(self, memoize, execute):
        session, report = self._run(SessionConfig(memoize=memoize, execute=execute))
        assert session._buffer == []
        assert report.fused_prefixes == [1, 1, 1, 1]
        assert report.memo_hits == (1 if memoize else 0)
        described = [v.describe() for fr in report.per_flush for v in fr.verdicts]
        assert described == ["Reduction at task 0 on store 0"] * 2
        if execute:
            plain, _ = self._run(SessionConfig(fusion=False))
            assert heap_diff(session.heap, plain.heap, range(3)) == []


class TestCapacityFlush:
    """A full buffer is flushed when the next task arrives, after the
    ``drop_ref``s that follow the window's last task. Every capacity flush
    that launches decides what an explicit flush at the same place would;
    one whose whole buffer fuses grows the window instead, and the flush at
    the later boundary decides."""

    @staticmethod
    def _flushes(stream, config, explicit):
        """Per flush, its fused prefixes and temporaries, and how often the
        window grew without a launch. With ``explicit``, the session never
        fills: before each task that finds as many tasks buffered as the
        window, which grows as a session's does, either the window doubles,
        if below ``MAX_WINDOW`` more than one task is buffered and
        ``longest_fusible_prefix`` fuses them all, or the buffer is flushed
        explicitly."""
        session = Session(config)
        never = len(stream.tasks) + 1
        window, grown = session.window, 0
        for sid in sorted(stream.stores):
            session.create_store(sid, stream.stores[sid])
        for i, t in enumerate(stream.tasks):
            if explicit:
                buffer = session._buffer
                if len(buffer) >= window:
                    f, _, _ = longest_fusible_prefix(buffer, session.registry)
                    if 1 < f == len(buffer) and window < MAX_WINDOW:
                        window, grown = min(window * 2, MAX_WINDOW), grown + 1
                    else:
                        session.flush()
                        fr = session.report.per_flush[-1]
                        if fr.tasks_in > 1 and fr.tasks_out == 1:
                            window = min(window * 2, MAX_WINDOW)
                session.window = never
            session.submit(t)
            for sid in stream.drops.get(i, ()):
                session.drop_ref(sid)
        report = session.finish()
        return [(fr.fused_prefixes, fr.temporaries) for fr in report.per_flush], report, grown

    @pytest.mark.parametrize("window", [2, 3])
    def test_fuzz_corpus_flushes_as_at_an_explicit_boundary(self, window):
        fired = grown = 0
        for stream in stream_fuzz.corpus(1000):
            config = SessionConfig(window=window, execute=False)
            got, report, _ = self._flushes(stream, config, explicit=False)
            want, _, n = self._flushes(stream, config, explicit=True)
            assert got == want, stream.seed
            fired += sum(not fr.explicit for fr in report.per_flush)
            grown += n
        assert fired and grown

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
        session, report = _run("cg_like", SessionConfig(execute=False), iters=300)
        assert (report.memo_hits, report.memo_misses, len(session.memo)) == (298, 3, 3)
