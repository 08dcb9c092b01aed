"""Canonicalization of task windows and the analysis memo cache."""

from __future__ import annotations

import random
from collections import OrderedDict

import pytest

from diffusekit import memo, pipeline
from diffusekit.ir import Domain, NonePart, ProjectionFn, Store, StoreArg
from diffusekit.kernels import Kernel, kernel_text
from diffusekit.memo import (
    CanonicalStream,
    Carve,
    MemoCache,
    canon_text,
    canonicalize,
    extent_class,
)
from diffusekit.pipeline import Session, SessionConfig, run_events
from diffusekit.trace import BENCHMARKS, gen_benchmark
from helpers import R, RD, RW, W, store_table, task, tiling
from stream_fuzz import corpus, run_stream


def _swap_stream(a, b, c):
    """Four-task window over three stores with a swap-like access pattern."""
    n = NonePart()
    return [
        task("COPY", (1,), [(a, n, R), (b, n, W)]),
        task("COPY", (1,), [(b, n, R), (a, n, W)]),
        task("COPY", (1,), [(b, n, R), (c, n, W)]),
        task("COPY", (1,), [(c, n, R), (a, n, W)]),
    ]


def _swap_stream_variant(a, b, c):
    n = NonePart()
    stream = _swap_stream(a, b, c)
    stream[2] = task("COPY", (1,), [(c, n, R), (c, n, W)])
    return stream


def _stores(ids, shape=(4,)):
    return {i: Store(i, Domain(shape)) for i in ids}


class TestCanonicalize:
    def test_isomorphic_streams_share_canonical_form(self):
        left, *_ = canonicalize(_swap_stream(1, 2, 3), _stores([1, 2, 3]), {1, 2, 3})
        middle, *_ = canonicalize(_swap_stream(5, 6, 7), _stores([5, 6, 7]), {5, 6, 7})
        assert left == middle
        assert canon_text(left) == canon_text(middle)

    def test_differing_access_pattern_changes_the_form(self):
        left, *_ = canonicalize(_swap_stream(1, 2, 3), _stores([1, 2, 3]), {1, 2, 3})
        right, *_ = canonicalize(
            _swap_stream_variant(1, 2, 3), _stores([1, 2, 3]), {1, 2, 3}
        )
        assert left != right
        assert left.tasks[2][2] == ((1, 0, R), (2, 0, W))
        assert right.tasks[2][2] == ((2, 0, R), (2, 0, W))

    def test_invariant_under_random_renaming(self):
        rng = random.Random(7)
        base, *_ = canonicalize(_swap_stream(0, 1, 2), _stores([0, 1, 2]), {0, 1, 2})
        for _ in range(20):
            ids = rng.sample(range(100), 3)
            renamed, *_ = canonicalize(
                _swap_stream(*ids), _stores(ids), set(ids)
            )
            assert renamed == base

    def test_liveness_is_part_of_the_form(self):
        live, *_ = canonicalize(_swap_stream(1, 2, 3), _stores([1, 2, 3]), {1, 2, 3})
        dead, *_ = canonicalize(_swap_stream(1, 2, 3), _stores([1, 2, 3]), {1, 3})
        assert live != dead

    def test_scalar_values_do_not_enter_the_key(self):
        p = tiling((2,))
        stores = store_table((4,), (4,))

        def stream(value):
            return [task("MULT", (2,), [(0, p, R), (1, p, W)], [("s", value)])]

        a, *_ = canonicalize(stream(0.2), stores, set())
        b, *_ = canonicalize(stream(0.5), stores, set())
        assert a == b
        c, *_ = canonicalize([task("COPY", (2,), [(0, p, R), (1, p, W)])], stores, set())
        assert a != c  # scalar arity and kind still count

    def test_scale_does_not_enter_the_key(self):
        def stream(n, size):
            p = tiling((size // n,))
            stores = store_table((size,), (size,))
            tasks = [task("COPY", (n,), [(0, p, R), (1, p, W)])]
            return canonicalize(tasks, stores, set())[0]

        assert stream(2, 8) == stream(64, 4096)

    def test_coverage_difference_changes_the_key(self):
        p = tiling((2,))

        def stream(size):
            stores = store_table((size,), (4,))
            tasks = [task("COPY", (2,), [(0, p, R), (1, p, W)])]
            return canonicalize(tasks, stores, set())[0]

        assert stream(4) != stream(6)  # the larger source is not covered

    def test_empty_window(self):
        stream, facts = canonicalize([], {}, set())
        assert stream.tasks == () and stream.live == () and facts == ()


class TestExtentClass:
    def test_replication_is_full(self):
        s = Store(0, Domain((4, 4)))
        assert extent_class(s, NonePart(), Domain((2,)))[0] == "full"

    def test_exact_tiling_is_tile(self):
        s = Store(0, Domain((4, 4)))
        assert extent_class(s, tiling((2, 2)), Domain((2, 2))) == ("tile", (2, 2))

    def test_shifted_view_is_clamped(self):
        s = Store(0, Domain((4, 4)))
        cls = extent_class(s, tiling((2, 2), (1, 1)), Domain((2, 2)))
        assert cls[0] == "clamped"


class TestMemoCache:
    def test_lookup_counts_hits_and_misses(self):
        cache = MemoCache()
        key, *_ = canonicalize(_swap_stream(0, 1, 2), _stores([0, 1, 2]), set())
        assert cache.lookup(key) is None
        cache.insert(key, (Carve(2),))
        entry = cache.lookup(key)
        assert entry is not None and entry[0].prefix_len == 2
        assert len(cache) == 1

    def test_insert_is_idempotent(self):
        cache = MemoCache()
        key, *_ = canonicalize(_swap_stream(0, 1, 2), _stores([0, 1, 2]), set())
        cache.insert(key, (Carve(2),))
        cache.insert(key, (Carve(4),))
        assert cache.lookup(key)[0].prefix_len == 2

    def test_isomorphic_window_hits(self):
        cache = MemoCache()
        k1, *_ = canonicalize(_swap_stream(0, 1, 2), _stores([0, 1, 2]), set())
        k2, *_ = canonicalize(_swap_stream(9, 4, 6), _stores([9, 4, 6]), set())
        k3, *_ = canonicalize(
            _swap_stream_variant(0, 1, 2), _stores([0, 1, 2]), set()
        )
        cache.insert(k1, (Carve(4),))
        assert cache.lookup(k2) is not None
        assert cache.lookup(k3) is None


class TestReplayEqualsFreshAnalysis:
    """A memo hit replays every carve of its flush; the results must be those
    of analysing every window afresh."""

    @pytest.fixture
    def launches(self, monkeypatch):
        """Every kernel launch, as its task's kind, launch domain, arguments
        and scalars, read from the window at the carve's positions, beside
        the carve's own fields: prefix length, demoted argument positions,
        kind, arguments, each verdict's constraint, task and positions, and
        kernel_text. Analysis-only runs launch too. A replayed carve and a
        fresh one are compared as they are, with no mapping."""
        recorded = []
        launch = Session._launch

        def recording(self, carve, fr, *rest):
            if carve.kernel is not None:
                window = self._buffer
                args = tuple([StoreArg(*window[t].args[k][:2], pr) for t, k, pr in carve.args])
                values = [v for t in window[: carve.prefix_len] for _, v in t.scalars]
                scalars = tuple(zip(carve.kernel.scalar_params, values))
                text = kernel_text(carve.kernel)
                verdicts = [
                    (v.constraint, v.blocking_task_index, v.argument, v.earlier)
                    for v in carve.verdicts
                ]
                own = (carve.prefix_len, carve.temp_arg_positions, carve.kind, carve.args, verdicts)
                recorded.append(((carve.kind, window[0].domain, args, scalars, text), own + (text,)))
            return launch(self, carve, fr, *rest)

        monkeypatch.setattr(Session, "_launch", recording)
        return recorded

    @staticmethod
    def _outcome(session, live_ids, launches):
        report = session.report
        outcome = (
            report.fused_prefixes,
            report.temporaries_eliminated,
            report.to_json()["verdicts"],
            [fr.kernel_stats for fr in report.per_flush],
            (report.loads, report.stores),
            session.heap.digest(live_ids) if session.config.execute else None,
            launches[:],
        )
        launches.clear()
        return outcome

    @pytest.mark.parametrize("execute", [False, True])
    @pytest.mark.parametrize("window", [2, 10, 67])
    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    def test_benchmarks(self, name, window, execute, launches):
        events = gen_benchmark(name, iters=4)
        outcomes, hits = [], []
        for memoize in (True, False):
            session = Session(SessionConfig(window=window, memoize=memoize, execute=execute))
            hits.append(run_events(session, events).memo_hits)
            outcomes.append(self._outcome(session, session.live_store_ids(), launches))
        assert hits[0] > 0 and hits[1] == 0
        assert outcomes[0][-1]
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("window", [2, 10])
    def test_fuzz_corpus(self, window, launches):
        """Each stream runs twice with the memo on, the second time from the
        first run's memo, where every flush replays whole; both runs match
        the memo-off run."""
        for stream in corpus(200):
            config = SessionConfig(window=window)
            cold = run_stream(stream, config)
            outcomes = [self._outcome(cold, stream.live_ids, launches)]
            warm = run_stream(stream, config, cold.memo)
            flushes = warm.report.per_flush
            assert flushes and all(fr.memo_misses == 0 for fr in flushes), stream.seed
            assert all(fr.memo_hits == 1 for fr in flushes), stream.seed
            outcomes.append(self._outcome(warm, stream.live_ids, launches))
            plain = run_stream(stream, SessionConfig(window=window, memoize=False))
            outcomes.append(self._outcome(plain, stream.live_ids, launches))
            assert outcomes[0] == outcomes[1] == outcomes[2], f"stream seed {stream.seed}"

    def test_kernel_text_of_a_window_whose_stores_differ_in_rank(self, monkeypatch):
        """Two windows over one 2x2 launch share a key: NEG then COPY over
        rank-2 stores through an offset identity tiling, then over rank-1
        stores through a tiling that drops a launch dimension. The second
        replays the first's kernel, which must print as a fresh one."""
        texts = []
        execute = pipeline.execute_task

        def recording(t, heap, stores, builtins, kernel, positions, *rest):
            texts.append(kernel_text(kernel))
            execute(t, heap, stores, builtins, kernel, positions, *rest)

        monkeypatch.setattr(pipeline, "execute_task", recording)
        square = tiling((2, 2), (1, 1))
        row = tiling((2,), (1,), ProjectionFn(((1, 0),), (0,)))
        runs, hits = [], []
        for memoize in (True, False):
            session = Session(SessionConfig(memoize=memoize))
            for first, shape, part in [(0, (5, 5), square), (3, (5,), row)]:
                for sid in range(first, first + 3):
                    session.create_store(sid, shape)
                session.submit(task("NEG", (2, 2), [(first, part, R), (first + 1, part, W)]))
                session.submit(task("COPY", (2, 2), [(first + 1, part, R), (first + 2, part, W)]))
                session.flush()
            hits.append(session.finish().memo_hits)
            runs.append((texts[:], session.heap.digest(range(6))))
            texts.clear()
        assert hits[0] > 0 and hits[1] == 0
        assert runs[0] == runs[1]


def test_memo_evicts_the_least_recently_used_entry(monkeypatch):
    monkeypatch.setattr(memo, "MEMO_CAPACITY", 2)
    cache = MemoCache()
    a, b, c = (CanonicalStream((), (rank,), (), ()) for rank in range(3))
    cache.insert(a, (Carve(1),))
    cache.insert(b, (Carve(2),))
    assert cache.lookup(a) is not None  # a is now more recent than b
    cache.insert(c, (Carve(3),))
    assert len(cache) == 2 and cache.lookup(b) is None
    assert cache.lookup(a)[0].prefix_len == 1
    assert cache.lookup(c)[0].prefix_len == 3


def test_memo_evicts_as_an_ordered_lru_does(monkeypatch):
    """Random inserts and lookups, re-inserts of held keys included, against
    an ``OrderedDict`` that moves a key to its end on every hit."""
    monkeypatch.setattr(memo, "MEMO_CAPACITY", 5)
    rng = random.Random(7)
    cache, model = MemoCache(), OrderedDict()
    keys = [CanonicalStream((), (rank,), (), ()) for rank in range(12)]
    for step in range(3000):
        key = rng.choice(keys)
        if rng.random() < 0.5:
            carves = (Carve(step),)
            cache.insert(key, carves)
            model.setdefault(key, carves)
            if len(model) > 5:
                model.popitem(last=False)
        else:
            want = model.get(key)
            if want is not None:
                model.move_to_end(key)
            assert cache.lookup(key) == want
        assert len(cache) == len(model)
