"""Reference counting and detection of fusion-created temporaries."""

from __future__ import annotations

import random

import pytest

from diffusekit.ir import NonePart, covers
from diffusekit.pipeline import Session, SessionConfig, run_events
from diffusekit.temporaries import RefState, RefUnderflowError, find_temporaries
from diffusekit.trace import BENCHMARKS, gen_benchmark
import stream_fuzz
from helpers import R, RD, RW, W, stencil_window, store_table, task, tiling


class TestRefState:
    def test_create_grants_one_app_ref(self):
        refs = RefState()
        refs.create(0)
        assert refs.app_refs[0] == 1 and refs.live(0)

    def test_double_create_rejected(self):
        refs = RefState()
        refs.create(0)
        with pytest.raises(ValueError):
            refs.create(0)

    def test_drop_underflow_rejected(self):
        refs = RefState()
        refs.create(0)
        refs.drop_app_ref(0)
        with pytest.raises(RefUnderflowError):
            refs.drop_app_ref(0)

    def test_runtime_refs_keep_store_live(self):
        refs = RefState()
        refs.create(0)
        refs.drop_app_ref(0)
        assert not refs.live(0)
        refs.acquire_runtime(0)
        assert refs.live(0)
        refs.release_runtime(0)
        assert not refs.live(0)
        with pytest.raises(RefUnderflowError):
            refs.release_runtime(0)


    def test_app_live_follows_app_counts(self):
        rng = random.Random(3)
        refs = RefState()
        for step in range(500):
            op = rng.choice(["create", "add", "drop", "drop"])
            if op == "create":
                refs.create(step)
            elif refs.app_refs:
                s = rng.choice(sorted(refs.app_refs))
                if op == "add":
                    refs.add_app_ref(s)
                elif refs.app_refs[s]:
                    refs.drop_app_ref(s)
            assert refs.app_live == {s for s, n in refs.app_refs.items() if n > 0}
        assert refs.app_live and len(refs.app_live) < len(refs.app_refs)


def _chain_scenario():
    """z = x * y; w = y + z; v = w ** 2; norm += w . w, with x, y, z, w
    dereferenced by the application and v still held.

    Stores: 0=x 1=y 2=z 3=w 4=v 5=norm. The NORM task is opaque, so the
    fusible prefix is the first three tasks.
    """
    stores = store_table((8,), (8,), (8,), (8,), (8,), ())
    p = tiling((2,))
    n = NonePart()
    tasks = [
        task("MULT", (4,), [(0, p, R), (1, p, R), (2, p, W)]),
        task("ADD", (4,), [(1, p, R), (2, p, R), (3, p, W)]),
        task("POW", (4,), [(3, p, R), (4, p, W)], [("s", 2.0)]),
        task("NORM", (4,), [(3, n, R), (5, n, RD)]),
    ]
    refs = RefState()
    for s in stores:
        refs.create(s)
    for s in (0, 1, 2, 3):
        refs.drop_app_ref(s)
    return tasks, stores, refs


class TestFindTemporaries:
    def test_chain_with_later_reader_and_live_output(self):
        tasks, stores, refs = _chain_scenario()
        temps = find_temporaries(tasks, 3, refs, stores)
        # Only z: w is read by the trailing reduction, v is still referenced,
        # and x, y are read without ever being written in the prefix.
        assert temps == {2}

    def test_later_reader_inside_window_disqualifies(self):
        tasks, stores, refs = _chain_scenario()
        # w (3) is demotable in the three-task prefix on its own; the NORM
        # task after the prefix, inside the window, reads it and keeps it.
        assert 3 in find_temporaries(tasks[:3], 3, refs, stores)
        assert 3 not in find_temporaries(tasks, 3, refs, stores)

    def test_stencil_prefix_drops_chain_temporaries(self):
        tasks, stores, _ = stencil_window()
        refs = RefState()
        for s in stores:
            refs.create(s)
        for s in (2, 3, 4, 5):
            refs.drop_app_ref(s)
        temps = find_temporaries(tasks, 5, refs, stores)
        # work (1) is excluded: the unfused COPY still reads it.
        assert temps == {2, 3, 4, 5}

    def test_live_app_reference_disqualifies(self):
        tasks, stores, refs = _chain_scenario()
        refs.add_app_ref(2)
        # Without the trailing reduction, w (3) is demotable; z (2) is not,
        # because the application re-acquired a handle to it.
        assert find_temporaries(tasks[:3], 3, refs, stores) == {3}

    def test_write_only_after_prefix_is_still_demotable(self):
        stores = store_table((8,), (8,))
        p = tiling((2,))
        refs = RefState()
        refs.create(0)
        refs.create(1)
        refs.drop_app_ref(1)
        prefix = [
            task("FILL", (4,), [(1, p, W)], [("s", 3.0)]),
            task("COPY", (4,), [(1, p, R), (0, p, W)]),
        ]
        later_writer = task("FILL", (4,), [(1, p, W)], [("s", 4.0)])
        assert find_temporaries([*prefix, later_writer], 2, refs, stores) == {1}

    def test_non_covering_write_disqualifies(self):
        # The write reaches only a shifted, clamped portion of the store, so
        # reads are not fully produced inside the prefix.
        stores = store_table((8,), (8,))
        part = tiling((2,), (1,))
        refs = RefState()
        refs.create(0)
        refs.create(1)
        refs.drop_app_ref(1)
        prefix = [
            task("FILL", (4,), [(1, part, W)], [("s", 3.0)]),
            task("COPY", (4,), [(1, part, R), (0, tiling((2,)), W)]),
        ]
        assert find_temporaries(prefix, 2, refs, stores) == set()

    def test_read_before_write_disqualifies(self):
        stores = store_table((8,), (8,))
        p = tiling((2,))
        refs = RefState()
        refs.create(0)
        refs.create(1)
        refs.drop_app_ref(0)
        prefix = [
            task("COPY", (4,), [(0, p, R), (1, p, W)]),
            task("FILL", (4,), [(0, p, W)], [("s", 0.0)]),
        ]
        assert find_temporaries(prefix, 2, refs, stores) == set()


def _reference_temporaries(tasks, f, refs, stores):
    """The definition, checked store by store: a store of tasks[:f] that the
    application does not hold, that no task after the prefix reads or
    reduces, and whose every read in the prefix is covering and preceded by
    a write of an earlier task through an equal partition."""
    prefix = tasks[:f]
    launch = prefix[0].domain
    result = set()
    for s in {a.store for t in prefix for a in t.args}:
        if s in refs.app_live:
            continue
        if any(
            a.store == s and (a.privilege.is_read or a.privilege.is_reduce)
            for t in tasks[f:]
            for a in t.args
        ):
            continue
        if all(
            covers(stores[s], a.partition, launch)
            and any(
                b.store == s and b.privilege.is_write and b.partition == a.partition
                for earlier in prefix[:j]
                for b in earlier.args
            )
            for j, t in enumerate(prefix)
            for a in t.args
            if a.store == s and a.privilege.is_read
        ):
            result.add(s)
    return result


def _analysed_remainders(monkeypatch, run):
    """(remainder, application-held stores, store table) for every remainder
    a session analyses while ``run`` drives it."""
    seen = []
    analyze = Session._analyze

    def recording(session, rem):
        seen.append((list(rem), RefState(app_live=set(session.refs.app_live)), session.stores))
        return analyze(session, rem)

    monkeypatch.setattr(Session, "_analyze", recording)
    run()
    return seen


def _assert_agrees_with_reference(remainders):
    demoted = 0
    for rem, refs, stores in remainders:
        for f in range(1, len(rem) + 1):
            got = find_temporaries(rem, f, refs, stores)
            assert got == _reference_temporaries(rem, f, refs, stores)
            demoted += len(got)
    assert demoted > 0


class TestFindTemporariesAgainstReference:
    """Every remainder a session analyses, at every prefix length."""

    def test_fuzz_windows(self, monkeypatch):
        config = SessionConfig(window=12, memoize=False, execute=False)
        remainders = _analysed_remainders(
            monkeypatch,
            lambda: [stream_fuzz.run_stream(s, config) for s in stream_fuzz.corpus(1000)],
        )
        assert len(remainders) > 4000
        _assert_agrees_with_reference(remainders)

    @pytest.mark.parametrize("window", [10, 67])
    @pytest.mark.parametrize("name", BENCHMARKS)
    def test_benchmark_windows(self, name, window, monkeypatch):
        config = SessionConfig(window=window, memoize=False, execute=False)
        remainders = _analysed_remainders(
            monkeypatch, lambda: run_events(Session(config), gen_benchmark(name, iters=2))
        )
        _assert_agrees_with_reference(remainders)
