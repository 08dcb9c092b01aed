"""Reference counting and detection of fusion-created temporaries."""

from __future__ import annotations

import pytest

from diffusekit.ir import NonePart, covers
from diffusekit.pipeline import Session, SessionConfig, run_events
from diffusekit.temporaries import RefState, RefUnderflowError, find_temporaries
from diffusekit.trace import BENCHMARKS, gen_benchmark
import stream_fuzz
from helpers import R, RD, RW, W, stencil_window, store_table, task, tiling


class TestRefState:
    def test_drop_underflow_rejected(self):
        refs = RefState(app_live={0})
        assert refs.drop_app_ref(0)  # no reference holds it any more
        with pytest.raises(RefUnderflowError, match=r"^application reference underflow on store 0$"):
            refs.drop_app_ref(0)

    def test_runtime_refs_keep_store_live(self):
        refs = RefState(app_live={0})
        refs.drop_app_ref(0)
        assert 0 not in refs.app_live and 0 not in refs.runtime_refs
        refs.acquire_runtime([0])
        assert 0 not in refs.app_live and refs.runtime_refs[0] == 1
        assert refs.release_runtime([0]) == [0]  # no reference holds it any more
        assert 0 not in refs.app_live and 0 not in refs.runtime_refs
        with pytest.raises(RefUnderflowError):
            refs.release_runtime([0])

    def test_one_runtime_reference_per_argument(self):
        refs = RefState()
        refs.acquire_runtime([0, 0, 1])  # a task that reads store 0 twice
        assert refs.runtime_refs == {0: 2, 1: 1}
        assert refs.release_runtime([0, 1]) == [1]
        assert refs.runtime_refs == {0: 1}
        assert refs.release_runtime([0]) == [0]
        assert refs.runtime_refs == {}


def _chain_scenario(dropped=(0, 1, 2, 3)):
    """z = x * y; w = y + z; v = w ** 2; norm += w . w, with the ``dropped``
    stores, by default x, y, z and w, dereferenced by the application and
    the rest still held.

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
    return tasks, stores, set(stores) - set(dropped)


class TestFindTemporaries:
    def test_chain_with_later_reader_and_live_output(self):
        tasks, stores, live = _chain_scenario()
        temps = find_temporaries(tasks, 3, live, stores)
        # Only z: w is read by the trailing reduction, v is still referenced,
        # and x, y are read without ever being written in the prefix.
        assert temps == {2}

    def test_later_reader_inside_window_disqualifies(self):
        tasks, stores, live = _chain_scenario()
        # w (3) is demotable in the three-task prefix on its own; the NORM
        # task after the prefix, inside the window, reads it and keeps it.
        assert 3 in find_temporaries(tasks[:3], 3, live, stores)
        assert 3 not in find_temporaries(tasks, 3, live, stores)

    def test_stencil_prefix_drops_chain_temporaries(self):
        tasks, stores, _ = stencil_window()
        temps = find_temporaries(tasks, 5, set(stores) - {2, 3, 4, 5}, stores)
        # work (1) is excluded: the unfused COPY still reads it.
        assert temps == {2, 3, 4, 5}

    def test_live_app_reference_disqualifies(self):
        tasks, stores, live = _chain_scenario(dropped=(0, 1, 3))
        # Without the trailing reduction, w (3) is demotable; z (2) is not,
        # because the application still holds a handle to it.
        assert find_temporaries(tasks[:3], 3, live, stores) == {3}

    def test_write_only_after_prefix_is_still_demotable(self):
        stores = store_table((8,), (8,))
        p = tiling((2,))
        live = {0}
        prefix = [
            task("FILL", (4,), [(1, p, W)], [("s", 3.0)]),
            task("COPY", (4,), [(1, p, R), (0, p, W)]),
        ]
        later_writer = task("FILL", (4,), [(1, p, W)], [("s", 4.0)])
        assert find_temporaries([*prefix, later_writer], 2, live, stores) == {1}

    def test_non_covering_write_disqualifies(self):
        # The write reaches only a shifted, clamped portion of the store, so
        # reads are not fully produced inside the prefix.
        stores = store_table((8,), (8,))
        part = tiling((2,), (1,))
        live = {0}
        prefix = [
            task("FILL", (4,), [(1, part, W)], [("s", 3.0)]),
            task("COPY", (4,), [(1, part, R), (0, tiling((2,)), W)]),
        ]
        assert find_temporaries(prefix, 2, live, stores) == set()

    def test_read_before_write_disqualifies(self):
        stores = store_table((8,), (8,))
        p = tiling((2,))
        live = {1}
        prefix = [
            task("COPY", (4,), [(0, p, R), (1, p, W)]),
            task("FILL", (4,), [(0, p, W)], [("s", 0.0)]),
        ]
        assert find_temporaries(prefix, 2, live, stores) == set()


def _reference_temporaries(tasks, f, live, stores):
    """The definition, checked store by store: a store of tasks[:f] that the
    application does not hold, that no task after the prefix reads or
    reduces, and whose every read in the prefix is covering and preceded by
    a write of an earlier task through an equal partition."""
    prefix = tasks[:f]
    launch = prefix[0].domain
    result = set()
    for s in {a.store for t in prefix for a in t.args}:
        if s in live:
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

    def recording(session, rem, *rest):
        seen.append((list(rem), set(session.refs.app_live), session.stores))
        return analyze(session, rem, *rest)

    monkeypatch.setattr(Session, "_analyze", recording)
    run()
    return seen


def _assert_agrees_with_reference(remainders):
    demoted = 0
    for rem, live, stores in remainders:
        for f in range(1, len(rem) + 1):
            got = find_temporaries(rem, f, live, stores)
            assert got == _reference_temporaries(rem, f, live, stores)
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
