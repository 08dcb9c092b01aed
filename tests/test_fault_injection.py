"""An exception at any stage of a flush loses no task, leaks no reference and
runs no kernel twice.

Each name the benchmark's tracer wraps that runs inside a flush is made to
raise at its k-th call, k = 1..3, over small streams at windows 2 and 10,
analysis-only and executed, with the memo on and off, and isolated for
executed runs with the memo on. The executor's ``interpret`` and
``sub_store_bounds`` count only the first call of each launch: a kernel that
raises after writing part of its outputs is run again by the next flush, as
the README says, and is not covered here. Each error is caught where it
surfaces and the stream goes on. Then every submitted task is reported once,
executed heaps equal a clean run's, and a fresh session started from the
faulted session's memo decides and computes what a memo-off session does.
"""

from __future__ import annotations

import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from diffusekit import executor, pipeline, trace as tracefmt
from diffusekit.pipeline import Session, SessionConfig
from diffusekit.trace import BENCHMARKS, gen_benchmark
import stream_fuzz

_TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _flush_targets():
    """(owner, attribute) of every traced name that runs inside a flush."""
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(owner, attr) for owner, attr, _ in module.TARGETS if owner is not Session]


TARGETS = _flush_targets()
MODES = [  # (execute, memoize, isolated); each memo-off run before its memo-on ones
    (False, False, False),
    (False, True, False),
    (True, False, False),
    (True, True, False),
    (True, True, True),
]
FUZZ_SEEDS = (3, 7, 11)


class Injected(Exception):
    pass


class _Injector:
    """Wraps every target; the one named ``target`` raises at its k-th
    counted call. Each wrapper counts its calls, the executor's per launch."""

    def __init__(self, target=None, k=0):
        self.target, self.k = target, k
        self.fired = False
        self.calls: Counter = Counter()
        self.fresh: set = set()  # executor targets not yet called in this launch

    def install(self, mp):
        for owner, attr in TARGETS:
            mp.setattr(owner, attr, self._wrap((owner, attr), vars(owner)[attr]))
        for attr in ("execute_task", "execute_isolated"):
            fn = getattr(pipeline, attr)
            mp.setattr(pipeline, attr, self._launch(fn))

    def _wrap(self, name, fn):
        first_only = name[0] is executor

        def call(*args, **kwargs):
            if not first_only or name in self.fresh:
                self.fresh.discard(name)
                self.calls[name] += 1
                if name == self.target and self.calls[name] == self.k:
                    self.fired = True
                    raise Injected(f"{name[1]} call {self.k}")
            return fn(*args, **kwargs)

        return call

    def _launch(self, fn):
        def call(*args, **kwargs):
            self.fresh = {t for t in TARGETS if t[0] is executor}
            return fn(*args, **kwargs)

        return call


def _guard(session, fn, *args):
    """Call ``fn``; an injected error leaves every buffered argument holding
    one runtime reference, and the stream goes on. Whether it raised."""
    try:
        fn(*args)
    except Injected:
        held = Counter(a.store for t in session._buffer for a in t.args)
        assert session.refs.runtime_refs == held
        return True
    return False


def _drive(case, config, memo=None):
    """Run ``case`` in a new session, catching each injected error; returns
    the session, its report, the live heaps and the tasks submitted."""
    kind, value = case
    session = Session(config)
    if memo is not None:
        session.memo = memo
    if kind == "gen":
        events = gen_benchmark(value, iters=2)
        for ev in events:
            _guard(session, pipeline.apply_event, session, ev)
        submitted = sum(type(ev) is tracefmt.TaskEvent for ev in events)
        live = session.live_store_ids()
    else:
        stream = stream_fuzz.corpus(max(FUZZ_SEEDS) + 1)[value]
        for sid in sorted(stream.stores):
            session.create_store(sid, stream.stores[sid])
        for i, t in enumerate(stream.tasks):
            _guard(session, session.submit, t)
            for sid in stream.drops.get(i, ()):
                _guard(session, session.drop_ref, sid)
        submitted, live = len(stream.tasks), stream.live_ids
    if _guard(session, session.finish):
        session.finish()
    heaps = session.heap.digest(live) if config.execute else None
    return session, session.report, heaps, submitted


def _decisions(report):
    return report.fused_prefixes, report.temporaries_eliminated


CASES = [("gen", name) for name in sorted(BENCHMARKS)]
CASES += [("fuzz", seed) for seed in FUZZ_SEEDS]


@pytest.mark.parametrize("window", [2, 10])
@pytest.mark.parametrize("case", CASES, ids=[f"{k}-{v}" for k, v in CASES])
def test_a_raise_at_any_stage_loses_and_repeats_nothing(case, window):
    raised = 0
    plain = {}  # execute -> the memo-off clean run's decisions and heaps
    for execute, memoize, isolated in MODES:
        config = SessionConfig(window=window, execute=execute, memoize=memoize, isolated=isolated)
        counter = _Injector()
        with pytest.MonkeyPatch.context() as mp:
            counter.install(mp)
            _, clean, clean_heaps, submitted = _drive(case, config)
        assert clean.tasks_in == submitted
        if not memoize:
            plain[execute] = _decisions(clean), clean_heaps
        for target, calls in sorted(counter.calls.items(), key=lambda item: item[0][1]):
            for k in range(1, min(calls, 3) + 1):
                injector = _Injector(target, k)
                with pytest.MonkeyPatch.context() as mp:
                    injector.install(mp)
                    session, report, heaps, _ = _drive(case, config)
                assert injector.fired
                raised += 1
                where = f"{target[1]} call {k}, {config}"
                assert report.tasks_in == submitted, where
                assert heaps == clean_heaps, where
                if memoize:
                    fresh_config = SessionConfig(window=window, execute=execute, isolated=isolated)
                    _, fresh, fresh_heaps, _ = _drive(case, fresh_config, session.memo)
                    assert (_decisions(fresh), fresh_heaps) == plain[execute], where
    assert raised >= 80  # each case injects dozens; a wrapper that stops counting shows here
