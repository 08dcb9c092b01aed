"""Windowed task-stream pipeline: buffer, fuse, demote temporaries, execute.

A Session ingests stream events, buffers index tasks into a window, and on
flush first plans: it repeatedly carves the longest fusible prefix off the
buffer, compiles a fused kernel for it and demotes temporaries to task-local
buffers. Then it executes the plan. An isomorphic window replays the
memoized plan of its whole flush from one lookup. The window grows
adaptively, up to MAX_WINDOW: a full buffer that fuses whole is not
launched, the window doubles and buffering goes on, so a long chain is not
cut while the window warms up. Any other launch of a buffer of two or more
tasks that fuses whole doubles the window too.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass, field, fields
from typing import Iterable, Mapping, NamedTuple, Sequence

import logging

from .executor import (
    Builtin,
    Heap,
    LaunchPlan,
    default_builtins,
    execute_isolated,
    execute_task,
    launch_plan,
    plan_key,
)
from .fusion import ConstraintVerdict, build_fused_task, longest_fusible_prefix
from .ir import (
    PRIVILEGES,
    Domain,
    IndexTask,
    Partition,
    Store,
    StoreArg,
    covers,
    sub_store_bounds,
)
from .kernels import arg_name, compose, count_memory_traffic
from .kernels import default_registry, optimize
from .memo import Carve, MemoCache, canonicalize, extent_class
from .oracle import DEFAULT_ORACLE_CAP, oracle_fusible
from .temporaries import RefState, find_temporaries
from . import trace as tracefmt

log = logging.getLogger("diffusekit.pipeline")


class SoundnessError(AssertionError):
    """The brute-force oracle rejected an engine-accepted prefix."""


MAX_WINDOW = 256  # the largest window adaptive growth reaches


@dataclass
class SessionConfig:
    window: int = 10
    fusion: bool = True
    memoize: bool = True
    temp_elim: bool = True
    oracle_check: bool = False
    isolated: bool = False
    execute: bool = True
    seed: int = 0


@dataclass(slots=True)
class FlushReport:
    explicit: bool
    fused_prefixes: list[int] = field(default_factory=list)
    temporaries: list[int] = field(default_factory=list)
    memo_hits: int = 0
    memo_misses: int = 0
    constraint_steps: int = 0
    loads: int = 0
    stores: int = 0
    verdicts: list[ConstraintVerdict] = field(default_factory=list)
    kernel_stats: list[tuple[int, int, int]] = field(default_factory=list)

    @property
    def tasks_in(self) -> int:
        return sum(self.fused_prefixes)

    @property
    def tasks_out(self) -> int:
        return len(self.fused_prefixes)


@dataclass
class Report:
    tasks_in: int = 0
    tasks_out: int = 0
    fused_prefixes: list[int] = field(default_factory=list)
    temporaries_eliminated: list[int] = field(default_factory=list)
    memo_hits: int = 0
    memo_misses: int = 0
    constraint_steps: int = 0
    loads: int = 0
    stores: int = 0
    final_window: int = 0
    per_flush: list[FlushReport] = field(default_factory=list)

    def add(self, fr: FlushReport) -> None:
        """Count one flush into the totals."""
        self.per_flush.append(fr)
        self.tasks_in += fr.tasks_in
        self.tasks_out += fr.tasks_out
        self.fused_prefixes.extend(fr.fused_prefixes)
        self.temporaries_eliminated.extend(fr.temporaries)
        self.memo_hits += fr.memo_hits
        self.memo_misses += fr.memo_misses
        self.constraint_steps += fr.constraint_steps
        self.loads += fr.loads
        self.stores += fr.stores

    def iterations(self) -> list[tuple[int, int]]:
        """(tasks in, tasks out) per explicit-flush-delimited iteration."""
        out: list[tuple[int, int]] = []
        tin = tout = 0
        for fr in self.per_flush:
            tin += fr.tasks_in
            tout += fr.tasks_out
            if fr.explicit:
                out.append((tin, tout))
                tin = tout = 0
        if tin or tout:
            out.append((tin, tout))
        return out

    def to_json(self) -> dict:
        """Every total, and per flush the verdicts that stopped its prefixes."""
        out = {f.name: copy(getattr(self, f.name)) for f in fields(self) if f.name != "per_flush"}
        out["verdicts"] = [
            [{"constraint": v.constraint.value, "task": v.blocking_task_index, "store": v.store}
             for v in fr.verdicts]
            for fr in self.per_flush
        ]
        return out

    def summary(self) -> str:
        lines = [
            f"tasks: {self.tasks_in} -> {self.tasks_out}",
            f"fused prefixes: {self.fused_prefixes}",
            f"temporaries eliminated: {sorted(set(self.temporaries_eliminated))}",
            f"memo: {self.memo_hits} hits, {self.memo_misses} misses",
            f"traffic: {self.loads} loads, {self.stores} stores",
            f"final window: {self.final_window}",
        ]
        for i, fr in enumerate(self.per_flush):
            for v in fr.verdicts:
                lines.append(f"flush {i}: stopped by {v.describe()}")
        return "\n".join(lines)


class ArgFacts(NamedTuple):
    """What the analysis needs of one argument's partition."""

    covers: bool
    extent_class: object
    extents: tuple[int, ...]  # of the sub-store at launch point 0


class Session:
    def __init__(
        self,
        config: SessionConfig | None = None,
        builtins: Mapping[str, Builtin] | None = None,
    ) -> None:
        self.config = config or SessionConfig()
        if not 1 <= self.config.window <= MAX_WINDOW:
            raise ValueError(f"window must be in 1..{MAX_WINDOW}, got {self.config.window}")
        if self.config.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.config.seed}")
        self.registry = default_registry()
        self.builtins = dict(builtins) if builtins is not None else default_builtins()
        self.stores: dict[int, Store] = {}
        self.partitions: dict[int, Partition] = {}
        # one object per distinct partition event (kind, tile, offset, proj) and per extents
        self._event_parts: dict[tuple, Partition] = {}
        self._domains: dict[tuple[int, ...], Domain] = {}
        self.refs = RefState()
        self.heap = Heap(self.stores, self.config.seed)
        self.memo = MemoCache()
        self._steps = 0  # constraint steps that no reported flush has counted
        self.window = self.config.window
        self.report = Report()
        self._arg_facts: dict[tuple[tuple, Partition, tuple], ArgFacts] = {}
        self._launch_plans: dict[tuple, LaunchPlan] = {}
        self._buffer: list[IndexTask] = []

    # --- stream-facing API ---------------------------------------------------

    def create_store(self, store_id: int, extents: Sequence[int]) -> Store:
        if store_id in self.stores:
            raise ValueError(f"store id {store_id} already exists")
        store = Store(store_id, self._domain(tuple(extents)))
        self.stores[store_id] = store
        self.refs.app_live.add(store_id)
        return store

    def create_partition(self, part_id: int, part: Partition) -> None:
        if part_id in self.partitions:
            raise ValueError(f"partition id {part_id} already exists")
        self.partitions[part_id] = part

    def submit(self, task: IndexTask) -> None:
        """Buffer ``task``, which holds one runtime reference per argument;
        each store it names must be held by the application. A full buffer is
        flushed first, so the capacity flush of a window fires at the next
        task, after the ``drop_ref``s that follow the window's last task;
        that flush may grow the window instead of launching. The task is
        buffered even if the flush raises."""
        live = self.refs.app_live
        for a in task.args:
            if a.store not in live:
                state = "released" if a.store in self.stores else "unknown"
                raise ValueError(f"task {task.kind} names {state} store {a.store}")
        try:
            if len(self._buffer) >= self.window:
                self._flush(explicit=False)
        finally:
            self._buffer.append(task)
            self.refs.acquire_runtime(a.store for a in task.args)

    def drop_ref(self, store_id: int) -> None:
        if store_id not in self.stores:
            raise ValueError(f"drop_ref names unknown store {store_id}")
        if self.refs.drop_app_ref(store_id):
            self.heap.free(store_id)

    def flush(self) -> None:
        self._flush(explicit=True)

    def finish(self) -> Report:
        """Flush what is buffered and return the report."""
        self._flush(explicit=True)
        self.report.final_window = self.window
        return self.report

    def live_store_ids(self) -> list[int]:
        return sorted(self.refs.app_live)

    # --- window processing ---------------------------------------------------

    def _flush(self, explicit: bool) -> None:
        """Plan the buffer's launches, then run them.

        Planning canonicalizes the buffer once, memo on or off; every carve
        reads its arguments' shapes and extent classes from the facts
        ``canonicalize`` gives by window position, where a ``Carve`` names
        its stores and partitions. With the memo on, the buffer's key is
        looked up once: a hit replays every carve of the flush, and a miss
        analyses every remainder.

        One test decides window growth: whether a buffer of two or more
        tasks fuses whole, read from the first carve of a hit or else from
        the one constraint pass a launch would use. Below ``MAX_WINDOW``, a
        capacity flush whose buffer fuses whole launches nothing: the window
        doubles, before anything compiles, and the buffer, its references
        and the memo stay as they are. Any other flush launches, and doubles
        the window after launching a buffer that fused whole.

        Launching runs the plan in order. ``memo_hits`` is 1 for a lookup
        that hit and ``memo_misses`` 1 for one that missed, so both count
        flushes. Each analysis adds its constraint steps to the session's
        unreported count, which the next reported flush takes. A deferral,
        or a flush whose planning raises, launches nothing, counts no memo
        miss and reports nothing. After a launch raises, the buffer keeps
        every task not yet launched, and the next flush resumes with it.
        Otherwise a key that missed gets the flush's carves; no ``drop_ref``
        can happen in between, so liveness stays as keyed.
        """
        buffer = self._buffer
        if not buffer:
            return
        memoize = self.config.fusion and self.config.memoize
        defer = not explicit and len(buffer) > 1 and self.window < MAX_WINDOW
        key, facts = canonicalize(buffer, self.stores, self.refs.app_live, self._facts)
        carves = self.memo.lookup(key) if memoize else None
        hit, missed = carves is not None, memoize and carves is None
        if not hit:
            carves, at = [], 0  # at: the buffer position of the next carve
            while at < len(buffer):
                carve = self._analyze(buffer[at:], facts[at:], defer and not at)
                if carve is None:
                    break
                carves.append(carve)
                at += carve.prefix_len
        whole = len(buffer) > 1 and (not carves or carves[0].prefix_len == len(buffer))
        if defer and whole:
            self.window = min(self.window * 2, MAX_WINDOW)
            log.debug("flush(full): %d tasks fuse whole, window now %d", len(buffer), self.window)
            return

        fr = FlushReport(explicit, memo_hits=int(hit), memo_misses=int(missed))
        at = 0
        try:
            for carve in carves:
                self._launch(carve, fr, facts[at:])
                at += carve.prefix_len
        finally:
            fr.constraint_steps, self._steps = self._steps, 0
            self.report.add(fr)
        if missed:
            self.memo.insert(key, tuple(carves))
        if whole:
            self.window = min(self.window * 2, MAX_WINDOW)
        log.debug(
            "flush(%s): %d -> %d tasks, prefixes %s, window now %d",
            "explicit" if explicit else "full",
            fr.tasks_in,
            fr.tasks_out,
            fr.fused_prefixes,
            self.window,
        )

    def _analyze(
        self, rem: list[IndexTask], facts: Sequence[tuple[ArgFacts, ...]], defer: bool = False
    ) -> Carve | None:
        """Analyse and compile the longest fusible prefix of ``rem``: the one
        place that decides what its launch runs. A task launched alone runs
        its generated kernel, or a builtin when its kind has no generator. A
        fused carve's arguments are ``build_fused_task``'s, and each of its
        kernel's buffers is in the extent class ``facts`` holds at the
        argument's position in ``rem``. With ``defer``, a ``rem`` that fuses
        whole gives None, before anything but the constraint pass is worked
        out."""
        f, verdicts = 1, ()
        if self.config.fusion:
            f, verdicts, steps = longest_fusible_prefix(rem, self.registry)
            self._steps += steps
            if defer and f == len(rem):
                return None
            verdicts = tuple(verdicts)
        if f == 1:
            task = rem[0]
            kernel = self.registry.generate(task) if self.registry.has(task.kind) else None
            args = tuple([(0, k, a.privilege) for k, a in enumerate(task.args)])
            return Carve(1, frozenset(), kernel, verdicts, task.kind, args)
        temps = ()
        if self.config.temp_elim:
            temps = find_temporaries(rem, f, self.refs.app_live, self.stores)
        kind, args, arg_map = build_fused_task(rem, f)
        positions = frozenset(j for j, (i, k, _) in enumerate(args) if rem[i].args[k].store in temps)
        kernels = [self.registry.generate(t) for t in rem[:f]]
        classes = {j: facts[i][k].extent_class for j, (i, k, _) in enumerate(args)}
        privileges = [priv for _, _, priv in args]
        kernel = optimize(compose(kernels, arg_map, privileges, positions, classes))
        if self.config.oracle_check:
            self._cross_check(rem[:f])
        return Carve(f, positions, kernel, verdicts, kind, args)

    def _launch(
        self, carve: Carve, fr: FlushReport, facts: Sequence[tuple[ArgFacts, ...]]
    ) -> None:
        """Run ``carve``, drop its tasks from the buffer's head, then record it.

        The launch domain is that of the prefix's first task. Every position
        the carve names is read from the buffer, and from ``facts``, by
        window position from the prefix's first task, and the verdicts,
        demoted stores and traffic it reports are worked out before the
        kernel runs, whose return commits the launch. The carve's tasks are
        then dropped and their references released before anything is
        recorded.
        Only an executing session builds a task: a single task runs as
        buffered, a fused one is built from the carve's kind and
        ``_store_args``, with the values of the whole prefix's scalars under
        the names the kernel gives them. It runs the carve's kernel, with its
        cached launch plan unless isolated. A store is freed when the last
        runtime reference goes and the application holds none.
        """
        f, kernel, positions = carve.prefix_len, carve.kernel, carve.temp_arg_positions
        buffer = self._buffer
        domain = buffer[0].domain
        verdicts = []
        for v in carve.verdicts:
            if v.argument is not None:  # names a store, and partitions if ``earlier``
                t = v.blocking_task_index
                arg, parts = buffer[t].args[v.argument], None
                if v.earlier is not None:
                    i, k = v.earlier
                    parts = (buffer[i].args[k].partition, arg.partition)
                v = ConstraintVerdict(v.constraint, t, arg.store, parts, v.argument, v.earlier)
            verdicts.append(v)
        where = map(carve.args.__getitem__, positions)
        temps = sorted({buffer[t].args[k].store for t, k, _ in where}) if positions else ()
        traffic = self._traffic(carve, domain, facts) if kernel is not None else None
        if self.config.execute:
            task = buffer[0]
            if f > 1:
                values = [v for t in buffer[:f] for _, v in t.scalars]
                scalars = tuple(zip(kernel.scalar_params, values))
                task = IndexTask(carve.kind, domain, self._store_args(carve), scalars)
            if f > 1 and self.config.isolated:
                execute_isolated(task, self.heap, self.stores, kernel, positions)
            else:
                plan = self._plan(task)
                execute_task(task, self.heap, self.stores, self.builtins, kernel, positions, plan)
        self._buffer = buffer[f:]
        for s in self.refs.release_runtime(a.store for t in buffer[:f] for a in t.args):
            self.heap.free(s)
        fr.verdicts.extend(verdicts)
        fr.fused_prefixes.append(f)
        fr.temporaries.extend(temps)
        if traffic is not None:
            fr.loads += traffic[0]
            fr.stores += traffic[1]
            fr.kernel_stats.append((f, len(kernel.nests), len(kernel.locals)))

    def _store_args(self, carve: Carve) -> tuple[StoreArg, ...]:
        """The arguments of ``carve``'s launched task, read from the buffer's
        head at the positions the carve names."""
        buffer = self._buffer
        return tuple([
            _new(StoreArg, (*buffer[t].args[k][:2], priv)) for t, k, priv in carve.args
        ])

    def _facts(self, store: Store, part: Partition, launch: Domain) -> ArgFacts:
        """One argument's coverage, extent class and point-0 sub-store extents,
        worked out once per distinct (store shape, partition, launch domain)."""
        key = (store.shape.extents, part, launch.extents)
        facts = self._arg_facts.get(key)
        if facts is None:
            p0 = (0,) * launch.rank
            facts = ArgFacts(
                covers(store, part, launch),
                extent_class(store, part, launch),
                sub_store_bounds(store, part, p0).extents,
            )
            self._arg_facts[key] = facts
        return facts

    def _plan(self, task: IndexTask) -> LaunchPlan:
        """The launch plan of ``task``, worked out once per distinct
        ``plan_key``: the heap and the kernel stay per-launch checks."""
        key = plan_key(task, self.stores)
        plan = self._launch_plans.get(key)
        if plan is None:
            plan = self._launch_plans[key] = launch_plan(task, self.stores)
        return plan

    def _cross_check(self, prefix: Sequence[IndexTask]) -> None:
        if prefix[0].domain.volume > DEFAULT_ORACLE_CAP:
            return
        if not oracle_fusible(list(prefix), self.stores):
            raise SoundnessError(
                f"oracle rejected engine-accepted prefix of {len(prefix)} tasks "
                f"starting with {prefix[0].kind}"
            )

    def _traffic(
        self, carve: Carve, domain: Domain, facts: Sequence[tuple[ArgFacts, ...]]
    ) -> tuple[int, int]:
        """Static whole-launch element traffic of ``carve`` over ``domain``,
        using the first point's extents, which ``facts`` holds by window
        position from the prefix's first task.

        Edge tiles of clamped partitions may differ; the count is exact for
        uniform tilings and an approximation otherwise. The per-point count
        is worked out once per kernel and tuple of argument shapes, and kept
        in ``Kernel.traffic``.
        """
        key = tuple([facts[t][k].extents for t, k, _ in carve.args])
        by_shapes = carve.kernel.traffic
        counts = by_shapes.get(key)
        if counts is None:
            positions = carve.temp_arg_positions
            named = {arg_name(j, j in positions): e for j, e in enumerate(key)}
            counts = by_shapes[key] = count_memory_traffic(carve.kernel, named)
        vol = domain.volume
        return counts[0] * vol, counts[1] * vol

    def _domain(self, extents: tuple[int, ...]) -> Domain:
        """The one ``Domain`` of ``extents``, stores' shapes and launch
        domains alike."""
        domain = self._domains.get(extents)
        if domain is None:
            domain = self._domains[extents] = Domain(extents)
        return domain


_new = tuple.__new__  # builds a StoreArg without its Python-level __new__


def task_from_event(session: Session, ev: tracefmt.TaskEvent) -> IndexTask:
    parts = session.partitions
    args = tuple([_new(StoreArg, (s, parts[p], PRIVILEGES[pr])) for s, p, pr in ev.args])
    domain = session._domains.get(ev.domain)
    if domain is None:
        domain = session._domain(ev.domain)
    return IndexTask(ev.kind, domain, args, ev.scalars)


def apply_event(session: Session, ev: tracefmt.Event) -> None:
    """Apply one parsed trace event to a session. Equal partition events
    share one partition, built from the first."""
    kind = type(ev)  # the event classes are final, so no isinstance chain
    if kind is tracefmt.TaskEvent:
        session.submit(task_from_event(session, ev))
    elif kind is tracefmt.CreateStore:
        session.create_store(ev.id, ev.shape)
    elif kind is tracefmt.CreatePartition:
        key = (ev.kind, ev.tile, ev.offset, ev.proj)
        part = session._event_parts.get(key)
        if part is None:
            part = session._event_parts[key] = tracefmt.partition_from_event(ev)
        session.create_partition(ev.id, part)
    elif kind is tracefmt.DropRef:
        session.drop_ref(ev.store)
    elif kind is tracefmt.Flush:
        session.flush()
    else:
        raise TypeError(f"unknown event {ev!r}")


def run_events(session: Session, events: Iterable[tracefmt.Event]) -> Report:
    """Drive a session from parsed trace events and return its final report."""
    for ev in events:
        apply_event(session, ev)
    return session.finish()
