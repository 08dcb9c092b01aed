"""Windowed task-stream pipeline: buffer, fuse, demote temporaries, execute.

A Session ingests stream events, buffers index tasks into a window, and on
flush repeatedly carves the longest fusible prefix off the buffer, compiles a
fused kernel for it, demotes temporaries to task-local buffers, and executes.
An isomorphic window replays the memoized analysis of its whole flush from
one lookup. The window grows adaptively: whenever an entire flushed buffer
fuses into one task, the window doubles up to MAX_WINDOW, so long chains
reach steady state after a few rounds.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass, field, fields
from itertools import chain
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
from .fusion import (
    AnalysisStats,
    ConstraintVerdict,
    build_fused_task,
    fused_scalars,
    longest_fusible_prefix,
)
from .ir import (
    Domain,
    IndexTask,
    Partition,
    Privilege,
    Store,
    StoreArg,
    covers,
    sub_store_bounds,
)
from .kernels import KernelRegistry, arg_name, compose, count_memory_traffic
from .kernels import default_registry, optimize
from .memo import Carve, CanonicalStream, MemoCache, canonicalize, extent_class
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
    tasks_in: int = 0
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
        registry: KernelRegistry | None = None,
        builtins: Mapping[str, Builtin] | None = None,
    ) -> None:
        self.config = config or SessionConfig()
        if not 1 <= self.config.window <= MAX_WINDOW:
            raise ValueError(f"window must be in 1..{MAX_WINDOW}, got {self.config.window}")
        if self.config.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.config.seed}")
        self.registry = registry or default_registry()
        self.builtins = dict(builtins) if builtins is not None else default_builtins()
        self.stores: dict[int, Store] = {}
        self.partitions: dict[int, Partition] = {}
        # one object per distinct partition value, per distinct partition
        # event (kind, tile, offset, proj), and per distinct extents
        self._interned: dict[Partition, Partition] = {}
        self._event_parts: dict[tuple, Partition] = {}
        self._domains: dict[tuple[int, ...], Domain] = {}
        self.refs = RefState()
        self.heap = Heap(self.stores, self.config.seed)
        self.memo = MemoCache()
        self.stats = AnalysisStats()
        self.window = self.config.window
        self.report = Report()
        self._arg_facts: dict[tuple[tuple, Partition, tuple], ArgFacts] = {}
        self._launch_plans: dict[tuple, LaunchPlan] = {}
        self._buffer: list[IndexTask] = []
        self._held: list[set[int]] = []  # per buffered task, the stores it names

    # --- stream-facing API ---------------------------------------------------

    def create_store(self, store_id: int, extents: Sequence[int]) -> Store:
        if store_id in self.stores:
            raise ValueError(f"store id {store_id} already exists")
        store = Store(store_id, self._domain(tuple(extents)))
        self.stores[store_id] = store
        self.refs.create(store_id)
        return store

    def create_partition(self, part_id: int, part: Partition) -> None:
        if part_id in self.partitions:
            raise ValueError(f"partition id {part_id} already exists")
        self.partitions[part_id] = self._interned.setdefault(part, part)

    def submit(self, task: IndexTask) -> None:
        """Buffer ``task``, which holds one runtime reference to each store
        it names. A full buffer is flushed first, so the capacity flush of a
        window fires at the next task, after the ``drop_ref``s that follow
        the window's last task. The task is buffered even if that flush
        raises."""
        held = {a.store for a in task.args}
        if not self.stores.keys() >= held:
            unknown = next(a.store for a in task.args if a.store not in self.stores)
            raise ValueError(f"task {task.kind} names unknown store {unknown}")
        try:
            if len(self._buffer) >= self.window:
                self._flush(explicit=False)
        finally:
            self._buffer.append(task)
            self._held.append(held)
            self.refs.acquire_runtime(*held)

    def drop_ref(self, store_id: int) -> None:
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
        """Carve the buffer into launches and run them.

        Every launch is a ``Carve`` in this window's store ids and
        partitions. With the memo on, each remainder is looked up until one
        hits. A key fixes every later carve of its window, so the hit's
        carves, rebound to this window, run from there to the end of the
        flush with no further lookup, and count one memo hit each. Their
        argument shapes are the facts ``canonicalize`` found, at the carve's
        canonical indices and its first task's domain, so a hit looks up
        each distinct argument once. At the end, every key that missed gets
        the carves from its position on, rebound to its canonical indices;
        no ``drop_ref`` can happen in between, so liveness stays as keyed.
        An analysis-only hit with no such key runs its carves as the memo
        holds them, and maps only what the report names: verdicts and
        demoted stores.
        The buffer keeps every task not yet launched, so after a launch
        raises, the next flush resumes with it; nothing is memoized then.
        """
        if not self._buffer:
            return
        fr = FlushReport(explicit=explicit)
        steps0 = self.stats.constraint_steps
        memoize = self.config.fusion and self.config.memoize
        carves: list[Carve] = []
        missed: list[tuple[int, CanonicalStream, list[int], list[Partition]]] = []
        try:
            while rem := self._buffer:
                if memoize:
                    key, sbind, pbind, facts = canonicalize(
                        rem, self.stores, self.refs.app_live, self._facts
                    )
                    hit = self.memo.lookup(key)
                    if hit is not None:
                        # only an executed launch, or a key that missed
                        # before, needs the carve in this window's ids
                        bind = None if self.config.execute or missed else (sbind, pbind)
                        at = 0
                        for carve in hit:
                            shapes = None
                            if carve.kernel is not None:  # a builtin counts no traffic
                                d = key.tasks[at][1]
                                shapes = [facts[s, p, d].extents for s, p, _ in carve.args]
                            if bind is None:
                                carve = carve.rebind(sbind.__getitem__, pbind.__getitem__)
                                carves.append(carve)
                            self._launch(carve, fr, shapes, bind)
                            fr.memo_hits += 1
                            at += carve.prefix_len
                        break
                    missed.append((len(carves), key, sbind, pbind))
                carves.append(self._analyze(rem))
                self._launch(carves[-1], fr)
        finally:
            fr.tasks_in = sum(fr.fused_prefixes)
            fr.memo_misses = len(missed)
            fr.constraint_steps = self.stats.constraint_steps - steps0
            self.report.add(fr)
        for at, key, sbind, pbind in missed:
            sidx = {s: i for i, s in enumerate(sbind)}
            pidx = {p: i for i, p in enumerate(pbind)}
            self.memo.insert(
                key, tuple(c.rebind(sidx.__getitem__, pidx.__getitem__) for c in carves[at:])
            )
        if fr.tasks_in > 1 and fr.tasks_out == 1:
            self.window = min(self.window * 2, MAX_WINDOW)
        log.debug(
            "flush(%s): %d -> %d tasks, prefixes %s, window now %d",
            "explicit" if explicit else "full",
            fr.tasks_in,
            fr.tasks_out,
            fr.fused_prefixes,
            self.window,
        )

    def _analyze(self, rem: list[IndexTask]) -> Carve:
        """Analyse and compile the longest fusible prefix of ``rem``, as a
        carve in concrete ids. A task launched alone runs its generated
        kernel, or a builtin when its kind has no generator. A fused kernel's
        buffers are in the extent classes of their arguments' facts."""
        f, verdicts = 1, ()
        if self.config.fusion:
            f, verdicts = longest_fusible_prefix(rem, self.registry, self.stats)
        if f == 1:
            task = rem[0]
            kernel = self.registry.generate(task) if self.registry.has(task.kind) else None
            return Carve(1, frozenset(), kernel, tuple(verdicts), task.kind, task.args)
        temps = find_temporaries(rem, f, self.refs, self.stores) if self.config.temp_elim else ()
        kind, args, arg_map = build_fused_task(rem, f, self.registry)
        positions = frozenset(j for j, a in enumerate(args) if a.store in temps)
        kernels = [self.registry.generate(t) for t in rem[:f]]
        domain = rem[0].domain
        classes = {
            j: self._facts(self.stores[s], p, domain).extent_class
            for j, (s, p, _) in enumerate(args)
        }
        kernel = optimize(compose(kernels, arg_map, args, positions, classes))
        if self.config.oracle_check:
            self._cross_check(rem[:f])
        return Carve(f, positions, kernel, tuple(verdicts), kind, args)

    def _launch(
        self,
        carve: Carve,
        fr: FlushReport,
        shapes: list[tuple[int, ...]] | None = None,
        bind: tuple[list[int], list[Partition]] | None = None,
    ) -> None:
        """Run and record ``carve``, then drop its tasks from the buffer's head.

        The launch domain is that of the prefix's first task. Only an
        executing session builds a task: a single task runs as buffered, a
        fused one is built from the carve's kind and arguments with the
        scalars of the whole prefix, and runs with its cached launch plan
        unless isolated. ``shapes`` go to ``_traffic``. ``bind``, given only
        when nothing executes, holds a window's store ids and partitions by
        canonical index: ``carve`` is then in canonical indices, and only its
        verdicts and demoted stores are mapped. A store is freed when the
        last runtime reference goes and the application holds none.
        """
        f, kernel, positions = carve.prefix_len, carve.kernel, carve.temp_arg_positions
        buffer = self._buffer
        domain = buffer[0].domain
        if self.config.execute:
            task = buffer[0]
            if f > 1:
                task = IndexTask(carve.kind, domain, carve.args, fused_scalars(buffer[:f]))
            call = (task, self.heap, self.stores, self.registry, self.builtins, kernel, positions)
            if f > 1 and self.config.isolated:
                execute_isolated(*call)
            else:
                execute_task(*call, self._plan(task))
        verdicts = carve.verdicts
        temps = {carve.args[j].store for j in positions} if positions else ()
        if bind is not None and (verdicts or temps):
            store, partition = bind[0].__getitem__, bind[1].__getitem__
            verdicts = [v.rebind(store, partition) for v in verdicts]
            temps = set(map(store, temps))
        fr.verdicts.extend(verdicts)
        fr.fused_prefixes.append(f)
        if temps:
            fr.temporaries.extend(sorted(temps))
        if kernel is not None:
            loads, stores = self._traffic(carve, domain, shapes)
            fr.loads += loads
            fr.stores += stores
            fr.kernel_stats.append((f, len(kernel.nests), len(kernel.locals)))
        held = self._held[:f]
        self._buffer, self._held = buffer[f:], self._held[f:]
        for s in self.refs.release_runtime(*chain.from_iterable(held)):
            self.heap.free(s)

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
                sub_store_bounds(store, part, p0).bounds.extents,
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
        self, carve: Carve, domain: Domain, shapes: list[tuple[int, ...]] | None
    ) -> tuple[int, int]:
        """Static whole-launch element traffic of ``carve`` over ``domain``,
        using the first point's extents.

        ``shapes`` holds those extents per argument, or None to look them
        up. Edge tiles of clamped partitions may differ; the count is exact
        for uniform tilings and an approximation otherwise. The per-point
        count is worked out once per kernel and tuple of argument shapes, and
        kept in ``Kernel.traffic``.
        """
        if shapes is None:
            shapes = [self._facts(self.stores[s], p, domain).extents for s, p, _ in carve.args]
        key = tuple(shapes)
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


_PRIVILEGES = {p.value: p for p in Privilege}
_new = tuple.__new__  # builds a StoreArg without its Python-level __new__


def task_from_event(session: Session, ev: tracefmt.TaskEvent) -> IndexTask:
    parts = session.partitions
    args = tuple([_new(StoreArg, (s, parts[p], _PRIVILEGES[pr])) for s, p, pr in ev.args])
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
