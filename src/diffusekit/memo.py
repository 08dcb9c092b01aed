"""Canonicalization of task windows and memoization of analysis results.

Two windows that differ only by a renaming of store and partition ids get the
same canonical form, so the fusion analysis and the compiled kernel of the
first can be replayed on the second. Store ids are replaced by first-occurrence
indices, in the spirit of De Bruijn numbering for bound variables.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Sequence

from .fusion import ConstraintVerdict
from .ir import Domain, IndexTask, NonePart, Partition, Privilege, Store, StoreTable, covers
from .kernels import Kernel

CanonTask = tuple[str, int, tuple[tuple[int, int, str], ...], int]
MEMO_CAPACITY = 1024  # entries a MemoCache keeps; steady-state cg_like needs 9


@dataclass(frozen=True)
class CanonicalStream:
    """Alpha-equivalence class of a task window.

    ``tasks`` holds (kind, domain index, ((store idx, partition idx, priv), ...),
    scalar arity) per task. Domains are numbered by first occurrence and only
    their ranks are recorded; concrete extents enter only through the derived
    ``fingerprint``, which captures per-argument coverage and the grouping of
    iteration-extent classes. Two windows with equal canonical streams are
    guaranteed to admit the same prefix length, temporaries and kernel shape.
    """

    tasks: tuple[CanonTask, ...]
    domain_ranks: tuple[int, ...]
    live: tuple[bool, ...]
    fingerprint: tuple[tuple[bool, int], ...]


def extent_class(store: Store, part: Partition, launch: Domain) -> object:
    """Hashable description of the per-point sub-store extents.

    Replication yields the full store extents; an exact zero-offset identity
    tiling yields constant tile extents; anything else is classed by its full
    structural form since edge clamping can make extents point-dependent.
    """
    if isinstance(part, NonePart):
        return ("full", store.shape.extents)
    if (
        part.proj.is_identity
        and all(o == 0 for o in part.offset)
        and launch.rank == store.rank
        and tuple(t * n for t, n in zip(part.tile, launch.extents)) == store.shape.extents
    ):
        return ("tile", part.tile)
    return ("clamped", store.shape.extents, part)


# (store, partition, launch domain) -> a tuple starting (covers, extent class)
Facts = Callable[[Store, Partition, Domain], tuple]


def _key_facts(store: Store, part: Partition, launch: Domain) -> tuple[bool, object]:
    return covers(store, part, launch), extent_class(store, part, launch)


def canonicalize(
    tasks: Sequence[IndexTask],
    stores: StoreTable,
    live_stores: frozenset[int] | set[int],
    facts: Facts = _key_facts,
) -> tuple[CanonicalStream, list[int], list[Partition]]:
    """Canonical form plus the bindings from canonical indices back to ids.

    The liveness flags and the coverage/extent fingerprint are part of the
    form because both temporariness and the compiled kernel depend on them.
    The form of any suffix of ``tasks`` follows from this one, so a key fixes
    the remainders that carving leaves and one entry can hold a whole flush.
    ``facts`` gives an argument's coverage and extent class; a session
    passes its cache of them, so each distinct (store shape, partition,
    launch domain) is worked out once rather than once per window.
    """
    store_bind: list[int] = []
    store_idx: dict[int, int] = {}
    part_bind: list[Partition] = []
    part_idx: dict[Partition, int] = {}
    domain_idx: dict[Domain, int] = {}
    domain_ranks: list[int] = []
    class_idx: dict[object, int] = {}
    fingerprint: list[tuple[bool, int]] = []
    canon_tasks: list[CanonTask] = []

    for t in tasks:
        d = domain_idx.setdefault(t.domain, len(domain_ranks))
        if d == len(domain_ranks):
            domain_ranks.append(t.domain.rank)
        args = []
        for a in t.args:
            s = store_idx.setdefault(a.store, len(store_bind))
            if s == len(store_bind):
                store_bind.append(a.store)
            p = part_idx.setdefault(a.partition, len(part_bind))
            if p == len(part_bind):
                part_bind.append(a.partition)
            args.append((s, p, a.privilege.value))
            fact = facts(stores[a.store], a.partition, t.domain)
            cls = class_idx.setdefault(fact[1], len(class_idx))
            fingerprint.append((fact[0], cls))
        canon_tasks.append((t.kind, d, tuple(args), len(t.scalars)))

    stream = CanonicalStream(
        tuple(canon_tasks),
        tuple(domain_ranks),
        tuple(s in live_stores for s in store_bind),
        tuple(fingerprint),
    )
    return stream, store_bind, part_bind


def canon_text(stream: CanonicalStream) -> str:
    """Stable rendering of the whole key, used by the canon subcommand.

    One line per task: its domain index and rank, then per argument the
    (store, partition, privilege) indices, whether the partition covers the
    store, and the argument's extent class. A last line lists the canonical
    store indices the application still holds.
    """
    lines = []
    fingerprint = iter(stream.fingerprint)
    for i, (kind, dom, args, nscalars) in enumerate(stream.tasks):
        body = ", ".join(
            f"({s},{p},{pr}) {'covers' if cov else 'part'} k{cls}"
            for (s, p, pr), (cov, cls) in zip(args, fingerprint)
        )
        suffix = f" scalars={nscalars}" if nscalars else ""
        lines.append(f"T{i} {kind} d{dom}:r{stream.domain_ranks[dom]} [{body}]{suffix}")
    live = " ".join(str(i) for i, flag in enumerate(stream.live) if flag)
    lines.append(f"live: {live or '-'}")
    return "\n".join(lines)


@dataclass(frozen=True, slots=True)
class Carve:
    """One launch: a prefix of ``prefix_len`` buffered tasks and how it runs.

    A session makes carves in a window's store ids and partitions; the memo
    keeps them in the window's canonical indices, and ``rebind`` maps one to
    the other. ``kind`` and ``args`` are the launched task's, a single task's
    too: per argument, (store, partition, joined privilege).
    ``temp_arg_positions`` index ``args``; the demoted stores are those
    arguments' stores. ``kernel`` is the shape-symbolic kernel, None for a
    builtin. ``verdicts`` say why the prefix stopped, with their task index
    counted from the carve's first task.
    """

    prefix_len: int
    temp_arg_positions: frozenset[int] = frozenset()
    kernel: Kernel | None = None
    verdicts: tuple[ConstraintVerdict, ...] = ()
    kind: str = ""
    args: tuple[tuple[int, Partition | int, Privilege], ...] = ()

    def rebind(self, store: Callable[[int], int], partition: Callable) -> Carve:
        """This carve with every store and partition mapped, from ids to a
        window's canonical indices or back."""
        # tuple() of a list, not of a generator: a generator's tuple is
        # resized, and on every hit that parks one more tuple in CPython's
        # free lists, where tracemalloc still counts it as allocated.
        return Carve(
            self.prefix_len,
            self.temp_arg_positions,
            self.kernel,
            tuple([v.rebind(store, partition) for v in self.verdicts]),
            self.kind,
            tuple([(store(s), partition(p), pr) for s, p, pr in self.args]),
        )


class MemoCache:
    """Map from a window's canonical stream to the carves of its flush, in
    canonical indices.

    A window's key fixes the key of every remainder carved from it, so one
    entry holds every carve from the window's first task to the end of its
    flush, and a hit replays them all from one lookup. Past
    ``MEMO_CAPACITY`` entries, the least recently inserted or hit goes.
    """

    def __init__(self) -> None:
        self._entries: OrderedDict[CanonicalStream, tuple[Carve, ...]] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: CanonicalStream) -> tuple[Carve, ...] | None:
        carves = self._entries.get(key)
        if carves is not None:
            self._entries.move_to_end(key)
        return carves

    def insert(self, key: CanonicalStream, carves: tuple[Carve, ...]) -> None:
        self._entries.setdefault(key, carves)
        if len(self._entries) > MEMO_CAPACITY:
            self._entries.popitem(last=False)
