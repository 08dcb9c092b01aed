"""Canonicalization of task windows and memoization of analysis results.

Two windows that differ only by a renaming of store and partition ids get the
same canonical form, so the fusion analysis and the compiled kernel of the
first can be replayed on the second. Store ids are replaced by first-occurrence
indices, in the spirit of De Bruijn numbering for bound variables. A carve
names stores and partitions by their positions in its window, which windows
of one form share, so the memo keeps carves as they were made and a hit
launches them as kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

from .fusion import ConstraintVerdict
from .ir import Domain, IndexTask, NonePart, Partition, Privilege, Store, StoreTable, covers
from .ir import tiling_span
from .kernels import Kernel

CanonTask = tuple[str, int, tuple[tuple[int, int, Privilege], ...], int]
MEMO_CAPACITY = 1024  # entries a MemoCache keeps; steady-state cg_like needs 3


class CanonicalStream(NamedTuple):
    """Alpha-equivalence class of a task window.

    ``tasks`` holds (kind, domain index, ((store idx, partition idx, priv), ...),
    scalar arity) per task. Domains are numbered by first occurrence and only
    their ranks are recorded; concrete extents enter only through the derived
    ``fingerprint``, which captures per-argument coverage and the grouping of
    iteration-extent classes. Two windows with equal canonical streams are
    guaranteed to admit the same prefix length, temporaries and kernel shape.
    A tuple, so the memo hashes and compares it without a Python-level call.
    """

    tasks: tuple[CanonTask, ...]
    domain_ranks: tuple[int, ...]
    live: tuple[bool, ...]
    fingerprint: tuple[tuple[bool, int], ...]


def extent_class(store: Store, part: Partition, launch: Domain) -> object:
    """Hashable description of the per-point sub-store extents.

    Replication yields the full store extents; a tiling whose ``tiling_span``
    is the store yields constant tile extents; anything else is classed by its
    full structural form since edge clamping can make extents point-dependent.
    """
    if isinstance(part, NonePart):
        return ("full", store.shape.extents)
    span = tiling_span(store, part, launch)
    if span is not None and not any(span.lo) and span.hi == store.shape.extents:
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
) -> tuple[CanonicalStream, tuple[tuple[tuple, ...], ...]]:
    """Canonical form and the facts of every argument.

    The liveness flags and the coverage/extent fingerprint are part of the
    form because both temporariness and the compiled kernel depend on them.
    The form of any suffix of ``tasks`` follows from this one, so a key fixes
    every carve of the window and one entry holds a whole flush.
    ``facts`` gives an argument's coverage and extent class; a session
    passes its cache of them. It is called once per distinct (store index,
    partition index, domain index) of the window. The second value holds
    what it gave by window position: a tuple per task, one entry per argument.
    """
    store_idx: dict[int, int] = {}  # in first-occurrence order
    part_idx: dict[Partition, int] = {}
    domain_idx: dict[tuple[int, ...], int] = {}
    domain_ranks: list[int] = []
    class_idx: dict[object, int] = {}
    seen: dict[tuple[int, int, int], tuple[tuple, tuple[bool, int]]] = {}  # -> (facts, mark)
    fingerprint: list[tuple[bool, int]] = []
    canon_tasks: list[CanonTask] = []
    found: list[tuple[tuple, ...]] = []

    for t in tasks:
        domain = t.domain
        d = domain_idx.get(domain.extents)
        if d is None:
            d = domain_idx[domain.extents] = len(domain_ranks)
            domain_ranks.append(len(domain.extents))
        args = []
        row = []
        for store, part, priv in t.args:
            s = store_idx.get(store)
            if s is None:
                s = store_idx[store] = len(store_idx)
            p = part_idx.get(part)
            if p is None:
                p = part_idx[part] = len(part_idx)
            args.append((s, p, priv))
            entry = seen.get((s, p, d))
            if entry is None:
                fact = facts(stores[store], part, domain)
                mark = (fact[0], class_idx.setdefault(fact[1], len(class_idx)))
                entry = seen[s, p, d] = (fact, mark)
            row.append(entry[0])
            fingerprint.append(entry[1])
        canon_tasks.append((t.kind, d, tuple(args), len(t.scalars)))
        found.append(tuple(row))

    stream = CanonicalStream(
        tuple(canon_tasks),
        tuple(domain_ranks),
        tuple([s in live_stores for s in store_idx]),
        tuple(fingerprint),
    )
    return stream, tuple(found)


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
            f"({s},{p},{pr.value}) {'covers' if cov else 'part'} k{cls}"
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

    A carve names every store and partition by its position in the window it
    was carved from: (task, argument), counted from the carve's first task.
    Windows with one canonical key have the same (store index, partition
    index) at every position, so a carve is that of every window sharing its
    key. ``kind`` and ``args`` are the launched task's, a single task's too:
    per argument the position of the first argument of the prefix that names
    its (store, partition) pair, and their joined privilege, as
    ``build_fused_task`` gives them for a fused prefix.
    ``temp_arg_positions`` index ``args``; the demoted stores are those
    arguments' stores. ``kernel`` is the shape-symbolic kernel the launch
    runs, None for a builtin. ``verdicts`` say why the prefix stopped, by
    position.
    """

    prefix_len: int
    temp_arg_positions: frozenset[int] = frozenset()
    kernel: Kernel | None = None
    verdicts: tuple[ConstraintVerdict, ...] = ()
    kind: str = ""
    args: tuple[tuple[int, int, Privilege], ...] = ()


class MemoCache:
    """Map from a window's canonical stream to the carves of its flush, as
    they were made.

    A window's key fixes every carve made from it, so one entry holds the
    carves of its whole flush, and a hit replays them all from one lookup.
    Past ``MEMO_CAPACITY`` entries, the least recently inserted or hit goes.
    Each entry keeps the tick of its last insert or hit, so a hit hashes its
    key once; only an insert past capacity scans for the oldest tick.
    """

    def __init__(self) -> None:
        self._entries: dict[CanonicalStream, list] = {}  # key -> [carves, tick]
        self._tick = 0

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: CanonicalStream) -> tuple[Carve, ...] | None:
        entry = self._entries.get(key)
        if entry is None:
            return None
        self._tick = entry[1] = self._tick + 1
        return entry[0]

    def insert(self, key: CanonicalStream, carves: tuple[Carve, ...]) -> None:
        entries = self._entries
        self._tick += 1
        entries.setdefault(key, [carves, self._tick])
        if len(entries) > MEMO_CAPACITY:
            del entries[min(entries.items(), key=lambda item: item[1][1])[0]]
