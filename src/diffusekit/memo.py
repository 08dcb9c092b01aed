"""Canonicalization of task windows and memoization of analysis results.

Two windows that differ only by a renaming of store and partition ids get the
same canonical form, so the fusion analysis and the compiled kernel of the
first can be replayed on the second. Store ids are replaced by first-occurrence
indices, in the spirit of De Bruijn numbering for bound variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .fusion import ConstraintVerdict
from .ir import Domain, IndexTask, NonePart, Partition, Store, StoreTable, covers
from .kernels import Kernel

CanonTask = tuple[str, int, tuple[tuple[int, int, str], ...], int]


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


def canonicalize(
    tasks: Sequence[IndexTask], stores: StoreTable, live_stores: frozenset[int] | set[int]
) -> tuple[CanonicalStream, list[int], list[Partition]]:
    """Canonical form plus the bindings from canonical indices back to ids.

    The liveness flags and the coverage/extent fingerprint are part of the
    form because both temporariness and the compiled kernel depend on them.
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
        if t.domain not in domain_idx:
            domain_idx[t.domain] = len(domain_ranks)
            domain_ranks.append(t.domain.rank)
        args = []
        for a in t.args:
            if a.store not in store_idx:
                store_idx[a.store] = len(store_bind)
                store_bind.append(a.store)
            if a.partition not in part_idx:
                part_idx[a.partition] = len(part_bind)
                part_bind.append(a.partition)
            args.append((store_idx[a.store], part_idx[a.partition], a.privilege.value))
            cls = extent_class(stores[a.store], a.partition, t.domain)
            if cls not in class_idx:
                class_idx[cls] = len(class_idx)
            fingerprint.append((covers(stores[a.store], a.partition, t.domain), class_idx[cls]))
        canon_tasks.append((t.kind, domain_idx[t.domain], tuple(args), len(t.scalars)))

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


@dataclass(frozen=True)
class MemoEntry:
    """Replayable analysis result keyed by a CanonicalStream.

    ``temp_arg_positions`` index the fused task's arguments; the demoted
    stores are those arguments' stores. ``verdicts`` say why the prefix
    stopped, with stores and partitions as indices into the bindings that
    ``canonicalize`` returns, so replay rebinds them to the new window. The
    kernel is shape-symbolic and shared as-is.
    """

    prefix_len: int
    temp_arg_positions: frozenset[int] = frozenset()
    kernel: Kernel | None = None
    verdicts: tuple[ConstraintVerdict, ...] = ()


class MemoCache:
    """Map from canonical streams to entries, counting lookup hits and misses."""

    def __init__(self) -> None:
        self._entries: dict[CanonicalStream, MemoEntry] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: CanonicalStream) -> MemoEntry | None:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
        else:
            self.hits += 1
        return entry

    def insert(self, key: CanonicalStream, entry: MemoEntry) -> None:
        self._entries.setdefault(key, entry)
