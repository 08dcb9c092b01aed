"""Scale-free IR for distributed index tasks.

Stores are distributed dense arrays described by metadata only; partitions map
launch-domain points to rectangular sub-stores without ever enumerating them,
so every query here runs in time independent of the launch-domain volume.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Mapping, NamedTuple

Point = tuple[int, ...]


class MalformedPartitionError(ValueError):
    """Partition rank/projection does not fit the store or launch point."""


@dataclass(frozen=True)
class Domain:
    """Rectangular index space with exclusive per-dimension upper bounds."""

    extents: tuple[int, ...]

    def __post_init__(self) -> None:
        if not all(isinstance(e, int) and e > 0 for e in self.extents):
            raise ValueError(f"domain extents must be positive ints: {self.extents}")

    @property
    def rank(self) -> int:
        return len(self.extents)

    @property
    def volume(self) -> int:
        v = 1
        for e in self.extents:
            v *= e
        return v

    def points(self) -> Iterator[Point]:
        """All points in lexicographic order."""
        return itertools.product(*(range(e) for e in self.extents))


@dataclass(frozen=True, slots=True)
class Store:
    """Distributed array descriptor: unique id plus a fixed rectangular shape."""

    id: int
    shape: Domain

    @property
    def rank(self) -> int:
        return self.shape.rank


StoreTable = Mapping[int, Store]


@dataclass(frozen=True)
class ProjectionFn:
    """Integer affine map ``p -> A @ p + b`` applied to launch points.

    Covers identity, dimension dropping, broadcast and permutation; equality is
    structural on (A, b), which keeps partition comparison constant-time. The
    hash, that of (A, b), and ``is_identity`` are worked out once, at
    construction.
    """

    matrix: tuple[tuple[int, ...], ...]
    offset: tuple[int, ...]
    _hash: int = field(init=False, repr=False, compare=False)
    is_identity: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.matrix) != len(self.offset):
            raise MalformedPartitionError("projection matrix rows must match offset length")
        widths = {len(row) for row in self.matrix}
        if len(widths) > 1:
            raise MalformedPartitionError("ragged projection matrix")
        object.__setattr__(self, "_hash", hash((self.matrix, self.offset)))
        identity = (
            self.in_rank == self.out_rank
            and not any(self.offset)
            and all(a == (i == j) for i, row in enumerate(self.matrix) for j, a in enumerate(row))
        )
        object.__setattr__(self, "is_identity", identity)

    def __hash__(self) -> int:
        return self._hash

    @property
    def out_rank(self) -> int:
        return len(self.matrix)

    @property
    def in_rank(self) -> int:
        return len(self.matrix[0]) if self.matrix else 0

    @classmethod
    def identity(cls, rank: int) -> "ProjectionFn":
        rows = tuple(tuple(1 if i == j else 0 for j in range(rank)) for i in range(rank))
        return cls(rows, (0,) * rank)

    def apply(self, p: Point) -> Point:
        if len(p) != self.in_rank:
            raise MalformedPartitionError(
                f"projection expects rank {self.in_rank}, got point of rank {len(p)}"
            )
        return tuple(sum(a * c for a, c in zip(row, p)) + b for row, b in zip(self.matrix, self.offset))


@dataclass(frozen=True)
class NonePart:
    """Replication: every launch point maps to the entire store."""


@dataclass(frozen=True)
class Tiling:
    """Affine tiling: point p covers ``[proj(p)*tile, proj(p+1)*tile) + offset``.

    Hashed once, at construction, as the tuple of its fields."""

    tile: tuple[int, ...]
    offset: tuple[int, ...]
    proj: ProjectionFn
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (len(self.tile) == len(self.offset) == self.proj.out_rank):
            raise MalformedPartitionError("tile, offset and projection output rank must agree")
        object.__setattr__(self, "_hash", hash((self.tile, self.offset, self.proj)))

    def __hash__(self) -> int:
        return self._hash


Partition = NonePart | Tiling


class Privilege(Enum):
    """An access mode; its value is its code in traces and ``canon`` text.

    Members hash by identity, which is C-level where ``Enum.__hash__`` is
    Python-level: every member is a singleton, so equality is identity."""

    READ = "R"
    WRITE = "W"
    REDUCE = "Rd"  # combine operator fixed to sum
    READ_WRITE = "RW"

    __hash__ = object.__hash__

    @property
    def is_read(self) -> bool:
        return self in (Privilege.READ, Privilege.READ_WRITE)

    @property
    def is_write(self) -> bool:
        return self in (Privilege.WRITE, Privilege.READ_WRITE)

    @property
    def is_reduce(self) -> bool:
        return self is Privilege.REDUCE


PRIVILEGES = {p.value: p for p in Privilege}  # by trace code


def join_privileges(a: Privilege, b: Privilege) -> Privilege:
    """Least upper bound of two access modes on the same (store, partition)."""
    if a == b:
        return a
    if Privilege.REDUCE in (a, b):
        raise ValueError("Reduce cannot be joined with other privileges")
    return Privilege.READ_WRITE


class StoreArg(NamedTuple):
    store: int
    partition: Partition
    privilege: Privilege


_READ = Privilege.READ


class _TaskFields(NamedTuple):
    kind: str
    domain: Domain
    args: tuple[StoreArg, ...]
    scalars: tuple[tuple[str, float], ...] = ()


class IndexTask(_TaskFields):
    """A group of parallel point tasks over a rectangular launch domain.

    A tuple, like ``StoreArg``: building one costs a C-level tuple and the
    checks of ``__post_init__``, where a frozen dataclass would add one
    ``object.__setattr__`` per field."""

    __slots__ = ()

    def __new__(
        cls,
        kind: str,
        domain: Domain,
        args: tuple[StoreArg, ...],
        scalars: tuple[tuple[str, float], ...] = (),
    ) -> "IndexTask":
        task = tuple.__new__(cls, (kind, domain, args, scalars))
        task.__post_init__()
        return task

    def __post_init__(self) -> None:
        if not self.args:
            raise ValueError("index task needs at least one store argument")
        effectful = 0
        for a in self.args:
            if a[2] is not _READ:
                effectful += 1
        if effectful > 1:  # a task rarely has two, so the set is rarely built
            pairs = {a[:2] for a in self.args if a[2] is not _READ}
            if len(pairs) != effectful:
                raise ValueError("duplicate (store, partition) among W/RW/Rd arguments")


@dataclass(frozen=True)
class Rect:
    """Half-open rectangle in element coordinates."""

    lo: tuple[int, ...]
    hi: tuple[int, ...]

    @property
    def is_empty(self) -> bool:
        return any(h <= l for l, h in zip(self.lo, self.hi))

    @property
    def extents(self) -> tuple[int, ...]:
        return tuple(max(0, h - l) for l, h in zip(self.lo, self.hi))

    def intersect(self, other: "Rect") -> "Rect":
        return Rect(
            tuple(max(a, b) for a, b in zip(self.lo, other.lo)),
            tuple(min(a, b) for a, b in zip(self.hi, other.hi)),
        )

    def overlaps(self, other: "Rect") -> bool:
        if self.is_empty or other.is_empty:
            return False
        return not self.intersect(other).is_empty

    def slices(self) -> tuple[slice, ...]:
        return tuple(slice(l, h) for l, h in zip(self.lo, self.hi))

    @classmethod
    def full(cls, shape: Domain) -> "Rect":
        return cls((0,) * shape.rank, shape.extents)


def sub_store_bounds(store: Store, part: Partition, p: Point) -> Rect:
    """Bounding box within ``store`` that ``part`` maps the launch point ``p`` to.

    Tiles are clamped to the store's bounds; empty sub-stores are legal.
    """
    if isinstance(part, NonePart):
        return Rect.full(store.shape)
    if part.proj.out_rank != store.rank:
        raise MalformedPartitionError(
            f"partition maps into rank {part.proj.out_rank}, store {store.id} has rank {store.rank}"
        )
    q = part.proj.apply(p)
    q1 = part.proj.apply(tuple(c + 1 for c in p))
    lo = tuple(a * t + o for a, t, o in zip(q, part.tile, part.offset))
    hi = tuple(a * t + o for a, t, o in zip(q1, part.tile, part.offset))
    shape = store.shape.extents
    lo = tuple(min(max(l, 0), s) for l, s in zip(lo, shape))
    hi = tuple(min(max(h, 0), s) for h, s in zip(hi, shape))
    return Rect(lo, hi)


def tiling_span(store: Store, part: Partition, launch: Domain) -> Rect | None:
    """The unclamped box ``[offset, offset + tile * launch extents)`` of an
    identity tiling whose projection, store and launch share one rank, else None."""
    if isinstance(part, NonePart) or not part.proj.is_identity:
        return None
    if not part.proj.out_rank == store.rank == launch.rank:
        return None
    hi = tuple([o + t * n for o, t, n in zip(part.offset, part.tile, launch.extents)])
    return Rect(part.offset, hi)


def covers(store: Store, part: Partition, launch: Domain) -> bool:
    """Whether the union of sub-stores over ``launch`` is the whole store.

    True for NonePart and where ``tiling_span`` holds the store, else false:
    conservative, so temporary elimination never over-approximates coverage.
    """
    if isinstance(part, NonePart):
        return True
    span = tiling_span(store, part, launch)
    return span is not None and all(
        l <= 0 and h >= s for l, h, s in zip(span.lo, span.hi, store.shape.extents)
    )
