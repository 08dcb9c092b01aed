"""Random legal task-stream generator for soundness and differential fuzzing.

Streams draw from one or two "families", each with its own launch domain and
tile size. Arrays are padded by 2 elements per dimension so that translated
identity-tiling views at offsets 0..2 always have full tile extents; writes go
through such views, which keeps point tasks interference-free within a task
while still creating plenty of cross-task true/anti dependences between views
at different offsets. Rank-0 stores with replication partitions serve as
reduction targets and scalar operands, and occasional opaque tasks act as
fusion barriers. Mixed launch domains between families exercise the
launch-domain constraint.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache

from diffusekit.ir import (
    Domain,
    IndexTask,
    NonePart,
    Privilege,
    ProjectionFn,
    StoreArg,
    Tiling,
)
from diffusekit.memo import MemoCache
from diffusekit.pipeline import Session, SessionConfig

PAD = 2

R = Privilege.READ
W = Privilege.WRITE
RD = Privilege.REDUCE
RW = Privilege.READ_WRITE


@dataclass
class FuzzStream:
    seed: int
    stores: dict[int, tuple[int, ...]]
    tasks: list[IndexTask]
    drops: dict[int, list[int]] = field(default_factory=dict)

    @property
    def live_ids(self) -> list[int]:
        dropped = {s for ids in self.drops.values() for s in ids}
        return sorted(set(self.stores) - dropped)


@dataclass
class _Family:
    launch: Domain
    tile: tuple[int, ...]
    arrays: list[int]
    scalars: list[int]
    vec: int | None  # rank-1 array for dimension-dropping views (rank-2 only)


def _view(fam: _Family, rng: random.Random) -> Tiling:
    offset = tuple(rng.randint(0, PAD) for _ in fam.tile)
    return Tiling(fam.tile, offset, ProjectionFn.identity(len(fam.tile)))


def _drop_dim_view(fam: _Family, rng: random.Random) -> Tiling:
    matrix = ((1,) + (0,) * (fam.launch.rank - 1),)
    proj = ProjectionFn(matrix, (0,))
    return Tiling((fam.tile[0],), (rng.randint(0, PAD),), proj)


def generate_stream(seed: int) -> FuzzStream:
    rng = random.Random(seed)
    stores: dict[int, tuple[int, ...]] = {}

    def new_store(shape: tuple[int, ...]) -> int:
        sid = len(stores)
        stores[sid] = shape
        return sid

    families: list[_Family] = []
    for _ in range(rng.randint(1, 2)):
        rank = rng.randint(1, 2)
        if rank == 1:
            launch = (rng.randint(1, 4),)
        else:
            launch = (rng.randint(1, 3), rng.randint(1, 3))
        tile = tuple(rng.randint(1, 3) for _ in range(rank))
        shape = tuple(t * n + PAD for t, n in zip(tile, launch))
        arrays = [new_store(shape) for _ in range(rng.randint(2, 4))]
        scalars = [new_store(()) for _ in range(rng.randint(1, 2))]
        vec = None
        if rank == 2:
            vec = new_store((tile[0] * launch[0] + PAD,))
        families.append(_Family(Domain(launch), tile, arrays, scalars, vec))

    tasks: list[IndexTask] = []
    for _ in range(rng.randint(3, 7)):
        fam = rng.choice(families)
        launch = fam.launch.extents
        kinds = ["binary", "scalar_mult", "unary", "fill", "axpy", "dot", "ratio"]
        if fam.vec is not None:
            kinds.append("dot_dropdim")
        if rng.random() < 0.12:
            choice = "opaque"
        else:
            choice = rng.choice(kinds)

        out = rng.choice(fam.arrays)
        ins = [a for a in fam.arrays if a != out]
        if choice == "binary":
            kind = rng.choice(["ADD", "SUB", "MIN", "MAX", "MULT"])
            a, b = rng.choice(ins), rng.choice(ins)
            args = (
                StoreArg(a, _view(fam, rng), R),
                StoreArg(b, _view(fam, rng), R),
                StoreArg(out, _view(fam, rng), W),
            )
            tasks.append(IndexTask(kind, fam.launch, args))
        elif choice == "scalar_mult":
            a = rng.choice(ins)
            args = (StoreArg(a, _view(fam, rng), R), StoreArg(out, _view(fam, rng), W))
            tasks.append(
                IndexTask("MULT", fam.launch, args, (("s", rng.choice([0.5, 2.0, -1.0, 3.0])),))
            )
        elif choice == "unary":
            a = rng.choice(ins)
            args = (StoreArg(a, _view(fam, rng), R), StoreArg(out, _view(fam, rng), W))
            tasks.append(IndexTask(rng.choice(["COPY", "NEG"]), fam.launch, args))
        elif choice == "fill":
            args = (StoreArg(out, _view(fam, rng), W),)
            tasks.append(IndexTask("FILL", fam.launch, args, (("s", float(rng.randint(0, 9))),)))
        elif choice == "axpy":
            a = rng.choice(ins)
            args = (StoreArg(a, _view(fam, rng), R), StoreArg(out, _view(fam, rng), RW))
            tasks.append(IndexTask("AXPY", fam.launch, args, (("w", 2.0),)))
        elif choice == "dot":
            a, b = rng.choice(fam.arrays), rng.choice(fam.arrays)
            acc = rng.choice(fam.scalars)
            args = (
                StoreArg(a, _view(fam, rng), R),
                StoreArg(b, _view(fam, rng), R),
                StoreArg(acc, NonePart(), RD),
            )
            tasks.append(IndexTask("DOT", fam.launch, args))
        elif choice == "dot_dropdim":
            acc = rng.choice(fam.scalars)
            args = (
                StoreArg(fam.vec, _drop_dim_view(fam, rng), R),
                StoreArg(fam.vec, _drop_dim_view(fam, rng), R),
                StoreArg(acc, NonePart(), RD),
            )
            tasks.append(IndexTask("DOT", fam.launch, args))
        elif choice == "ratio":
            a = rng.choice(ins)
            num, den = rng.choice(fam.scalars), rng.choice(fam.scalars)
            args = (
                StoreArg(a, _view(fam, rng), R),
                StoreArg(out, _view(fam, rng), RW),
                StoreArg(num, NonePart(), R),
                StoreArg(den, NonePart(), R),
            )
            tasks.append(IndexTask("AXPY_RATIO", fam.launch, args))
        else:  # opaque barrier
            a = rng.choice(ins)
            args = (StoreArg(a, NonePart(), R), StoreArg(out, _view(fam, rng), W))
            tasks.append(IndexTask("OPAQUE", fam.launch, args))

    last_use: dict[int, int] = {}
    for i, t in enumerate(tasks):
        for arg in t.args:
            last_use[arg.store] = i
    drops: dict[int, list[int]] = {}
    for sid, idx in last_use.items():
        if rng.random() < 0.5:
            drops.setdefault(idx, []).append(sid)
    return FuzzStream(seed, stores, tasks, drops)


@lru_cache(maxsize=4)
def corpus(n: int, base_seed: int = 0) -> tuple[FuzzStream, ...]:
    return tuple(generate_stream(base_seed + i) for i in range(n))


def run_stream(stream: FuzzStream, config: SessionConfig, memo: MemoCache | None = None) -> Session:
    """Run ``stream`` to its end; with ``memo``, the session starts from it."""
    session = Session(config)
    if memo is not None:
        session.memo = memo
    for sid in sorted(stream.stores):
        session.create_store(sid, stream.stores[sid])
    for i, t in enumerate(stream.tasks):
        session.submit(t)
        for sid in stream.drops.get(i, ()):
            session.drop_ref(sid)
    session.finish()
    return session


def live_digests(session: Session, ids) -> dict[int, bytes]:
    return session.heap.digest(list(ids))
