"""Reference execution of task streams over dense in-memory stores.

``execute_task`` runs a launch as one kernel call over the union of its point
images when that provably equals running its points in order, and point by
point otherwise. Two modes matter for verification and always go point by
point. Sequential mode runs tasks in program order, point tasks in
lexicographic order, and is the semantic oracle. The
isolated mode executes every point task of one (possibly fused) index task
against private copies of exactly its own sub-stores, turning the point-wise
dependence property into an executable check: any cross-point data flow shows
up as an arena violation or a heap mismatch.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Collection, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .ir import (
    IndexTask,
    NonePart,
    Partition,
    Point,
    Privilege,
    Rect,
    StoreTable,
    covers,
    sub_store_bounds,
    tiling_span,
)
from .kernels import Kernel, KernelRegistry, arg_name, interpret


class ExecutionError(RuntimeError):
    pass


class UnknownTaskKindError(ExecutionError):
    """Task kind has neither a kernel generator nor a built-in semantic."""


class ArenaViolationError(ExecutionError):
    """A point task touched data claimed by a different point task."""


class Heap:
    """Lazy StoreId -> dense float64 array map.

    Arrays materialize on first access, filled with small deterministic
    integers derived from (seed, store id); allocation order therefore never
    affects contents, and stores demoted to task-local buffers simply never
    appear here. The one exception is a store whose first touch overwrites
    it whole: ``get(..., fill=False)`` allocates it unfilled, and every cell
    holds what that launch wrote.
    """

    def __init__(self, stores: StoreTable, seed: int = 0) -> None:
        self._stores = stores
        self._seed = seed
        self.arrays: dict[int, np.ndarray] = {}

    def get(self, store_id: int, fill: bool = True) -> np.ndarray:
        """The store's array. One not yet materialized is allocated filled
        with its documented contents, or, given ``fill=False``, unfilled:
        the caller then writes every cell before reading any."""
        arr = self.arrays.get(store_id)
        if arr is None:
            shape = self._stores[store_id].shape.extents
            if fill:
                rng = np.random.default_rng([self._seed, store_id])
                arr = rng.integers(1, 10, size=shape).astype(np.float64)
            else:
                arr = np.empty(shape, dtype=np.float64)
            self.arrays[store_id] = arr
        return arr

    def free(self, store_id: int) -> None:
        self.arrays.pop(store_id, None)

    def digest(self, ids: Sequence[int]) -> dict[int, bytes]:
        """Byte-exact snapshots; materializes any listed store deterministically."""
        return {s: self.get(s).tobytes() for s in ids}


def heap_diff(a: Heap, b: Heap, ids: Sequence[int]) -> list[int]:
    """Ids whose contents differ between the two heaps (byte comparison)."""
    da, db = a.digest(ids), b.digest(ids)
    return [s for s in ids if da[s] != db[s]]


# --- built-in semantics for opaque task kinds --------------------------------

Builtin = Callable[[IndexTask, dict[str, np.ndarray]], None]


def _builtin_matvec(task: IndexTask, bufs: dict[str, np.ndarray]) -> None:
    bufs["a2"][...] = bufs["a0"] @ bufs["a1"]


def _builtin_norm(task: IndexTask, bufs: dict[str, np.ndarray]) -> None:
    bufs["a1"][()] += float(np.sum(bufs["a0"] * bufs["a0"]))


def _builtin_opaque(task: IndexTask, bufs: dict[str, np.ndarray]) -> None:
    for i, arg in enumerate(task.args):
        if arg.privilege.is_write:
            bufs[f"a{i}"][...] += 1.0


def default_builtins() -> dict[str, Builtin]:
    return {
        "MATVEC": _builtin_matvec,
        "SPMV": _builtin_matvec,
        "NORM": _builtin_norm,
        "OPAQUE": _builtin_opaque,
    }


# --- binding helpers ---------------------------------------------------------


def _region(arr: np.ndarray, rect: Rect) -> np.ndarray:
    sl = rect.slices()
    return arr[sl] if sl else arr


# An argument's region: the slices that cut it out of its store, and its extents.
Region = tuple[tuple[slice, ...], tuple[int, ...]]


def _scalar_env(kernel: Kernel, task: IndexTask) -> dict[str, float]:
    if len(kernel.scalar_params) != len(task.scalars):
        raise ExecutionError(
            f"task {task.kind} carries {len(task.scalars)} scalars, "
            f"kernel expects {len(kernel.scalar_params)}"
        )
    return {name: value for name, (_, value) in zip(kernel.scalar_params, task.scalars)}


def _bindings(
    task: IndexTask,
    regions: Sequence[Region],
    heap: Heap,
    temp_positions: frozenset[int],
    unfilled: Collection[int] = (),
) -> tuple[dict[str, np.ndarray], dict[str, tuple[int, ...]]]:
    """Heap views of each argument's region; temp positions get local shapes.
    A store in ``unfilled`` is allocated unfilled if not yet materialized."""
    bufs: dict[str, np.ndarray] = {}
    local_shapes: dict[str, tuple[int, ...]] = {}
    for j, (a, (sl, extents)) in enumerate(zip(task.args, regions)):
        if j in temp_positions:
            local_shapes[arg_name(j, local=True)] = extents
        else:
            arr = heap.get(a.store, fill=a.store not in unfilled)
            bufs[arg_name(j)] = arr[sl] if sl else arr
    return bufs, local_shapes


def _point_regions(task: IndexTask, p: Point, stores: StoreTable) -> list[Region]:
    regions = []
    for a in task.args:
        rect = sub_store_bounds(stores[a.store], a.partition, p)
        regions.append((rect.slices(), rect.extents))
    return regions


def _launch_images(task: IndexTask, stores: StoreTable) -> list[Rect] | None:
    """Each argument's union of point images, if one kernel call over them
    computes exactly what the point-by-point loop computes; otherwise None.

    Every kernel access is at the loop index, so this holds when no argument
    is a reduction (per-point partials must be summed in point order), every
    argument is a read-only rank-0 replication or a tiling with one common
    positive tile whose ``tiling_span`` lies inside the store, and no written
    store is also reached through another partition. Decided from the
    partition descriptors alone, whatever the launch volume.
    """
    if any(a.privilege.is_reduce for a in task.args):
        return None
    launch = task.domain
    tile: tuple[int, ...] | None = None
    rects: list[Rect] = []
    for a in task.args:
        part, store = a.partition, stores[a.store]
        if isinstance(part, NonePart):
            if store.rank or a.privilege.is_write:
                return None
            rects.append(Rect.full(store.shape))
            continue
        span = tiling_span(store, part, launch)
        if (
            span is None
            or (tile is not None and part.tile != tile)
            or any(t <= 0 for t in part.tile)
            or not all(0 <= l and h <= s for l, h, s in zip(span.lo, span.hi, store.shape.extents))
        ):
            return None
        tile = part.tile
        rects.append(span)
    parts: dict[int, set[Partition]] = {}
    for a in task.args:
        parts.setdefault(a.store, set()).add(a.partition)
    if any(len(parts[a.store]) > 1 for a in task.args if a.privilege.is_write):
        return None
    return rects


class LaunchPlan(NamedTuple):
    """What a launch's partition descriptors decide, whatever the heap holds.

    ``regions`` holds each argument's whole-launch region when one kernel
    call over them computes what the point-by-point loop computes, else None.
    ``fill_candidates`` are the positions through which the launch may write
    a store whole before reading it: privilege W (not RW), the only argument
    naming that store, through a partition that covers the store. Whether
    such a store skips its fill also depends on the heap and the kernel, and
    is decided per launch.
    """

    regions: tuple[Region, ...] | None
    fill_candidates: tuple[int, ...]


POINT_BY_POINT = LaunchPlan(None, ())  # every point in order, every store filled


def plan_key(task: IndexTask, stores: StoreTable) -> tuple:
    """Everything ``launch_plan`` reads: the launch extents and, per argument,
    its store's extents, partition, privilege and the first position naming
    the same store."""
    first: dict[int, int] = {}
    return task.domain.extents, tuple([
        (stores[a.store].shape.extents, a.partition, a.privilege, first.setdefault(a.store, j))
        for j, a in enumerate(task.args)
    ])


def launch_plan(task: IndexTask, stores: StoreTable) -> LaunchPlan:
    """The plan of ``task``: it depends on nothing but ``plan_key``."""
    rects = _launch_images(task, stores)
    regions = None if rects is None else tuple((r.slices(), r.extents) for r in rects)
    named = Counter(a.store for a in task.args)
    candidates = tuple(
        j
        for j, a in enumerate(task.args)
        if a.privilege is Privilege.WRITE
        and named[a.store] == 1
        and covers(stores[a.store], a.partition, task.domain)
    )
    return LaunchPlan(regions, candidates)


# --- execution ---------------------------------------------------------------


def execute_task(
    task: IndexTask,
    heap: Heap,
    stores: StoreTable,
    builtins: Mapping[str, Builtin],
    kernel: Kernel | None = None,
    temp_positions: frozenset[int] = frozenset(),
    plan: LaunchPlan | None = None,
) -> None:
    """Run one index task: as one kernel call over the whole launch when
    ``_launch_images`` allows it, else point by point in lexicographic order.

    ``kernel`` is the one the task runs, fused or generated by the caller;
    without one the task runs its kind's builtin. Argument j binds to buffer
    param a{j}, or, for a position in ``temp_positions``, to a task-local
    buffer l{j} instead of a heap region. A store this launch overwrites
    whole before reading it is allocated unfilled: one of the plan's fill
    candidates that is not demoted, not yet materialized and not loaded by
    the kernel.
    ``plan`` is ``launch_plan(task, stores)``, or any plan made for an equal
    ``plan_key``; without one it is worked out here. If the launch raises,
    the stores it allocated unfilled are freed, so their next touch fills
    them.
    """
    if kernel is None:
        fn = builtins.get(task.kind)
        if fn is None:
            raise UnknownTaskKindError(f"no generator or builtin for task kind {task.kind!r}")
        for p in task.domain.points():
            bufs, _ = _bindings(task, _point_regions(task, p, stores), heap, frozenset())
            fn(task, bufs)
        return

    scalars = _scalar_env(kernel, task)
    if plan is None:
        plan = launch_plan(task, stores)
    if plan.regions is not None:
        launches: Iterable[Sequence[Region]] = (plan.regions,)
    else:
        launches = (_point_regions(task, p, stores) for p in task.domain.points())
    args = task.args
    unfilled = [
        args[j].store
        for j in plan.fill_candidates
        if j not in temp_positions
        and args[j].store not in heap.arrays
        and arg_name(j) not in kernel.loaded
    ]
    try:
        for regions in launches:
            bufs, local_shapes = _bindings(task, regions, heap, temp_positions, unfilled)
            interpret(kernel, bufs, scalars, local_shapes)
    except BaseException:
        for s in unfilled:
            heap.free(s)
        raise


def execute_sequential(
    tasks: Sequence[IndexTask],
    heap: Heap,
    stores: StoreTable,
    registry: KernelRegistry,
    builtins: Mapping[str, Builtin],
) -> None:
    """The semantic reference: tasks in program order, each point by point,
    every store filled with its documented contents when first touched. Each
    task runs the kernel ``registry`` generates for it, or else its builtin."""
    for t in tasks:
        kernel = registry.generate(t) if registry.has(t.kind) else None
        execute_task(t, heap, stores, builtins, kernel, plan=POINT_BY_POINT)


def execute_isolated(
    task: IndexTask,
    heap: Heap,
    stores: StoreTable,
    kernel: Kernel,
    temp_positions: frozenset[int] = frozenset(),
) -> None:
    """Run ``kernel`` in per-point private arenas, aborting on any shared touch.

    Writes claim store cells per point; overlapping write claims, or a read or
    reduction touching another point's claim, mean the points could not run
    without communication and raise ArenaViolationError. Execution then reads
    from a snapshot, so cross-point write visibility is impossible, and writes
    back W/RW regions and sum-combines Rd contributions in point order.
    """
    points = list(task.domain.points())
    subs = {
        p: [sub_store_bounds(stores[a.store], a.partition, p) for a in task.args]
        for p in points
    }
    claims: dict[int, np.ndarray] = {}
    for ordinal, p in enumerate(points):
        for j, a in enumerate(task.args):
            if j in temp_positions or not a.privilege.is_write:
                continue
            claim = claims.get(a.store)
            if claim is None:
                claim = np.full(stores[a.store].shape.extents, -1, dtype=np.int64)
                claims[a.store] = claim
            region = _region(claim, subs[p][j])
            if ((region != -1) & (region != ordinal)).any():
                raise ArenaViolationError(
                    f"write overlap on store {a.store} at point {p} of {task.kind}"
                )
            region[...] = ordinal
    for ordinal, p in enumerate(points):
        for j, a in enumerate(task.args):
            if j in temp_positions or a.privilege.is_write:
                continue
            claim = claims.get(a.store)
            if claim is None:
                continue
            region = _region(claim, subs[p][j])
            if ((region != -1) & (region != ordinal)).any():
                raise ArenaViolationError(
                    f"point {p} of {task.kind} reads store {a.store} cells "
                    f"written by another point"
                )

    touched = {a.store for j, a in enumerate(task.args) if j not in temp_positions}
    base = {s: heap.get(s).copy() for s in touched}
    scalars = _scalar_env(kernel, task)
    for p in points:
        bufs: dict[str, np.ndarray] = {}
        local_shapes: dict[str, tuple[int, ...]] = {}
        arenas: list[tuple[int, np.ndarray, Rect]] = []
        for j, a in enumerate(task.args):
            sub = subs[p][j]
            if j in temp_positions:
                local_shapes[arg_name(j, local=True)] = sub.extents
                continue
            if a.privilege.is_reduce:
                arena = np.zeros(sub.extents, dtype=np.float64)
            else:
                arena = np.array(_region(base[a.store], sub))
            bufs[arg_name(j)] = arena
            arenas.append((j, arena, sub))
        interpret(kernel, bufs, scalars, local_shapes)
        for j, arena, rect in arenas:
            a = task.args[j]
            dest = _region(heap.get(a.store), rect)
            if a.privilege.is_reduce:
                dest[...] += arena
            elif a.privilege.is_write:
                dest[...] = arena
