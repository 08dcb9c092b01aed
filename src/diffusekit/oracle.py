"""Brute-force point-task dependence oracle.

Deliberately scale-aware: it enumerates launch-domain points and intersects
sub-store rectangles pairwise. It exists only to validate the scale-free
fusion engine on small instances and is capped accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .ir import (
    IndexTask,
    Point,
    Privilege,
    Rect,
    StoreTable,
    sub_store_bounds,
)

DEFAULT_ORACLE_CAP = 4096


class OracleTooLargeError(ValueError):
    """Launch-domain volume exceeds the configured enumeration cap."""


@dataclass(frozen=True)
class PointTaskView:
    """One point task's accesses, fully materialized as sub-store rectangles."""

    point: Point
    accesses: tuple[tuple[int, Rect, Privilege], ...]  # (store id, bounds, privilege)


def point_task(task: IndexTask, p: Point, stores: StoreTable) -> PointTaskView:
    accesses = tuple(
        (a.store, sub_store_bounds(stores[a.store], a.partition, p), a.privilege) for a in task.args
    )
    return PointTaskView(p, accesses)


def dep(t1: PointTaskView, t2: PointTaskView) -> bool:
    """Whether t2 depends on t1 (t1's parent precedes t2's in program order).

    True on any overlapping same-parent access pair forming a true, anti or
    reduction dependence; two reductions never conflict.
    """
    for s1, r1, pr1 in t1.accesses:
        for s2, r2, pr2 in t2.accesses:
            if s1 != s2 or not r1.overlaps(r2):
                continue
            if pr1.is_write and (pr2.is_read or pr2.is_write or pr2.is_reduce):
                return True
            if pr1.is_read and (pr2.is_write or pr2.is_reduce):
                return True
            if pr1.is_reduce and (pr2.is_read or pr2.is_write):
                return True
    return False


@dataclass(frozen=True)
class DependenceMap:
    """Total map: each point of the first task to the set of dependent points."""

    entries: dict[Point, frozenset[Point]]

    def __getitem__(self, p: Point) -> frozenset[Point]:
        return self.entries[p]

    @property
    def is_pointwise(self) -> bool:
        return all(deps <= {p} for p, deps in self.entries.items())


def _check_cap(task: IndexTask, cap: int) -> None:
    if task.domain.volume > cap:
        raise OracleTooLargeError(
            f"launch-domain volume {task.domain.volume} exceeds oracle cap {cap}"
        )


def dependence_map(
    t1: IndexTask, t2: IndexTask, stores: StoreTable, cap: int = DEFAULT_ORACLE_CAP
) -> DependenceMap:
    _check_cap(t1, cap)
    _check_cap(t2, cap)
    views2 = [point_task(t2, q, stores) for q in t2.domain.points()]
    entries: dict[Point, frozenset[Point]] = {}
    for p in t1.domain.points():
        v1 = point_task(t1, p, stores)
        entries[p] = frozenset(v2.point for v2 in views2 if dep(v1, v2))
    return DependenceMap(entries)


def oracle_fusible(
    tasks: Sequence[IndexTask], stores: StoreTable, cap: int = DEFAULT_ORACLE_CAP
) -> bool:
    """Definition check: every pairwise dependence map is point-wise.

    Tasks over unequal launch domains are treated as non-fusible outright,
    since comparing a point with itself presumes a shared domain.
    """
    if len(tasks) <= 1:
        return True
    if any(t.domain != tasks[0].domain for t in tasks):
        return False
    for i in range(len(tasks)):
        for j in range(i + 1, len(tasks)):
            if not dependence_map(tasks[i], tasks[j], stores, cap).is_pointwise:
                return False
    return True

