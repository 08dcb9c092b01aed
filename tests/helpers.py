"""Shared builders for tests: partitions, store tables, tasks, and the
six-task stencil window used across several suites."""

from __future__ import annotations

from diffusekit.ir import (
    Domain,
    IndexTask,
    NonePart,
    Privilege,
    ProjectionFn,
    Store,
    StoreArg,
    Tiling,
)
from diffusekit import trace as tracefmt
from diffusekit.pipeline import Session, SessionConfig, apply_event, task_from_event

R = Privilege.READ
W = Privilege.WRITE
RD = Privilege.REDUCE
RW = Privilege.READ_WRITE


def tiling(tile, offset=None, proj=None) -> Tiling:
    tile = tuple(tile)
    offset = tuple(offset) if offset is not None else (0,) * len(tile)
    return Tiling(tile, offset, proj or ProjectionFn.identity(len(tile)))


def store_table(*shapes) -> dict[int, Store]:
    return {i: Store(i, Domain(tuple(s))) for i, s in enumerate(shapes)}


def task(kind, domain, args, scalars=()) -> IndexTask:
    return IndexTask(
        kind,
        Domain(tuple(domain)),
        tuple(StoreArg(s, p, pr) for s, p, pr in args),
        tuple(scalars),
    )


def stencil_window(size: int = 6, nodes: int = 2):
    """One iteration of the five-point stencil: 4 ADDs, a scaled MULT into
    work, and a COPY of work back into the grid's center view.

    Returns (tasks, stores, names) where names maps store ids to labels.
    Store 0 is the grid, 1 is work, 2..5 are the chain temporaries.
    """
    m = size - 2
    assert m % nodes == 0
    t = m // nodes
    stores = store_table((size, size), (m, m), (m, m), (m, m), (m, m), (m, m))
    center = tiling((t, t), (1, 1))
    north = tiling((t, t), (0, 1))
    east = tiling((t, t), (1, 2))
    west = tiling((t, t), (1, 0))
    south = tiling((t, t), (2, 1))
    p0 = tiling((t, t))
    launch = (nodes, nodes)
    tasks = [
        task("ADD", launch, [(0, center, R), (0, north, R), (2, p0, W)]),
        task("ADD", launch, [(2, p0, R), (0, east, R), (3, p0, W)]),
        task("ADD", launch, [(3, p0, R), (0, west, R), (4, p0, W)]),
        task("ADD", launch, [(4, p0, R), (0, south, R), (5, p0, W)]),
        task("MULT", launch, [(5, p0, R), (1, p0, W)], [("s", 0.2)]),
        task("COPY", launch, [(1, p0, R), (0, center, W)]),
    ]
    names = {0: "grid", 1: "work", 2: "t1", 3: "t2", 4: "t3", 5: "avg"}
    return tasks, stores, names


def tasks_of(events):
    """Tasks and stores of a trace, translated as a session would."""
    session = Session(SessionConfig(execute=False))
    tasks = []
    for ev in events:
        if isinstance(ev, tracefmt.TaskEvent):
            tasks.append(task_from_event(session, ev))
        else:
            apply_event(session, ev)
    return tasks, session.stores
