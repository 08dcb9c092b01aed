"""Brute-force dependence oracle: dep, dependence maps, fusibility."""

from __future__ import annotations

import pytest

from diffusekit.ir import Domain, NonePart, Rect
from diffusekit.oracle import (
    OracleTooLargeError,
    dep,
    dependence_map,
    oracle_fusible,
    point_task,
)
from helpers import R, RD, RW, W, stencil_window, store_table, task, tiling


class TestDep:
    def test_aliased_stencil_views_conflict(self):
        # Writing the center tile at (0,0) overlaps the north view at (1,0).
        stores = store_table((6, 6))
        center = tiling((2, 2), (1, 1))
        north = tiling((2, 2), (0, 1))
        writer = task("K", (2, 2), [(0, center, W)])
        reader = task("K", (2, 2), [(0, north, R)])
        v1 = point_task(writer, (0, 0), stores)
        v2 = point_task(reader, (1, 0), stores)
        assert dep(v1, v2)

    def test_a_tile_clamped_to_nothing_conflicts_with_nothing(self):
        stores = store_table((4,))
        past_the_end = tiling((2,), (4,))  # point 0 maps to [4, 6), clamped to [4, 4)
        writer = task("K", (1,), [(0, past_the_end, W)])
        reader = task("K", (1,), [(0, NonePart(), R)])
        v1, v2 = point_task(writer, (0,), stores), point_task(reader, (0,), stores)
        empty, whole = v1.accesses[0][1], v2.accesses[0][1]
        assert empty == Rect((4,), (4,)) and empty.is_empty
        assert not empty.overlaps(whole) and not whole.overlaps(empty)
        assert not empty.overlaps(empty)
        assert not dep(v1, v2) and not dep(v2, v1)

    def test_disjoint_tiles_do_not_conflict(self):
        stores = store_table((4,), (4,))
        p = tiling((2,))
        t1 = task("K", (2,), [(0, p, R), (1, p, W)])
        t2 = task("K", (2,), [(0, p, R), (1, p, W)])
        assert not dep(point_task(t1, (0,), stores), point_task(t2, (1,), stores))

    def test_overlapping_reductions_do_not_conflict(self):
        stores = store_table(())
        t1 = task("K", (2,), [(0, NonePart(), RD)])
        t2 = task("K", (2,), [(0, NonePart(), RD)])
        assert not dep(point_task(t1, (0,), stores), point_task(t2, (1,), stores))

    def test_reduce_then_read_conflicts(self):
        stores = store_table(())
        t1 = task("K", (2,), [(0, NonePart(), RD)])
        t2 = task("K", (2,), [(0, NonePart(), R)])
        assert dep(point_task(t1, (0,), stores), point_task(t2, (1,), stores))


class TestDependenceMap:
    def test_same_partition_chain_is_pointwise(self):
        stores = store_table((4,), (4,), (4,))
        p = tiling((2,))
        t1 = task("ADD", (2,), [(0, p, R), (0, p, R), (1, p, W)])
        t2 = task("ADD", (2,), [(1, p, R), (0, p, R), (2, p, W)])
        m = dependence_map(t1, t2, stores)
        assert m.is_pointwise
        assert m[(0,)] == {(0,)} and m[(1,)] == {(1,)}

    def test_shifted_read_is_not_pointwise(self):
        stores = store_table((5,), (4,))
        t1 = task("K", (2,), [(0, tiling((2,)), W)])
        t2 = task("K", (2,), [(0, tiling((2,), (1,)), R), (1, tiling((2,)), W)])
        m = dependence_map(t1, t2, stores)
        assert not m.is_pointwise
        # Writer point 1 covers [2, 4), feeding both shifted reader tiles.
        assert m[(1,)] == {(0,), (1,)}

    def test_independent_stores_empty_map(self):
        stores = store_table((4,), (4,))
        p = tiling((2,))
        t1 = task("K", (2,), [(0, p, W)])
        t2 = task("K", (2,), [(1, p, W)])
        m = dependence_map(t1, t2, stores)
        assert all(deps == frozenset() for deps in m.entries.values())

    def test_cap_enforced(self):
        stores = store_table((8192,))
        p = tiling((1,))
        t = task("K", (8192,), [(0, p, W)])
        with pytest.raises(OracleTooLargeError):
            dependence_map(t, t, stores)


class TestOracleFusible:
    def test_stencil_prefix_without_copy_is_fusible(self):
        tasks, stores, _ = stencil_window()
        assert oracle_fusible(tasks[:5], stores)

    def test_stencil_prefix_with_copy_is_not(self):
        tasks, stores, _ = stencil_window()
        assert not oracle_fusible(tasks, stores)

    def test_single_task_is_fusible(self):
        tasks, stores, _ = stencil_window()
        assert oracle_fusible(tasks[:1], stores)

    def test_unequal_launch_domains_are_not_fusible(self):
        stores = store_table((4,))
        t1 = task("K", (2,), [(0, tiling((2,)), W)])
        t2 = task("K", (4,), [(0, tiling((1,)), R)])
        assert not oracle_fusible([t1, t2], stores)

