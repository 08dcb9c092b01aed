"""Fusion constraints, greedy prefix identification, fused task construction."""

from __future__ import annotations

import pytest

from diffusekit.fusion import (
    FusionConstraint,
    PrefixTracker,
    build_fused_task,
    fused_kind_name,
    longest_fusible_prefix,
)
from diffusekit.ir import NonePart, Privilege
from diffusekit.kernels import default_registry
from diffusekit.oracle import oracle_fusible
from diffusekit import pipeline
from diffusekit.pipeline import Session, SessionConfig
from helpers import R, RD, RW, W, stencil_window, store_table, task, tiling


def first_violation(tasks) -> FusionConstraint | None:
    """The constraint ``PrefixTracker`` reports first while admitting the
    tasks in order, or None when it admits them all. Kind "K" has no
    generator, so these tasks bypass ``longest_fusible_prefix``."""
    tracker = PrefixTracker()
    for i, t in enumerate(tasks):
        verdict = tracker.admit(t, i)
        if verdict is not None:
            return verdict.constraint
    return None


class TestLaunchDomain:
    def test_equal_domains(self):
        ts = [task("K", (2, 2), [(0, tiling((1, 1)), W)]) for _ in range(2)]
        assert first_violation(ts) is None

    def test_different_ranks(self):
        t1 = task("K", (4,), [(0, tiling((1,)), W)])
        t2 = task("K", (2, 2), [(1, tiling((1, 1)), W)])
        assert first_violation([t1, t2]) is FusionConstraint.LAUNCH_DOMAIN

    def test_matvec_then_elementwise_same_domain(self):
        # Same launch domain passes this constraint; the real conflict is the
        # tiled read of a store written through a replication.
        n = NonePart()
        t1 = task("MATVEC", (4,), [(0, n, R), (1, n, R), (2, n, W)])
        t2 = task("AXPY", (4,), [(2, tiling((1,)), R), (1, tiling((1,)), RW)])
        assert first_violation([t1, t2]) is FusionConstraint.TRUE_DEP


class TestTrueDependence:
    def test_same_partition_chain_permitted(self):
        p = tiling((2,))
        t1 = task("K", (2,), [(0, p, W)])
        t2 = task("K", (2,), [(0, p, R), (1, p, W)])
        assert first_violation([t1, t2]) is None

    def test_aliased_view_read_after_write_rejected(self):
        center, north = tiling((2, 2), (1, 1)), tiling((2, 2), (0, 1))
        t1 = task("K", (2, 2), [(0, center, W)])
        t2 = task("K", (2, 2), [(0, north, R), (1, tiling((2, 2)), W)])
        assert first_violation([t1, t2]) is FusionConstraint.TRUE_DEP

    def test_distinct_stores_permitted(self):
        t1 = task("K", (2,), [(0, tiling((2,)), W)])
        t2 = task("K", (2,), [(1, tiling((1,)), R), (2, tiling((1,)), W)])
        assert first_violation([t1, t2]) is None


class TestAntiDependence:
    def test_read_views_then_center_write_rejected(self):
        tasks, _, _ = stencil_window()
        assert first_violation(tasks) is FusionConstraint.ANTI_DEP

    def test_read_then_write_same_partition_permitted(self):
        p = tiling((2,))
        t1 = task("K", (2,), [(0, p, R), (1, p, W)])
        t2 = task("K", (2,), [(0, p, W)])
        assert first_violation([t1, t2]) is None

    def test_read_only_stream_permitted(self):
        p, q = tiling((2,)), NonePart()
        ts = [task("K", (2,), [(0, p, R), (1, q, R), (2, p, RD)]) for _ in range(3)]
        assert first_violation(ts) is None


class TestReduction:
    def test_two_reductions_into_same_store_permitted(self):
        n = NonePart()
        p = tiling((2,))
        t1 = task("DOT", (2,), [(0, p, R), (1, p, R), (2, n, RD)])
        t2 = task("DOT", (2,), [(0, p, R), (0, p, R), (2, n, RD)])
        assert first_violation([t1, t2]) is None

    def test_reduce_then_read_rejected(self):
        n = NonePart()
        p = tiling((2,))
        t1 = task("DOT", (2,), [(0, p, R), (0, p, R), (1, n, RD)])
        t2 = task("AXPY_RATIO", (2,), [(0, p, R), (2, p, RW), (1, n, R), (1, n, R)])
        assert first_violation([t1, t2]) is FusionConstraint.REDUCTION

    def test_reduce_alongside_unrelated_read_permitted(self):
        # Reading the reduction's inputs again does not touch its target.
        n = NonePart()
        p = tiling((2,))
        t1 = task("DOT", (2,), [(0, p, R), (0, p, R), (1, n, RD)])
        t2 = task("COPY", (2,), [(0, p, R), (2, p, W)])
        assert first_violation([t1, t2]) is None

    @pytest.mark.parametrize("priv", [R, W], ids=["read", "write"])
    def test_reduce_of_a_store_the_same_task_touches_rejected(self, priv):
        # In either order within the task, through the reduction's partition
        # or another one.
        p, q = tiling((2,)), tiling((1,))
        for args in ([(0, q, priv), (0, p, RD)], [(0, p, RD), (1, p, R), (0, q, priv)]):
            assert first_violation([task("K", (2,), args)]) is FusionConstraint.REDUCTION

    def test_reduce_beside_a_read_of_another_store_permitted(self):
        p = tiling((2,))
        assert first_violation([task("K", (2,), [(1, p, R), (0, p, RD)])]) is None


class TestLongestFusiblePrefix:
    def test_stencil_window_stops_before_copy(self):
        tasks, _, _ = stencil_window()
        f, verdicts, _ = longest_fusible_prefix(tasks, default_registry())
        assert f == 5
        assert verdicts[0].constraint is FusionConstraint.ANTI_DEP
        assert verdicts[0].blocking_task_index == 5
        v = verdicts[0]
        assert tasks[v.blocking_task_index].args[v.argument].store == 0  # the aliased grid
        assert v.store is None  # the analysis names it by position only

    def test_long_elementwise_chain_fully_fuses(self):
        p = tiling((2,))
        ts = [task("COPY", (2,), [(i, p, R), (i + 1, p, W)]) for i in range(67)]
        f, verdicts, _ = longest_fusible_prefix(ts, default_registry())
        assert f == 67 and verdicts == []

    def test_opaque_task_is_a_barrier(self):
        n = NonePart()
        t1 = task("MATVEC", (4,), [(0, n, R), (1, n, R), (2, n, W)])
        t2 = task("AXPY", (4,), [(2, tiling((1,)), R), (1, tiling((1,)), RW)])
        f, verdicts, _ = longest_fusible_prefix([t1, t2], default_registry())
        assert f == 1
        assert verdicts[0].constraint is FusionConstraint.NO_GENERATOR
        # The oracle agrees the pair must not fuse (non-point-wise flow
        # through the replicated read).
        stores = store_table((4, 4), (4,), (4,))
        assert not oracle_fusible([t1, t2], stores)

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            longest_fusible_prefix([], default_registry())

    def test_first_task_that_reads_and_reduces_one_store_runs_alone(self):
        p = tiling((4,))
        t1 = task("SUM", (2,), [(0, p, R), (0, p, RD)])
        t2 = task("NEG", (2,), [(1, p, R), (2, p, W)])
        f, verdicts, _ = longest_fusible_prefix([t1, t2], default_registry())
        assert f == 1
        (v,) = verdicts
        assert (v.constraint, v.blocking_task_index, v.argument) == (FusionConstraint.REDUCTION, 0, 1)
        assert longest_fusible_prefix([t1], default_registry())[:2] == (1, [])
        f, verdicts, _ = longest_fusible_prefix([t2, t1], default_registry())
        assert f == 1 and verdicts[0].blocking_task_index == 1


class TestBuildFusedTask:
    def test_stencil_prefix_unions_args(self, monkeypatch):
        tasks, stores, _ = stencil_window()
        kind, args, arg_map = build_fused_task(tasks, 5)
        assert kind == "FUSED_ADD_MULT"
        pairs = [tasks[i].args[k][:2] for i, k, _ in args]
        by_pair = {pair: priv for pair, (_, _, priv) in zip(pairs, args)}
        assert len(by_pair) == len(args)
        # Five aliased grid views read, chain temporaries joined to RW,
        # work written once.
        grid_views = [p for (s, p) in by_pair if s == 0]
        assert len(grid_views) == 5
        assert all(by_pair[(0, p)] is R for p in grid_views)
        for temp in (2, 3, 4, 5):
            assert by_pair[(temp, tiling((2, 2)))] is RW
        assert by_pair[(1, tiling((2, 2)))] is W
        # arg_map sends each original arg to the fused arg with the same
        # pair, whose position is the first naming that pair
        first: dict[int, tuple[int, int]] = {}
        for i, (t, positions) in enumerate(zip(tasks[:5], arg_map)):
            for k, (a, j) in enumerate(zip(t.args, positions)):
                assert pairs[j] == (a.store, a.partition)
                first.setdefault(j, (i, k))
        assert [(i, k) for i, k, _ in args] == [first[j] for j in range(len(args))]
        # the launched fused task names task i's k-th scalar s{i}_{k}
        launched = []
        execute = pipeline.execute_task
        monkeypatch.setattr(pipeline, "execute_task", lambda t, *a: launched.append(t) or execute(t, *a))
        session = Session(SessionConfig())
        for sid, store in stores.items():
            session.create_store(sid, store.shape.extents)
        for t in tasks:
            session.submit(t)
        assert session.finish().fused_prefixes == [5, 1]
        assert launched[0].kind == "FUSED_ADD_MULT"
        assert launched[0].scalars == (("s4_0", 0.2),)

    def test_fused_kind_name_deduplicates(self):
        assert fused_kind_name(["ADD", "ADD", "MULT"]) == "FUSED_ADD_MULT"


class TestScaleFreeAnalysis:
    def test_constraint_steps_independent_of_launch_volume(self):
        def window(n: int):
            p = tiling((2,))
            return [
                task("ADD", (n,), [(0, p, R), (1, p, R), (2, p, W)]),
                task("MULT", (n,), [(2, p, R), (3, p, W)], [("s", 0.5)]),
                task("COPY", (n,), [(3, p, R), (0, p, W)]),
            ]

        counts = []
        for n in (4, 4096):
            f, _, steps = longest_fusible_prefix(window(n), default_registry())
            assert f == 3
            counts.append(steps)
        assert counts[0] == counts[1] > 0
