"""Core IR: domains, projections, partitions, sub-store bounds, coverage."""

from __future__ import annotations

import dataclasses
import itertools
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffusekit.ir import (
    Domain,
    IndexTask,
    MalformedPartitionError,
    NonePart,
    Privilege,
    ProjectionFn,
    Rect,
    Store,
    StoreArg,
    Tiling,
    covers,
    join_privileges,
    sub_store_bounds,
)
from helpers import R, RD, RW, W, task, tiling


class TestDomain:
    def test_volume_and_contains(self):
        d = Domain((2, 3))
        assert d.volume == 6
        assert d.rank == 2
        assert d.contains((1, 2))
        assert not d.contains((2, 0))
        assert not d.contains((0,))

    def test_points_lexicographic(self):
        assert list(Domain((2, 2)).points()) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_rejects_nonpositive_extents(self):
        with pytest.raises(ValueError):
            Domain((0,))
        with pytest.raises(ValueError):
            Domain((2, -1))

    def test_rank_zero_is_a_single_point(self):
        d = Domain(())
        assert d.volume == 1
        assert list(d.points()) == [()]


class TestProjection:
    def test_identity(self):
        p = ProjectionFn.identity(2)
        assert p.is_identity
        assert p.apply((3, 4)) == (3, 4)

    def test_dimension_drop(self):
        p = ProjectionFn(((1, 0),), (0,))
        assert not p.is_identity
        assert p.apply((2, 1)) == (2,)

    @pytest.mark.parametrize(
        "p",
        [
            ProjectionFn((), ()),
            ProjectionFn(((1,),), (0,)),
            ProjectionFn(((1, 0), (0, 1)), (0, 0)),
            ProjectionFn(((0, 1), (1, 0)), (0, 0)),
            ProjectionFn(((1, 0),), (0,)),
            ProjectionFn(((1,), (0,)), (0, 0)),
            ProjectionFn(((1,),), (1,)),
            ProjectionFn(((1, 0), (0, 1)), (0, -1)),
            ProjectionFn(((2,),), (0,)),
            ProjectionFn(((1, 1), (0, 1)), (0, 0)),
        ],
    )
    def test_is_identity_agrees_with_identity_equality(self, p):
        assert p.is_identity == (p == ProjectionFn.identity(p.out_rank))

    @pytest.mark.parametrize(
        "p, identity",
        [
            (ProjectionFn.identity(2), True),
            (ProjectionFn(((0, 1), (1, 0)), (0, 0)), False),  # permuted
            (ProjectionFn(((1,), (0,)), (0, 0)), False),  # broadcast into a rank-2 store
            (ProjectionFn(((1, 0), (0, 1)), (0, 1)), False),  # offset
        ],
    )
    def test_is_identity_is_worked_out_at_construction(self, p, identity):
        assert vars(p)["is_identity"] is identity  # a stored flag, not a property
        assert repr(p) == f"ProjectionFn(matrix={p.matrix!r}, offset={p.offset!r})"
        twin = ProjectionFn(p.matrix, p.offset)
        assert p == twin and hash(p) == hash(twin) == hash((p.matrix, p.offset))

    def test_affine_offset(self):
        p = ProjectionFn(((1,),), (5,))
        assert p.apply((2,)) == (7,)

    def test_rank_mismatch_rejected(self):
        with pytest.raises(MalformedPartitionError):
            ProjectionFn(((1, 0),), (0, 0))
        with pytest.raises(MalformedPartitionError):
            ProjectionFn.identity(2).apply((1,))

    def test_structural_equality(self):
        assert ProjectionFn.identity(2) == ProjectionFn(((1, 0), (0, 1)), (0, 0))


class TestSubStoreBounds:
    def test_identity_tiling_quadrant(self):
        store = Store(0, Domain((4, 4)))
        sub = sub_store_bounds(store, tiling((2, 2)), (1, 0))
        assert sub.bounds == Rect((2, 0), (4, 2))

    def test_replication_maps_to_full_store(self):
        store = Store(0, Domain((4, 4)))
        sub = sub_store_bounds(store, NonePart(), (3, 3))
        assert sub.bounds == Rect((0, 0), (4, 4))

    def test_dimension_dropping_projection(self):
        store = Store(0, Domain((4,)))
        part = Tiling((1,), (0,), ProjectionFn(((1, 0),), (0,)))
        sub = sub_store_bounds(store, part, (2, 1))
        assert sub.bounds == Rect((2,), (3,))

    def test_offset_tile_clamps_to_empty(self):
        store = Store(0, Domain((4, 4)))
        sub = sub_store_bounds(store, tiling((1, 1), (1, 1)), (3, 3))
        assert sub.bounds.is_empty

    def test_rank_mismatch_raises(self):
        store = Store(0, Domain((4, 4)))
        with pytest.raises(MalformedPartitionError):
            sub_store_bounds(store, tiling((2,)), (0,))

    def test_zero_offset_tiles_disjoint_and_covering(self):
        store = Store(0, Domain((6, 6)))
        part = tiling((2, 3))
        launch = Domain((3, 2))
        seen = np.zeros((6, 6), dtype=int)
        for p in launch.points():
            rect = sub_store_bounds(store, part, p).bounds
            seen[rect.slices()] += 1
        assert (seen == 1).all()


def _union_mask(store: Store, part, launch: Domain) -> np.ndarray:
    mask = np.zeros(store.shape.extents, dtype=bool)
    for p in launch.points():
        rect = sub_store_bounds(store, part, p).bounds
        if not rect.is_empty:
            mask[rect.slices()] = True
    return mask


class TestCovers:
    def test_exact_tiling_covers(self):
        store = Store(0, Domain((4, 4)))
        assert covers(store, tiling((2, 2)), Domain((2, 2)))

    def test_shifted_tiling_misses_origin(self):
        store = Store(0, Domain((4, 4)))
        assert not covers(store, tiling((1, 1), (1, 1)), Domain((4, 4)))

    def test_replication_always_covers(self):
        store = Store(0, Domain((7, 3)))
        assert covers(store, NonePart(), Domain((1,)))

    def test_non_identity_projection_conservative(self):
        store = Store(0, Domain((4,)))
        part = Tiling((1,), (0,), ProjectionFn(((1, 0),), (0,)))
        # The union over a (4, k) launch is the whole store, but the closed
        # form declines non-identity projections; false must stay safe.
        assert not covers(store, part, Domain((4, 2)))
        assert _union_mask(store, part, Domain((4, 2))).all()

    @settings(max_examples=150, deadline=None)
    @given(
        extents=st.lists(st.integers(1, 8), min_size=1, max_size=2),
        tile=st.lists(st.integers(1, 4), min_size=1, max_size=2),
        offset=st.lists(st.integers(-2, 2), min_size=1, max_size=2),
        launch=st.lists(st.integers(1, 4), min_size=1, max_size=2),
    )
    def test_identity_tiling_agrees_with_enumeration(self, extents, tile, offset, launch):
        rank = min(len(extents), len(tile), len(offset), len(launch))
        store = Store(0, Domain(tuple(extents[:rank])))
        part = tiling(tile[:rank], offset[:rank])
        dom = Domain(tuple(launch[:rank]))
        assert covers(store, part, dom) == bool(_union_mask(store, part, dom).all())


class TestPartitionEq:
    def test_structural_identity(self):
        assert tiling((2, 2)) == tiling((2, 2))

    def test_different_tile_shapes_differ(self):
        assert tiling((2, 2)) != tiling((1, 4))

    def test_replication_never_equals_a_tiling(self):
        # Both cover a 4x4 store, but unequal reads as "may alias".
        assert NonePart() != tiling((4, 4))

    def test_partitions_built_apart_hash_and_compare_equal(self):
        a = Tiling((2, 2), (1, 1), ProjectionFn(((1, 0), (0, 1)), (0, 0)))
        b = Tiling((2, 2), (1, 1), ProjectionFn.identity(2))
        assert a is not b and a == b and hash(a) == hash(b)
        assert a.proj is not b.proj and a.proj == b.proj and hash(a.proj) == hash(b.proj)
        assert len({a, b, tiling((2, 2), (1, 1))}) == 1

    def test_replace_hashes_the_new_value(self):
        t = tiling((2,))
        moved = dataclasses.replace(t, offset=(1,))
        assert moved != t and moved == tiling((2,), (1,))
        assert hash(moved) == hash(tiling((2,), (1,))) != hash(t)
        shifted = dataclasses.replace(t.proj, offset=(3,))
        assert hash(shifted) == hash(ProjectionFn(((1,),), (3,))) != hash(t.proj)

    def test_repr_shows_only_the_fields(self):
        assert repr(tiling((16, 16), (0, 1))) == (
            "Tiling(tile=(16, 16), offset=(0, 1), "
            "proj=ProjectionFn(matrix=((1, 0), (0, 1)), offset=(0, 0)))"
        )

    def test_equal_partitions_have_equal_bounds(self):
        store = Store(0, Domain((6, 6)))
        a, b = tiling((2, 2), (1, 1)), tiling((2, 2), (1, 1))
        for p in Domain((3, 3)).points():
            assert sub_store_bounds(store, a, p) == sub_store_bounds(store, b, p)


class TestPrivileges:
    def test_join(self):
        assert join_privileges(R, W) is RW
        assert join_privileges(R, R) is R
        assert join_privileges(RW, W) is RW
        with pytest.raises(ValueError):
            join_privileges(RD, R)

    @pytest.mark.parametrize(
        "first, second",
        [(W, W), (W, RW), (RW, RW), (W, RD), (RW, RD), (RD, RD)],
        ids=lambda pr: pr.value,
    )
    def test_duplicate_effectful_args_rejected(self, first, second):
        # equal partitions that are distinct objects still name one sub-store
        with pytest.raises(ValueError, match="duplicate"):
            task("K", (2,), [(0, tiling((2,)), first), (1, NonePart(), R), (0, tiling((2,)), second)])

    @pytest.mark.parametrize("effect", [W, RW, RD], ids=lambda pr: pr.value)
    def test_read_beside_one_effectful_arg_allowed(self, effect):
        p = tiling((2,))
        t = task("K", (2,), [(0, p, R), (0, p, effect)])
        assert [a.privilege for a in t.args] == [R, effect]

    def test_effects_through_different_partitions_allowed(self):
        t = task("K", (2,), [(0, tiling((2,)), W), (0, tiling((2,), (1,)), RW)])
        assert len(t.args) == 2

    def test_duplicate_read_args_allowed(self):
        p = tiling((2,))
        t = task("DOT", (2,), [(0, p, R), (0, p, R), (1, NonePart(), RD)])
        assert len(t.args) == 3

    def test_empty_args_rejected(self):
        with pytest.raises(ValueError):
            IndexTask("K", Domain((2,)), ())


class TestScaleFreeRepresentation:
    def test_serialized_size_independent_of_launch_volume(self):
        # Extents 300, 4096 and 60000 share an integer encoding width, so any
        # size difference would reveal a term proportional to volume.
        def make(n: int) -> bytes:
            t = task(
                "ADD",
                (n,),
                [(0, tiling((2,)), R), (1, tiling((2,)), R), (2, tiling((2,)), W)],
            )
            return pickle.dumps(t)

        sizes = {len(make(n)) for n in (300, 4096, 60000)}
        assert len(sizes) == 1
