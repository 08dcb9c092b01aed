"""Greedy scale-free identification of fusible task prefixes.

Four constraints rule out any non-point-wise dependence between index tasks:
equal launch domains, no write followed by a differently-partitioned read or
write of the same store, no read followed by a differently-partitioned write,
and no store that is both reduced and read/written by distinct tasks. The
true/anti checks are a forward dataflow pass over the window; no check ever
touches individual launch-domain points.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

from .ir import (
    Domain,
    IndexTask,
    Partition,
    Privilege,
    StoreArg,
    join_privileges,
    partition_eq,
)
from .kernels import KernelRegistry


class FusionConstraint(Enum):
    LAUNCH_DOMAIN = "LaunchDomain"
    TRUE_DEP = "TrueDep"
    ANTI_DEP = "AntiDep"
    REDUCTION = "Reduction"
    NO_GENERATOR = "NoGenerator"


@dataclass(frozen=True, slots=True)
class ConstraintVerdict:
    """Why prefix growth stopped at ``blocking_task_index``."""

    constraint: FusionConstraint
    blocking_task_index: int
    store: int | None = None
    partitions: tuple[Partition, Partition] | None = None

    def rebind(self, store: Callable[[int], int], partition: Callable) -> "ConstraintVerdict":
        """The same verdict with its store and partitions mapped, e.g. to or
        from the canonical indices of a memoized window."""
        if self.store is None:  # names neither a store nor partitions
            return self
        parts = self.partitions and (partition(self.partitions[0]), partition(self.partitions[1]))
        return ConstraintVerdict(self.constraint, self.blocking_task_index, store(self.store), parts)

    def describe(self) -> str:
        msg = f"{self.constraint.value} at task {self.blocking_task_index}"
        if self.store is not None:
            msg += f" on store {self.store}"
        if self.partitions is not None:
            msg += f" partitions {self.partitions[0]} vs {self.partitions[1]}"
        return msg


@dataclass
class AnalysisStats:
    """Operation counter; must stay independent of launch-domain volume."""

    constraint_steps: int = 0


class PrefixTracker:
    """Forward dataflow state over a candidate prefix."""

    def __init__(self) -> None:
        self.domain: Domain | None = None
        self.written: dict[int, list[Partition]] = {}
        self.read: dict[int, list[Partition]] = {}
        self.reduced: set[int] = set()
        self.read_or_written: set[int] = set()

    def admit(self, task: IndexTask, index: int, stats: AnalysisStats) -> ConstraintVerdict | None:
        """Check all constraints for appending ``task``; apply effects on success."""
        stats.constraint_steps += 1
        if self.domain is None:
            self.domain = task.domain
        elif task.domain != self.domain:
            return ConstraintVerdict(FusionConstraint.LAUNCH_DOMAIN, index)

        for arg in task.args:
            stats.constraint_steps += 1
            s = arg.store
            if arg.privilege.is_read or arg.privilege.is_write:
                for p in self.written.get(s, ()):
                    stats.constraint_steps += 1
                    if not partition_eq(p, arg.partition):
                        return ConstraintVerdict(
                            FusionConstraint.TRUE_DEP, index, s, (p, arg.partition)
                        )
                if s in self.reduced:
                    return ConstraintVerdict(FusionConstraint.REDUCTION, index, s)
            if arg.privilege.is_write:
                for p in self.read.get(s, ()):
                    stats.constraint_steps += 1
                    if not partition_eq(p, arg.partition):
                        return ConstraintVerdict(
                            FusionConstraint.ANTI_DEP, index, s, (p, arg.partition)
                        )
            if arg.privilege.is_reduce and s in self.read_or_written:
                return ConstraintVerdict(FusionConstraint.REDUCTION, index, s)

        for arg in task.args:
            s = arg.store
            if arg.privilege.is_write:
                parts = self.written.setdefault(s, [])
                if not any(partition_eq(p, arg.partition) for p in parts):
                    parts.append(arg.partition)
            if arg.privilege.is_read:
                parts = self.read.setdefault(s, [])
                if not any(partition_eq(p, arg.partition) for p in parts):
                    parts.append(arg.partition)
            if arg.privilege.is_read or arg.privilege.is_write:
                self.read_or_written.add(s)
            if arg.privilege.is_reduce:
                self.reduced.add(s)


def longest_fusible_prefix(
    tasks: Sequence[IndexTask],
    registry: KernelRegistry,
    stats: AnalysisStats | None = None,
) -> tuple[int, list[ConstraintVerdict]]:
    """Largest f with all constraints holding on tasks[:f]; always f >= 1.

    Growth stops at the first violation or at the first task without a kernel
    generator (an opaque task caps the prefix before itself; if it is the
    first task it passes through alone).
    """
    if not tasks:
        raise ValueError("empty task window")
    stats = stats if stats is not None else AnalysisStats()
    verdicts: list[ConstraintVerdict] = []
    if not registry.has(tasks[0].kind):
        if len(tasks) > 1:
            verdicts.append(ConstraintVerdict(FusionConstraint.NO_GENERATOR, 0))
        return 1, verdicts
    tracker = PrefixTracker()
    tracker.admit(tasks[0], 0, stats)
    f = 1
    for i in range(1, len(tasks)):
        if not registry.has(tasks[i].kind):
            verdicts.append(ConstraintVerdict(FusionConstraint.NO_GENERATOR, i))
            break
        v = tracker.admit(tasks[i], i, stats)
        if v is not None:
            verdicts.append(v)
            break
        f = i + 1
    return f, verdicts


@dataclass
class FusedTaskPlan:
    """Recipe for replacing tasks[:prefix_len] with one fused index task."""

    prefix_len: int
    fused_task: IndexTask
    arg_map: tuple[tuple[int, ...], ...]  # per original task: arg position -> fused position


def fused_kind_name(kinds: Sequence[str]) -> str:
    seen: list[str] = []
    for k in kinds:
        if k not in seen:
            seen.append(k)
    return "FUSED_" + "_".join(seen)


def fused_scalars(prefix: Sequence[IndexTask]) -> tuple[tuple[str, float], ...]:
    """The fused task's scalars: task i's k-th scalar is named ``s{i}_{k}``."""
    return tuple(
        (f"s{i}_{k}", v) for i, t in enumerate(prefix) for k, (_, v) in enumerate(t.scalars)
    )


def build_fused_task(tasks: Sequence[IndexTask], f: int, registry: KernelRegistry) -> FusedTaskPlan:
    """Union the prefix's (store, partition) arguments with joined privileges."""
    prefix = tasks[:f]
    if f == 1:
        t = prefix[0]
        return FusedTaskPlan(1, t, (tuple(range(len(t.args))),))
    for t in prefix:
        if not registry.has(t.kind):
            raise ValueError(f"internal error: task kind {t.kind!r} has no generator")

    # (store, partition) -> (fused argument position, joined privilege)
    args: dict[tuple[int, Partition], tuple[int, Privilege]] = {}
    arg_map: list[tuple[int, ...]] = []
    for t in prefix:
        positions = []
        for a in t.args:
            key = (a.store, a.partition)
            j, priv = args.get(key, (len(args), None))
            args[key] = (j, a.privilege if priv is None else join_privileges(priv, a.privilege))
            positions.append(j)
        arg_map.append(tuple(positions))

    fused = IndexTask(
        fused_kind_name([t.kind for t in prefix]),
        prefix[0].domain,
        tuple(StoreArg(s, p, priv) for (s, p), (_, priv) in args.items()),
        fused_scalars(prefix),
    )
    return FusedTaskPlan(f, fused, tuple(arg_map))
