"""Greedy scale-free identification of fusible task prefixes.

Four constraints rule out any non-point-wise dependence between index tasks:
equal launch domains, no write followed by a differently-partitioned read or
write of the same store, no read followed by a differently-partitioned write,
and no store that is both reduced and read/written, by one task or by
distinct tasks. The true/anti checks are a forward dataflow pass over the
window; no check ever touches individual launch-domain points. A fused
prefix's arguments are the union of its (store, partition) pairs, each with
its privileges joined once.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .ir import Domain, IndexTask, Partition, Privilege, join_privileges
from .kernels import KernelRegistry


class FusionConstraint(Enum):
    LAUNCH_DOMAIN = "LaunchDomain"
    TRUE_DEP = "TrueDep"
    ANTI_DEP = "AntiDep"
    REDUCTION = "Reduction"
    NO_GENERATOR = "NoGenerator"


@dataclass(frozen=True, slots=True)
class ConstraintVerdict:
    """Why prefix growth stopped at ``blocking_task_index``.

    ``argument`` is the index of the blocking argument in that task; for
    TrueDep and AntiDep, ``earlier`` is the (task, argument) position of the
    first argument that named the partition it conflicts with. Both count
    from the window's first task. ``store`` and ``partitions`` are what those
    positions name: the analysis leaves them None, and a launch reads them
    from its window.
    """

    constraint: FusionConstraint
    blocking_task_index: int
    store: int | None = None
    partitions: tuple[Partition, Partition] | None = None
    argument: int | None = None
    earlier: tuple[int, int] | None = None

    def describe(self) -> str:
        msg = f"{self.constraint.value} at task {self.blocking_task_index}"
        if self.store is not None:
            msg += f" on store {self.store}"
        if self.partitions is not None:
            msg += f" partitions {self.partitions[0]} vs {self.partitions[1]}"
        return msg


class PrefixTracker:
    """Forward dataflow state over a candidate prefix. ``written`` and
    ``read`` map each store to its partitions, each with the (task,
    argument) position of the first argument that named it. ``steps``
    counts the constraint checks made: one per task, argument and
    partition compared. It must not depend on launch-domain volume."""

    def __init__(self) -> None:
        self.domain: Domain | None = None
        self.written: dict[int, dict[Partition, tuple[int, int]]] = {}
        self.read: dict[int, dict[Partition, tuple[int, int]]] = {}
        self.reduced: set[int] = set()
        self.steps = 0

    def admit(self, task: IndexTask, index: int) -> ConstraintVerdict | None:
        """Check all constraints for appending ``task``; apply effects on success."""
        self.steps += 1
        if self.domain is None:
            self.domain = task.domain
        elif task.domain != self.domain:
            return ConstraintVerdict(FusionConstraint.LAUNCH_DOMAIN, index)

        for k, arg in enumerate(task.args):
            self.steps += 1
            s = arg.store
            if arg.privilege.is_read or arg.privilege.is_write:
                for p, at in self.written.get(s, {}).items():
                    self.steps += 1
                    if p != arg.partition:
                        return ConstraintVerdict(
                            FusionConstraint.TRUE_DEP, index, argument=k, earlier=at
                        )
                if s in self.reduced:
                    return ConstraintVerdict(FusionConstraint.REDUCTION, index, argument=k)
            if arg.privilege.is_write:
                for p, at in self.read.get(s, {}).items():
                    self.steps += 1
                    if p != arg.partition:
                        return ConstraintVerdict(
                            FusionConstraint.ANTI_DEP, index, argument=k, earlier=at
                        )
            if arg.privilege.is_reduce and (
                s in self.written
                or s in self.read
                or any(b.store == s and not b.privilege.is_reduce for b in task.args)
            ):
                return ConstraintVerdict(FusionConstraint.REDUCTION, index, argument=k)

        for k, arg in enumerate(task.args):
            s = arg.store
            if arg.privilege.is_write:
                self.written.setdefault(s, {}).setdefault(arg.partition, (index, k))
            if arg.privilege.is_read:
                self.read.setdefault(s, {}).setdefault(arg.partition, (index, k))
            if arg.privilege.is_reduce:
                self.reduced.add(s)


def longest_fusible_prefix(
    tasks: Sequence[IndexTask], registry: KernelRegistry
) -> tuple[int, list[ConstraintVerdict], int]:
    """Largest f with all constraints holding on tasks[:f], always f >= 1,
    the verdicts that stopped growth, and the constraint steps taken, which
    the caller reports.

    Growth stops at the first violation or at the first task without a kernel
    generator (an opaque task caps the prefix before itself). A first task
    that stops growth, being opaque or reducing a store it also reads or
    writes, passes through alone; its verdict is kept unless it is the only
    task.
    """
    if not tasks:
        raise ValueError("empty task window")
    tracker = PrefixTracker()
    for i, task in enumerate(tasks):
        if registry.has(task.kind):
            v = tracker.admit(task, i)
        else:
            v = ConstraintVerdict(FusionConstraint.NO_GENERATOR, i)
        if v is not None:
            return max(i, 1), [v] if len(tasks) > 1 else [], tracker.steps
    return len(tasks), [], tracker.steps


def fused_kind_name(kinds: Sequence[str]) -> str:
    seen: list[str] = []
    for k in kinds:
        if k not in seen:
            seen.append(k)
    return "FUSED_" + "_".join(seen)


def build_fused_task(
    tasks: Sequence[IndexTask], f: int
) -> tuple[str, tuple[tuple[int, int, Privilege], ...], tuple[tuple[int, ...], ...]]:
    """The fusion of tasks[:f], f >= 2: its kind, its arguments and, per task,
    the fused position of each of its arguments.

    A fused argument is one (store, partition) pair of the prefix, given as
    the (task, argument) position of the first argument naming the pair and
    the pair's joined privilege: a ``Carve``'s ``args`` as they are.
    """
    prefix = tasks[:f]
    fused: dict[tuple[int, Partition], int] = {}  # (store, partition) -> fused position
    args: list[tuple[int, int, Privilege]] = []
    arg_map: list[tuple[int, ...]] = []
    for i, t in enumerate(prefix):
        positions = []
        for k, a in enumerate(t.args):
            j = fused.setdefault((a.store, a.partition), len(args))
            if j == len(args):
                args.append((i, k, a.privilege))
            else:
                args[j] = (*args[j][:2], join_privileges(args[j][2], a.privilege))
            positions.append(j)
        arg_map.append(tuple(positions))
    return fused_kind_name([t.kind for t in prefix]), tuple(args), tuple(arg_map)
