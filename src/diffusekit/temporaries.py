"""Detection of stores made temporary by fusion.

A store is temporary in a fused prefix when every read of it inside the
prefix is through a covering partition that an earlier task of the prefix
wrote, no buffered task after the prefix reads or reduces it, and the
application holds no live reference. Such stores are demoted to task-local
buffers and never materialize as distributed data. One forward pass over the
prefix and one over the tasks after it decide every store at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .ir import IndexTask, Privilege, StoreTable, covers


class RefUnderflowError(ValueError):
    """A reference was dropped more times than it was held."""


@dataclass
class RefState:
    """A store's references: ``app_live``, the set of stores the application
    holds, and ``runtime_refs``, per store the number of buffered task
    arguments that name it. The call that leaves a store in neither reports
    it, once."""

    app_live: set[int] = field(default_factory=set)
    runtime_refs: dict[int, int] = field(default_factory=dict)

    def drop_app_ref(self, store_id: int) -> bool:
        """Drop the application's reference; returns whether no reference of
        either kind holds the store any more."""
        if store_id not in self.app_live:
            raise RefUnderflowError(f"application reference underflow on store {store_id}")
        self.app_live.remove(store_id)
        return store_id not in self.runtime_refs

    def acquire_runtime(self, store_ids: Iterable[int]) -> None:
        """One more runtime reference to each of ``store_ids``."""
        refs = self.runtime_refs
        for s in store_ids:
            refs[s] = refs.get(s, 0) + 1

    def release_runtime(self, store_ids: Iterable[int]) -> list[int]:
        """One runtime reference fewer to each of ``store_ids``; returns
        those that no reference holds any more, each once. A count that
        reaches zero leaves ``runtime_refs``, so it holds only held stores."""
        refs, dead = self.runtime_refs, []
        for s in store_ids:
            n = refs.get(s, 0)
            if n > 1:
                refs[s] = n - 1
            elif n == 1:
                del refs[s]
                if s not in self.app_live:
                    dead.append(s)
            else:
                raise RefUnderflowError(f"runtime reference underflow on store {s}")
        return dead


def find_temporaries(
    tasks: Sequence[IndexTask], f: int, live: set[int], stores: StoreTable
) -> set[int]:
    """Stores demotable to task-local buffers in the fusion of tasks[:f].

    ``tasks[f:]`` is what the runtime knows will follow the prefix. A store
    that is only written after the prefix is still demotable; the later write
    re-creates its distributed state. A task's own writes count only for the
    tasks after it. ``live`` holds the stores the application holds.
    """
    launch = tasks[0].domain
    named: set[int] = set()
    kept: set[int] = set()
    written: set[tuple] = set()  # (store, partition) pairs written by earlier tasks
    for t in tasks[:f]:
        for s, part, priv in t.args:
            named.add(s)
            if priv.is_read and (
                (s, part) not in written or not covers(stores[s], part, launch)
            ):
                kept.add(s)
        written.update((s, part) for s, part, priv in t.args if priv.is_write)
    for t in tasks[f:]:
        kept.update(s for s, _, priv in t.args if priv is not Privilege.WRITE)
    return named - kept - live
