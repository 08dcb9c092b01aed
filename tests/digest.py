"""Same-results digest: what the engine decided and computed, as text.

    PYTHONPATH=src python tests/digest.py > tests/digest_golden.txt

For each of the four ``trace.BENCHMARKS`` (6 iterations, default sizes) at
windows 2, 10 and 67, analysis-only and executed, it prints per flush the
fused prefixes, demoted temporaries, memo hits and misses, constraint steps,
loads and stores, ``kernel_stats`` and verdict text; then ``final_window``,
``memo_entries`` (how many keys the run memoized), the sorted
``kernel_text`` of every memoized kernel, and a sha256 of every heap array. It then prints every run again with the memo off
(``memoize=False``), where every flush analyses its window afresh. A change
that only makes the engine faster leaves the output byte-identical;
``test_digest.py`` compares it with the committed golden.
"""

from __future__ import annotations

import hashlib
import sys
from typing import Iterator

from diffusekit.kernels import kernel_text
from diffusekit.pipeline import Session, SessionConfig, run_events
from diffusekit.trace import BENCHMARKS, gen_benchmark

ITERS = 6
WINDOWS = (2, 10, 67)


def digest_run(name: str, window: int, execute: bool, memoize: bool = True) -> Iterator[str]:
    session = Session(SessionConfig(window=window, execute=execute, memoize=memoize))
    report = run_events(session, gen_benchmark(name, iters=ITERS))
    yield f"== {name} window={window} execute={execute}" + ("" if memoize else " memoize=False")
    for i, fr in enumerate(report.per_flush):
        yield (
            f"flush {i} explicit={fr.explicit} prefixes={fr.fused_prefixes} "
            f"temps={fr.temporaries} hits={fr.memo_hits} misses={fr.memo_misses} "
            f"steps={fr.constraint_steps} loads={fr.loads} stores={fr.stores} "
            f"kernels={fr.kernel_stats}"
        )
        for v in fr.verdicts:
            yield f"  stopped by {v.describe()}"
    yield f"final_window {report.final_window}"
    yield f"memo_entries {len(session.memo)}"
    texts = sorted(
        kernel_text(c.kernel)
        for carves, _ in session.memo._entries.values()
        for c in carves
        if c.kernel is not None
    )
    for text in texts:
        yield text
    for s in sorted(session.heap.arrays):
        yield f"heap {s} {hashlib.sha256(session.heap.arrays[s].tobytes()).hexdigest()}"


def digest() -> Iterator[str]:
    for memoize in (True, False):
        for name in BENCHMARKS:
            for window in WINDOWS:
                for execute in (False, True):
                    yield from digest_run(name, window, execute, memoize)


if __name__ == "__main__":
    for line in digest():
        sys.stdout.write(line + "\n")
