"""The digest of ``digest.py`` matches the committed golden, byte for byte.

The golden was recorded before the memo hit path was cut down, and its
memo-off runs before fresh analysis was cut down, so this test shows that
fused prefixes, temporaries, memo decisions, verdict text, ``kernel_text``
and heap bytes stayed the same. It was regenerated when a capacity flush
whose whole buffer fuses began to grow the window instead of launching;
every heap line stayed the same. It was regenerated again when a flush began
to look up only its whole buffer, which moved only memo hits, misses and
constraint steps, dropped duplicate memoized kernels and added the
``memo_entries`` lines. It was regenerated when ``memo_hits`` began to
count hit flushes rather than their launched carves, which moved only the
``hits=`` fields. Regenerate it only for a change meant to alter results:

    PYTHONPATH=src python tests/digest.py > tests/digest_golden.txt
"""

from __future__ import annotations

from pathlib import Path

from digest import digest

GOLDEN = Path(__file__).with_name("digest_golden.txt")


def test_digest_matches_golden():
    got = "".join(line + "\n" for line in digest()).splitlines(keepends=True)
    want = GOLDEN.read_text(encoding="utf-8").splitlines(keepends=True)
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"golden line {i + 1} differs"
