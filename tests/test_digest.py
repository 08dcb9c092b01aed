"""The digest of ``digest.py`` matches the committed golden, byte for byte.

The golden was recorded before the memo hit path was cut down, and its
memo-off runs before fresh analysis was cut down, so this test shows that
fused prefixes, temporaries, memo decisions, verdict text, ``kernel_text``
and heap bytes stayed the same. Regenerate it only for a
change meant to alter results:

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
