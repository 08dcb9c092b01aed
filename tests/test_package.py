"""The package's public surface."""

from __future__ import annotations

import diffusekit


def test_every_export_resolves():
    missing = [name for name in diffusekit.__all__ if not hasattr(diffusekit, name)]
    assert missing == []
