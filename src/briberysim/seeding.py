"""Deterministic seed fan-out.

Every random draw in this package is rooted in a single user-supplied seed.
Sub-seeds are derived by hashing the root seed together with a label path
(e.g. ("task", 3, "run", 17)), so results are reproducible across runs,
platforms, and parallel execution orders.
"""

from __future__ import annotations

import hashlib


def derive_seed(root: int, *path: int | str) -> int:
    """Derive a 64-bit child seed from a root seed and a label path."""
    text = "/".join((str(int(root)), *map(str, path)))
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")
