"""Deterministic seed fan-out.

Every random draw in this package is rooted in a single user-supplied seed.
Sub-seeds are derived by hashing the root seed together with a label path
(e.g. ("task", 3, "run", 17)), so results are reproducible across runs,
platforms, and parallel execution orders.
"""

from __future__ import annotations

from hashlib import sha256
from itertools import count
from typing import Iterator


def _seed(text: str) -> int:
    """The seed of a label text: the first 8 bytes of its sha256, read big-endian."""
    return int.from_bytes(sha256(text.encode("utf-8")).digest()[:8], "big")


def derive_seed(root: int, *path: int | str) -> int:
    """Derive a 64-bit child seed from a root seed and a label path."""
    return _seed("/".join((str(int(root)), *map(str, path))))


def derived_seeds(root: int, *path: int | str) -> Iterator[int]:
    """`derive_seed(root, *path, i)` for i = 0, 1, 2, ... without end.

    The label text up to the index is built once; each seed then costs one
    concatenation and one sha256.
    """
    prefix = "/".join((str(int(root)), *map(str, path))) + "/"
    for index in count():
        yield _seed(prefix + str(index))
