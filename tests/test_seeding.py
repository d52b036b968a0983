"""Tests for the seed fan-out: `derive_seed` is pinned to literal integers,
since every report byte and every stream hangs on it."""

import hashlib

import pytest

from briberysim.seeding import derive_seed

PINS = [
    ((0,), "0", 6912158355717386040),
    ((42, "task", 0), "42/task/0", 3116176218479124063),
    ((42, "sim-run", 2, 99), "42/sim-run/2/99", 1062504423678962950),
    ((7, "instance", 999), "7/instance/999", 3033119892420141400),
    ((-3, "claims", "T1"), "-3/claims/T1", 7724203581879937977),
    ((2**70, "race", "short", 0), f"{2**70}/race/short/0", 6910236542933425697),
]


@pytest.mark.parametrize("args, text, seed", PINS, ids=[text for _, text, _ in PINS])
def test_derive_seed_pinned(args, text, seed):
    assert derive_seed(*args) == seed
    # the seed is the first 8 bytes of the label path's sha256, read big-endian
    assert int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big") == seed
