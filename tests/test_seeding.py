"""Tests for the seed fan-out: `derive_seed` is pinned to literal integers,
since every report byte and every stream hangs on it."""

import hashlib
import random
from itertools import islice

import pytest

from briberysim.seeding import derive_seed, derived_seeds

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


def test_derived_seeds_pinned():
    assert next(islice(derived_seeds(7, "instance"), 999, None)) == 3033119892420141400
    assert next(islice(derived_seeds(42, "sim-run", 2), 99, None)) == 1062504423678962950


@pytest.mark.parametrize("args", [args for args, _, _ in PINS], ids=[text for _, text, _ in PINS])
def test_derived_seeds_follow_derive_seed(args):
    # each pinned label path, as the prefix of 2,000 indexed paths
    seeds = list(islice(derived_seeds(*args), 2000))
    assert seeds == [derive_seed(*args, index) for index in range(2000)]


@pytest.mark.parametrize("seed", [seed for _, _, seed in PINS] + [0, 1, 2**64 - 1])
def test_reseeding_through_the_c_seed_gives_a_fresh_generator(seed):
    # the verifier and the sim runs reseed one generator per instance or run
    # by the seed that `Random.seed` hands an int to
    used = random.Random(seed ^ 1)
    used.random(), used.getrandbits(64 * 7), used.gauss(0, 1)
    super(random.Random, used).seed(seed)
    fresh = random.Random(seed)
    assert [used.getrandbits(32) for _ in range(1000)] == [fresh.getrandbits(32) for _ in range(1000)]
    assert [used.random() for _ in range(1000)] == [fresh.random() for _ in range(1000)]
