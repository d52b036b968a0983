"""The generator layout that the fork-race kernel rests on, checkable without pytest.

`random.Random.getrandbits(64 * m)` fills its result with 32-bit words from
the least significant end, in the order that `random()` draws them. So the
little-endian bytes of that integer hold m pairs of words (w0, w1), and the
j-th pair is the pair that the j-th of m `random()` calls would consume:

    random() == ((w0 >> 5) * 2**26 + (w1 >> 6)) * 2**-53

Byte 8j+3, the top byte of w0, is then floor(256 * random()). After the
bulk draw the generator is where the m calls would leave it, so the next
`random()` agrees too. `chainsim.run_attack_detailed` reads its slots this
way.

The randomized verifier and the seeded sim runs each keep one generator and
reseed it per instance or run through the C seed that `Random.seed` hands
an int to, `super(random.Random, rng).seed(seed)`. That replaces the whole
generator state, so after any earlier draws the generator yields the stream
of a fresh `random.Random(seed)`. Run this file under each supported
interpreter to check both there:

    python3 tests/stream_layout.py
"""

from __future__ import annotations

import random
import struct
import sys

SEEDS = range(200)
CHUNK_SIZES = (1, 2, 3, 7, 16, 35, 100, 1000, 4096)


def layout_mismatches(seeds=SEEDS, chunk_sizes=CHUNK_SIZES) -> list[tuple[int, int]]:
    """The (seed, m) pairs for which a bulk draw of m slots disagrees with m
    `random()` calls: in a float, in a top byte, or in the next `random()`."""
    mismatches = []
    for seed in seeds:
        for m in chunk_sizes:
            bulk, single = random.Random(seed), random.Random(seed)
            raw = bulk.getrandbits(64 * m).to_bytes(8 * m, "little")
            expected = [single.random() for _ in range(m)]
            words = struct.unpack(f"<{2 * m}I", raw)
            floats = [
                ((w0 >> 5) * 67108864.0 + (w1 >> 6)) * (1.0 / 9007199254740992.0)
                for w0, w1 in zip(words[::2], words[1::2])
            ]
            top_bytes = [int(x * 256) for x in expected]
            if (
                floats != expected
                or list(raw[3::8]) != top_bytes
                or bulk.random() != single.random()
            ):
                mismatches.append((seed, m))
    return mismatches


def reseed_mismatches(seeds=SEEDS, words: int = 100) -> list[int]:
    """The seeds for which a generator reseeded through the C seed, after
    earlier draws, disagrees with a fresh `random.Random(seed)` in its next
    `words` 32-bit words or its `random()` floats after them."""
    mismatches = []
    used = random.Random(-1)
    for seed in seeds:
        used.getrandbits(64 * (seed % 7 + 1)), used.random()  # draws made before the reseed
        super(random.Random, used).seed(seed)
        fresh = random.Random(seed)
        if (
            [used.getrandbits(32) for _ in range(words)] != [fresh.getrandbits(32) for _ in range(words)]
            or [used.random() for _ in range(words)] != [fresh.random() for _ in range(words)]
        ):
            mismatches.append(seed)
    return mismatches


if __name__ == "__main__":
    bad = layout_mismatches()
    version = sys.version.split()[0]
    if bad:
        print(f"CPython {version}: layout mismatch at (seed, m) {bad[:5]}")
        sys.exit(1)
    print(f"CPython {version}: {len(SEEDS) * len(CHUNK_SIZES)} bulk draws match random()")
    bad = reseed_mismatches()
    if bad:
        print(f"CPython {version}: a reseeded generator differs from a fresh one at seeds {bad[:5]}")
        sys.exit(1)
    print(f"CPython {version}: {len(SEEDS)} reseeded generators match fresh ones")
