"""Double-spend fork simulation.

Desk-scale model of the malicious protocol: a payment lands in the first
block after genesis; once that block is buried under the required number of
confirmations, colluding nodes (minions) abandon the canonical chain and
work on a fork rooted at the target block's parent, reverting the payment
if the fork wins.

Block production is one block per slot, the producer drawn with probability
equal to its power share (Proof-of-Work hash rate and Proof-of-Stake stake
are both abstracted this way): node i owns the interval of [0, 1) between
the cumulative shares before and after it, and the last boundary is exactly
1, so every draw of `random()`, which lies in [0, 1), names a node. Honest
nodes always extend the longest chain they have, keeping their current
chain on ties (first-seen), so the fork must become strictly longer to win.

Every block before the trigger is honest, so the payment (slot 0, height 1)
gets its k-th confirmation in slot k-1 whoever produces the blocks: the
trigger always falls at slot k-1, with the honest tip k blocks ahead of the
fork root, and the race proper starts at slot k.

Two consensus flavors:

* longest-chain (PoW): the race alone decides; success probabilities obey
  the gambler's-ruin closed form (see `catch_up_probability`).
* deposit-slashing (PoS): working the fork means signing a second block at
  an already-signed height, a slashable offense. Every fork block by a
  minion is counted as a double-sign and spawns a slashing proof; honest
  producers include all pending proofs in their blocks, minions never do.
  The fork wins only if minion power exceeds the endorsement threshold t
  (`PowerDistribution.exceeds`) and the fork outgrows the honest chain. No
  separate endorsement window is needed: the honest chain is k blocks high
  when the fork starts and only grows, so a strictly longer fork holds at
  least k + 1 blocks, endorsed over at least k + 1 post-confirmation slots.
  When the fork wins, the honest blocks carrying the proofs are reverted with
  the rest, so no proof survives on the final chain.

How a slot's producer is drawn. Each slot is one `random()` of the seeded
generator: `random()` takes two 32-bit words w0, w1 and returns
((w0 >> 5) * 2**26 + (w1 >> 6)) / 2**53. `getrandbits(64 * m)` draws the
same 2m words in the same order and stores the first in its lowest bits,
so `getrandbits(64 * m).to_bytes(8 * m, "little")` holds slot j's words at
bytes 8j to 8j+7 and leaves the generator where m `random()` calls would
(`tests/stream_layout.py` checks this on each interpreter). Byte 8j+3, the
top byte of w0, is floor(256 * x) for slot j's draw x, so one translate
through a 256-entry table maps every slot of a chunk to its producer: entry
b names the node owning all of [b/256, (b+1)/256). Where a boundary falls
strictly inside that interval, or the node is 255 or above, the entry is
unresolved, and the slot's producer comes from its exact float as above and
`bisect_right`, the very computation a `random()` per slot makes. Either
way every slot gets the producer that one `random()` per slot would give.

What a run keeps. The slots drawn until the race ends form the slot record:
each slot's producer as a byte (`UNRESOLVED` for a producer of 255 or above,
kept in a dict by slot) and its flag (`FORK` for a minion's race slot, 0 for
any other slot, so pre-trigger slots too): two bytes per slot, held until the
run ends, so a race lost at a horizon of h slots holds about 2h bytes. The chunk loop only fills it and
finds the winning slot; block counts, slashing proofs and the trace are each
read from it once afterwards (see `run_attack_detailed`).
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, count
from operator import indexOf, sub
from struct import unpack_from
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .games import NodeId, PowerDistribution
from .rational import check_fields, format_rational, parse_int, parse_rational, parse_rational_list


class Consensus(Enum):
    POW_LONGEST_CHAIN = "pow_longest_chain"
    POS_SLASHING = "pos_slashing"


@dataclass(frozen=True)
class SimConfig:
    powers: PowerDistribution
    minions: frozenset[NodeId]
    consensus: Consensus
    confirmations: int
    horizon_slots: int
    rng_seed: int
    threshold_t: Fraction = Fraction(1, 2)  # PoS endorsement threshold

    def __post_init__(self):
        object.__setattr__(self, "minions", frozenset(self.minions))
        for name in ("confirmations", "horizon_slots", "rng_seed"):
            object.__setattr__(self, name, parse_int(getattr(self, name), f"sim config: {name}"))
        object.__setattr__(self, "threshold_t", parse_rational(self.threshold_t, "sim config: threshold_t"))
        if not self.powers.is_normalized():
            raise ValueError("sim config: powers must be positive and sum to exactly 1")
        if self.confirmations < 1:
            raise ValueError("sim config: confirmations must be >= 1")
        if self.horizon_slots <= 0:
            raise ValueError("sim config: horizon_slots must be > 0")
        if any(i < 0 or i >= self.powers.n for i in self.minions):
            raise ValueError("sim config: minions must be node indices")


class AttackResult(NamedTuple):
    success: bool
    slots_elapsed: int
    fork_length: int
    reverted_blocks: int
    per_node_blocks_canonical: dict[NodeId, int]
    consensus: Consensus
    slashing_proofs_censored: int = 0
    double_signs: Mapping[NodeId, int] = MappingProxyType({})  # read-only, so sharing it is safe

    def to_payload(self) -> dict:
        return {
            "success": self.success,
            "slots_elapsed": self.slots_elapsed,
            "fork_length": self.fork_length,
            "reverted_blocks": self.reverted_blocks,
            "per_node_blocks_canonical": {
                str(i): c for i, c in sorted(self.per_node_blocks_canonical.items())
            },
            "consensus": self.consensus.value,
            "slashing_proofs_censored": self.slashing_proofs_censored,
            "double_signs": {str(i): c for i, c in sorted(self.double_signs.items())},
        }


# a trace row is a plain tuple in this column order; chain is "canonical" or
# "fork", event is "target", "trigger", "success" or ""
TRACE_COLUMNS = ("slot", "producer", "chain", "height", "event")


class SimRun(NamedTuple):
    result: AttackResult
    trace: tuple[tuple[int, NodeId, str, int, str], ...]


def catch_up_probability(minion_share: Fraction, deficit: int) -> Fraction:
    """Gambler's-ruin closed form for the post-confirmation race.

    Each post-confirmation slot goes to the fork with probability p =
    minion_share and to the honest chain with probability q = 1 - p; the
    probability that the fork ever closes a gap of `deficit` net blocks is
    (p/q)^deficit for p < q and 1 otherwise. In this simulation's geometry
    the fork starts `confirmations` blocks behind and must end strictly
    ahead, so winning means closing a deficit of confirmations + 1.
    """
    minion_share = parse_rational(minion_share, "minion_share")
    if deficit < 0:
        raise ValueError("deficit must be >= 0")
    if minion_share >= Fraction(1, 2):
        return Fraction(1)
    ratio = minion_share / (1 - minion_share)
    return ratio**deficit


# a slot's producer is read from the top byte of its first generator word: the
# bucket table maps each byte to its producer, or to UNRESOLVED where a power
# boundary falls inside the byte's 1/256 of [0, 1) or the producer is >= 255
UNRESOLVED = 255
FORK = 2  # a minion slot's flag (0 otherwise): a slot moves the fork's lead by its flag - 1
MIN_CHUNK = 16  # slots drawn at least per chunk while the fork can still win
MAX_CHUNK = 4096  # slots drawn at most per chunk, bounding its memory


@lru_cache(maxsize=32)
def _slot_tables(weights: tuple[int, ...], minions: frozenset[NodeId]):
    """The producer boundaries, the bucket and flag tables (byte -> producer,
    producer -> FORK for a minion, else 0), each node's minion flag and the
    minions below UNRESOLVED, of one network and minion set.

    Node i owns [b_{i-1}, b_i) of [0, 1), the boundaries being the
    cumulative weights over their (normalized) sum: int / int rounds
    correctly, as float(Fraction) does, and the last boundary is exactly
    1.0, so `bisect_right(boundaries, x)` names a node for every x in
    [0, 1). Bucket b, [b/256, (b+1)/256), names one node for all its x
    unless a boundary lies strictly inside it.
    """
    scale = sum(weights)
    boundaries = [acc / scale for acc in accumulate(weights)]
    boundaries[-1] = 1.0
    buckets = bytearray(256)
    for b in range(256):
        producer = bisect_right(boundaries, b / 256)
        inside = bisect_left(boundaries, (b + 1) / 256) != producer
        buckets[b] = UNRESOLVED if inside or producer >= UNRESOLVED else producer
    counted_minions = tuple(sorted(i for i in minions if i < UNRESOLVED))
    flags = bytearray(256)
    for i in counted_minions:
        flags[i] = FORK
    is_minion = tuple(i in minions for i in range(len(weights)))
    # immutable: every run of this network shares them
    return tuple(boundaries), bytes(buckets), bytes(flags), is_minion, counted_minions


def run_attack_detailed(config: SimConfig, record_trace: bool = False) -> SimRun:
    """Run one seeded attack simulation, optionally keeping the per-slot trace
    (one row per slot, a plain tuple in `TRACE_COLUMNS` order)."""
    return _race(config, random.Random(config.rng_seed), record_trace)


def run_attack(config: SimConfig) -> AttackResult:
    """Run one seeded attack simulation; deterministic in the config."""
    return _race(config, random.Random(config.rng_seed), False).result


def _race(config: SimConfig, rng: random.Random, record_trace: bool) -> SimRun:
    """The race of `config` on the draws of `rng`, a generator seeded for this
    run, which stands in for `config.rng_seed`: runs that differ only in
    their seed share one config, and may share one generator reseeded per run.

    The race needs only height counters. The payment lands in slot 0 at
    height 1 and gets its k-th confirmation in slot k-1, the trigger, where
    the minions fork from genesis; so slots 0 to k-1 extend the honest chain
    whoever produces them. From slot k on each slot extends the fork (a
    minion producer) or the honest chain (anyone else), and only a fork
    block can end the race.

    Slots are drawn in chunks of one `getrandbits` call each, the first chunk
    holding the pre-trigger slots too. The chunk loop only draws, appends each
    slot's producer and flag to the slot record (see the module docstring) and
    finds the winning slot: the fork's running lead over a chunk is the sum of
    its flags minus its length. A chunk is at least as long as the honest
    chain's lead, so while the lead is that long the fork cannot win inside it
    and that walk is skipped. After the loop each result is read once from
    the record: a node's fork blocks are its race slots, its canonical blocks
    the others on a lost race (a won one reverts them), the PoS proofs
    censored the fork blocks after the last honest one, and the trace one row
    per slot.
    """
    getrandbits = rng.getrandbits
    n = config.powers.n
    boundaries, buckets, flag_table, is_minion, counted_minions = _slot_tables(
        config.powers.weights, config.minions
    )

    k = config.confirmations
    horizon = config.horizon_slots
    pos = config.consensus is Consensus.POS_SLASHING
    can_win = not pos or config.powers.exceeds(config.minions, config.threshold_t)
    early = min(k, horizon)  # slots 0 to k-1, or fewer if the horizon ends first
    producers, flags = bytearray(), bytearray()  # the record of every counted slot
    big = {}  # slot -> its producer, where that is UNRESOLVED or above
    fork_height = 0  # the honest height is slot - fork_height
    success = False
    slot = 0  # the next chunk's first slot
    while slot < horizon:
        pending = early - slot if slot < early else 0  # pre-trigger slots left to draw
        behind = slot - 2 * fork_height + pending  # honest lead once the race runs
        if can_win:
            m = pending + (behind if behind > MIN_CHUNK else MIN_CHUNK)
        else:
            m = MAX_CHUNK  # the race is only counted
        m = min(m, MAX_CHUNK, horizon - slot)
        raw = getrandbits(64 * m).to_bytes(8 * m, "little")
        drawn = raw[3::8].translate(buckets)
        marks = drawn.translate(flag_table)  # 0 for UNRESOLVED, patched below
        j = drawn.find(UNRESOLVED)
        if j >= 0:
            drawn, marks = bytearray(drawn), bytearray(marks)
            while j >= 0:
                w0, w1 = unpack_from("<2I", raw, 8 * j)
                # the float random() makes of the same two words
                x = ((w0 >> 5) * 67108864.0 + (w1 >> 6)) * (1.0 / 9007199254740992.0)
                producer = bisect_right(boundaries, x)
                if producer < UNRESOLVED:
                    drawn[j] = producer
                else:
                    big[slot + j] = producer
                if is_minion[producer]:
                    marks[j] = FORK
                j = drawn.find(UNRESOLVED, j + 1)
        if pending:  # a pre-trigger slot extends the honest chain whoever makes it
            marks = bytes(min(pending, m)) + marks[pending:]

        end = m  # slots of this chunk that count
        if can_win and m > behind + pending:
            # the fork's lead gained after each slot; the sentinel after the
            # last slot stands for "not in this chunk"
            target = behind - pending + 1
            lead = map(sub, accumulate(marks), count(1))
            won = indexOf(chain(lead, (target,)), target)
            if won < m:
                end = won + 1
                success = True
        producers += drawn[:end]
        flags += marks[:end]
        fork_height += marks.count(FORK, 0, end)
        slot += end
        if success:
            break

    if big:
        big = {s: producer for s, producer in big.items() if s < slot}
    # a minion's race blocks are on the fork; every other block is honest,
    # and canonical unless the fork won
    canonical, fork_blocks = [0] * n, [0] * n
    for i in counted_minions:
        fork_blocks[i] = producers.count(i, early)
    if not success:
        for i in range(min(n, UNRESOLVED)):
            # a minion's canonical blocks are its pre-trigger ones
            canonical[i] = producers.count(i, 0, early if is_minion[i] else slot)
    for s, producer in big.items():
        if flags[s]:
            fork_blocks[producer] += 1
        else:
            canonical[producer] += 1
    double_signs: dict[NodeId, int] = {}
    censored = 0
    if pos:
        double_signs = {i: c for i, c in enumerate(fork_blocks) if c}
        # the next honest block includes every pending proof; a winning fork
        # reverts every honest block, and the proofs in them. Slot 0 is
        # pre-trigger (confirmations >= 1), so the rfind below is never -1
        censored = fork_height if success else flags.count(FORK, flags.rfind(0))
    trace = []
    if record_trace:
        names = list(producers)
        for s, producer in big.items():
            names[s] = producer
        honest = fork = 0
        for s, producer, flag in zip(count(), names, flags):
            if flag:
                fork += 1
                trace.append((s, producer, "fork", fork, ""))
            else:
                honest += 1
                trace.append((s, producer, "canonical", honest, ""))
        trace[0] = trace[0][:4] + ("target",)
        if 1 < k <= horizon:
            trace[k - 1] = trace[k - 1][:4] + ("trigger",)
        if success:
            trace[-1] = trace[-1][:4] + ("success",)
    result = AttackResult(
        success=success,
        slots_elapsed=slot,
        fork_length=fork_height,
        reverted_blocks=slot - fork_height if success else 0,
        per_node_blocks_canonical=dict(enumerate(fork_blocks if success else canonical)),
        consensus=config.consensus,
        slashing_proofs_censored=censored,
        double_signs=double_signs,
    )
    return SimRun(result=result, trace=tuple(trace))


def parse_consensus(value: object, field: str) -> Consensus:
    """The consensus named `value`; otherwise a ValueError names `field` and the valid names."""
    try:
        return Consensus(value)
    except ValueError:
        raise ValueError(f"{field}: {value!r} is not one of {[c.value for c in Consensus]}") from None


def sim_config_from_payload(doc: dict, context: str = "sim") -> SimConfig:
    """Parse a sim config document, naming the missing, invalid or unknown field on error.

    `rng_seed` (default 0) and `threshold_t` (default 1/2) may be left out.
    Each minion is a node index, listed once.
    """
    required = ("powers", "minions", "consensus", "confirmations", "horizon_slots")
    check_fields(doc, required, ("rng_seed", "threshold_t"), context)
    consensus = parse_consensus(doc["consensus"], f"{context}.consensus")
    minions = doc["minions"]
    if not isinstance(minions, list):
        raise ValueError(f"{context}.minions: expected an array of node indices, got {minions!r}")
    powers = PowerDistribution(parse_rational_list(doc["powers"], f"{context}.powers"))
    nodes = set()
    for j, node in enumerate(minions):
        node = parse_int(node, f"{context}.minions[{j}]")
        if not 0 <= node < powers.n:
            raise ValueError(f"{context}.minions[{j}]: {node} is not a node index ({powers.n} nodes)")
        if node in nodes:
            raise ValueError(f"{context}.minions[{j}]: node {node} is listed twice")
        nodes.add(node)
    threshold_t = parse_rational(doc.get("threshold_t", "1/2"), f"{context}.threshold_t")
    if not 0 < threshold_t < 1:
        raise ValueError(f"{context}.threshold_t: {format_rational(threshold_t)} not in (0, 1)")
    return SimConfig(
        powers=powers,
        minions=frozenset(nodes),
        consensus=consensus,
        confirmations=parse_int(doc["confirmations"], f"{context}.confirmations"),
        horizon_slots=parse_int(doc["horizon_slots"], f"{context}.horizon_slots"),
        rng_seed=parse_int(doc.get("rng_seed", 0), f"{context}.rng_seed"),
        threshold_t=threshold_t,
    )
