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
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import accumulate
from typing import Iterable

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
        object.__setattr__(self, "threshold_t", Fraction(self.threshold_t))
        if not self.powers.is_normalized():
            raise ValueError("sim config: powers must be positive and sum to exactly 1")
        if self.confirmations < 1:
            raise ValueError("sim config: confirmations must be >= 1")
        if self.horizon_slots <= 0:
            raise ValueError("sim config: horizon_slots must be > 0")
        if any(i < 0 or i >= self.powers.n for i in self.minions):
            raise ValueError("sim config: minions must be node indices")


@dataclass(frozen=True)
class AttackResult:
    success: bool
    slots_elapsed: int
    fork_length: int
    reverted_blocks: int
    per_node_blocks_canonical: dict[NodeId, int]
    consensus: Consensus
    slashing_proofs_censored: int = 0
    double_signs: dict[NodeId, int] = field(default_factory=dict)

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


@dataclass(frozen=True)
class SimRun:
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
    minion_share = Fraction(minion_share)
    if deficit < 0:
        raise ValueError("deficit must be >= 0")
    if minion_share >= Fraction(1, 2):
        return Fraction(1)
    ratio = minion_share / (1 - minion_share)
    return ratio**deficit


def run_attack_detailed(config: SimConfig, record_trace: bool = False) -> SimRun:
    """Run one seeded attack simulation, optionally keeping the per-slot trace
    (one row per slot, a plain tuple in `TRACE_COLUMNS` order).

    The race needs only height counters. The payment lands in slot 0 at
    height 1 and gets its k-th confirmation in slot k-1, the trigger, where
    the minions fork from genesis; so slots 0 to k-1 extend the honest chain
    whoever produces them. From slot k on each slot extends the fork (a
    minion producer) or the honest chain (anyone else), and only a fork
    block can end the race.
    """
    rng = random.Random(config.rng_seed)
    draw = rng.random
    n = config.powers.n
    # cumulative producer boundaries, summed as integers over the common
    # denominator (int / int rounds correctly, as float(Fraction) does); float
    # rounding only biases draws by ~1e-16. draw() lies in [0, 1) and the last
    # boundary is exactly 1.0, so bisect_right(boundaries, draw()) is always
    # a node index < n
    boundaries = [acc / config.powers.scale for acc in accumulate(config.powers.weights)]
    boundaries[-1] = 1.0
    is_minion = [i in config.minions for i in range(n)]

    k = config.confirmations
    horizon = config.horizon_slots
    pos = config.consensus is Consensus.POS_SLASHING
    can_win = not pos or config.powers.exceeds(config.minions, config.threshold_t)
    # slots 0 to k-1, or fewer if the horizon ends first
    early = [bisect_right(boundaries, draw()) for _ in range(min(k, horizon))]
    honest_blocks = [early.count(i) for i in range(n)]  # on the honest chain from genesis
    fork_blocks = [0] * n  # on the fork; under PoS each is a double-sign
    honest_height = len(early)
    fork_height = 0
    # PoS slashing proofs: every fork block made before the latest honest
    # block is in it, since honest producers include all pending proofs
    proofs_included = 0
    success = False
    trace = []
    if record_trace:
        trace = [
            (slot, producer, "canonical", slot + 1,
             "target" if slot == 0 else "trigger" if slot == k - 1 else "")
            for slot, producer in enumerate(early)
        ]

    for slot in range(honest_height, horizon):
        producer = bisect_right(boundaries, draw())
        if is_minion[producer]:
            fork_blocks[producer] += 1
            fork_height += 1
            success = can_win and fork_height > honest_height
            if record_trace:
                trace.append((slot, producer, "fork", fork_height, "success" if success else ""))
            if success:
                break
        else:
            honest_blocks[producer] += 1
            honest_height += 1
            proofs_included = fork_height
            if record_trace:
                trace.append((slot, producer, "canonical", honest_height, ""))

    double_signs: dict[NodeId, int] = {}
    censored = 0
    if pos:
        double_signs = {i: c for i, c in enumerate(fork_blocks) if c}
        # a winning fork reverts every honest block, and the proofs in them
        censored = fork_height if success else fork_height - proofs_included
    result = AttackResult(
        success=success,
        slots_elapsed=slot + 1 if success else horizon,
        fork_length=fork_height,
        reverted_blocks=honest_height if success else 0,
        per_node_blocks_canonical=dict(enumerate(fork_blocks if success else honest_blocks)),
        consensus=config.consensus,
        slashing_proofs_censored=censored,
        double_signs=double_signs,
    )
    return SimRun(result=result, trace=tuple(trace))


def run_attack(config: SimConfig) -> AttackResult:
    """Run one seeded attack simulation; deterministic in the config."""
    return run_attack_detailed(config, record_trace=False).result


def sim_config_from_payload(doc: dict, context: str = "sim") -> SimConfig:
    """Parse a sim config document, naming the missing, invalid or unknown field on error.

    `rng_seed` (default 0) and `threshold_t` (default 1/2) may be left out.
    """
    required = ("powers", "minions", "consensus", "confirmations", "horizon_slots")
    check_fields(doc, required, ("rng_seed", "threshold_t"), context)
    try:
        consensus = Consensus(doc["consensus"])
    except ValueError:
        values = [c.value for c in Consensus]
        raise ValueError(f"{context}.consensus: {doc['consensus']!r} is not one of {values}") from None
    minions = doc["minions"]
    if not isinstance(minions, list):
        raise ValueError(f"{context}.minions: expected an array of node indices, got {minions!r}")
    threshold_t = parse_rational(doc.get("threshold_t", "1/2"), f"{context}.threshold_t")
    if not 0 < threshold_t < 1:
        raise ValueError(f"{context}.threshold_t: {format_rational(threshold_t)} not in (0, 1)")
    return SimConfig(
        powers=PowerDistribution(parse_rational_list(doc["powers"], f"{context}.powers")),
        minions=frozenset(parse_int(i, f"{context}.minions[{j}]") for j, i in enumerate(minions)),
        consensus=consensus,
        confirmations=parse_int(doc["confirmations"], f"{context}.confirmations"),
        horizon_slots=parse_int(doc["horizon_slots"], f"{context}.horizon_slots"),
        rng_seed=parse_int(doc.get("rng_seed", 0), f"{context}.rng_seed"),
        threshold_t=threshold_t,
    )


def trace_to_csv(rows: Iterable[tuple], fh) -> None:
    import csv

    writer = csv.writer(fh)
    writer.writerow(TRACE_COLUMNS)
    writer.writerows(rows)
