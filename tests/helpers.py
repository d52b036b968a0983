"""Shared test builders and independent oracles.

A uniform-reward params builder, randomized contract sessions, a Fraction
power split, a per-profile dominance scan and a counter model of the fork
race: each oracle is written as directly as the model reads, so that the
optimized code can be checked against it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from briberysim import (
    Consensus,
    ContractConfig,
    ContractState,
    DominanceReport,
    GameParams,
    OracleReport,
    PowerDistribution,
    Protocol,
    SettlementOutcome,
    SimConfig,
    Strategy,
    StrategyProfile,
    Variant,
    advance_clock,
    contract_commit,
    contract_distribute,
    contract_init,
    utility,
)
from briberysim.equilibrium import NodeDominance


def uniform_params(powers, threshold_t, r_h, r_d, r_m, r_dp) -> GameParams:
    """Params where every node earns the same four rewards (ints, strings or Fractions)."""
    dist = PowerDistribution(tuple(Fraction(p) for p in powers))
    n = dist.n
    return GameParams(
        powers=dist,
        threshold_t=Fraction(threshold_t),
        reward_honest=(Fraction(r_h),) * n,
        reward_deviant_vs_honest=(Fraction(r_d),) * n,
        reward_malicious=(Fraction(r_m),) * n,
        reward_deviant_vs_malicious=(Fraction(r_dp),) * n,
    )


@dataclass(frozen=True)
class AggregatePowers:
    """Power split induced by a profile: honest side vs the opposing side
    (malicious nodes in the no-collusion game, committed nodes otherwise)."""

    v_h: Fraction
    v_opposing: Fraction


def aggregate_powers(profile: StrategyProfile, powers: PowerDistribution) -> AggregatePowers:
    """Sum powers on each side of a profile, in Fractions.

    For normalized distributions v_h + v_opposing == 1 exactly; both sides
    are summed independently rather than taking a complement, so that the
    identity is a checkable property of the arithmetic.
    """
    if profile.n != powers.n:
        raise ValueError(f"profile has {profile.n} choices for {powers.n} nodes")
    v_h = Fraction(0)
    v_opposing = Fraction(0)
    for choice, power in zip(profile.choices, powers):
        if choice is Strategy.HONEST:
            v_h += power
        else:
            v_opposing += power
    return AggregatePowers(v_h=v_h, v_opposing=v_opposing)


@dataclass
class ContractSession:
    """One randomized contract lifecycle, fully settled."""

    config: ContractConfig
    final_state: ContractState
    deposits: dict[int, Fraction]
    oracle: OracleReport
    outcomes: dict[int, SettlementOutcome]
    order_history: list[Protocol]
    commit_power_prefix: list[Fraction]


def random_contract_session(rng: random.Random, force_no_trigger: bool = False) -> ContractSession:
    """Drive a random commit/clock/oracle/settle sequence to full settlement.

    With `force_no_trigger` the committed power never exceeds the threshold,
    so the attack is never ordered and every minion must be refunded.
    """
    n = rng.randint(2, 6)
    weights = [rng.randint(1, 10) for _ in range(n)]
    total = sum(weights)
    powers = PowerDistribution(tuple(Fraction(w, total) for w in weights))
    threshold = Fraction(1, 2) + Fraction(rng.randint(0, 4), 10)
    expiration = rng.randint(5, 50)
    config = ContractConfig(
        expiration_time=expiration,
        magnate_deposit=Fraction(rng.randint(1, 40), rng.randint(1, 4)),
        threshold_t=threshold,
        powers=powers,
    )
    state = contract_init(config)
    order_history = [state.order]

    candidates = list(range(n))
    rng.shuffle(candidates)
    candidates = candidates[: rng.randint(0, n)]
    if force_no_trigger:
        kept: list[int] = []
        acc = Fraction(0)
        for node in candidates:
            if acc + powers[node] <= threshold:
                kept.append(node)
                acc += powers[node]
        candidates = kept

    deposits: dict[int, Fraction] = {}
    prefix: list[Fraction] = []
    clock = 0
    acc = Fraction(0)
    for node in candidates:
        if state.phase.value != "open":
            break
        clock = min(clock + rng.randint(0, 2), expiration - 1)
        state = advance_clock(state, clock)
        deposit = Fraction(rng.randint(1, 30), rng.randint(1, 3))
        state = contract_commit(state, node, deposit)
        deposits[node] = deposit
        acc += powers[node]
        prefix.append(acc)
        order_history.append(state.order)

    if state.order is Protocol.MALICIOUS:
        success = rng.random() < 0.6
        executed = {
            node: Protocol.MALICIOUS if rng.random() < 0.75 else Protocol.HONEST
            for node in deposits
        }
    else:
        success = False
        executed = {node: Protocol.HONEST for node in deposits}
    oracle = OracleReport(attack_successful=success, executed_protocol=executed)

    if not success:
        state = advance_clock(state, expiration + rng.randint(1, 5))
        order_history.append(state.order)

    settle_order = list(deposits)
    rng.shuffle(settle_order)
    outcomes: dict[int, SettlementOutcome] = {}
    for node in settle_order:
        state, outcome = contract_distribute(state, node, oracle)
        outcomes[node] = outcome
        order_history.append(state.order)

    return ContractSession(
        config=config,
        final_state=state,
        deposits=deposits,
        oracle=oracle,
        outcomes=outcomes,
        order_history=order_history,
        commit_power_prefix=prefix,
    )


def dominance_by_profiles(params: GameParams) -> DominanceReport:
    """Weak-dominance scan over explicit collusion-game profiles.

    For each node and each of the 2^(n-1) opponent masks (bit b: the b-th
    other node commits), compares `utility` under COMMIT and HONEST.
    """
    n = params.n
    opponents_per_node = 2 ** (n - 1)
    per_node = []
    for node in range(n):
        others = [i for i in range(n) if i != node]
        never_worse = True
        strictly_better = False
        for mask in range(opponents_per_node):
            choices = [Strategy.HONEST] * n
            for bit, other in enumerate(others):
                if mask >> bit & 1:
                    choices[other] = Strategy.COMMIT
            choices[node] = Strategy.COMMIT
            u_commit = utility(params, StrategyProfile(tuple(choices), Variant.COLLUSION), node)
            choices[node] = Strategy.HONEST
            u_honest = utility(params, StrategyProfile(tuple(choices), Variant.COLLUSION), node)
            if u_commit < u_honest:
                never_worse = False
            elif u_commit > u_honest:
                strictly_better = True
        per_node.append(NodeDominance(node, never_worse, strictly_better))
    return DominanceReport(
        weakly_dominates=all(d.never_worse and d.strictly_better_somewhere for d in per_node),
        per_node=tuple(per_node),
        opponent_profiles_checked=opponents_per_node,
    )


def race_by_counters(config: SimConfig) -> tuple[bool, int, int, int]:
    """Counter model of one fork race: (success, slots_elapsed, fork_length, reverted_blocks).

    Draws producers from the same seeded stream as the simulation, node i
    owning the interval below the float of its cumulative power share.
    The first `confirmations` slots build the honest chain up to the
    payment's last confirmation, whoever produces them; after that a minion
    slot extends the fork and any other slot the honest chain. The fork
    wins, reverting the whole honest chain, as soon as it is strictly
    longer, under deposit-slashing only if the minions hold more than t.
    """
    rng = random.Random(config.rng_seed)
    cumulative = []
    share = Fraction(0)
    for power in config.powers:
        share += power
        cumulative.append(float(share))
    cumulative[-1] = 1.0
    minion_power = sum((config.powers[i] for i in config.minions), Fraction(0))
    fork_can_win = (
        config.consensus is Consensus.POW_LONGEST_CHAIN or minion_power > config.threshold_t
    )
    honest = fork = 0
    for slot in range(config.horizon_slots):
        draw = rng.random()
        producer = next(i for i, bound in enumerate(cumulative) if draw < bound)
        if slot >= config.confirmations and producer in config.minions:
            fork += 1
            if fork_can_win and fork > honest:
                return True, slot + 1, fork, honest
        else:
            honest += 1
    return False, config.horizon_slots, fork, 0
