"""Shared test builders and independent oracles.

A uniform-reward params builder, randomized contract sessions and the
phases their event history implies, a Fraction power split, a per-profile
dominance scan, strictness by explicit flipped profiles, the ordered T3
subset scan, the instance draw through `random.randint`, the fork race one
`random()` per slot, a counter model of the fork race and exact binomial
acceptance ranges: each oracle is written as directly as the model reads,
so that the optimized code can be checked against it.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from briberysim import (
    AttackResult,
    Consensus,
    ContractConfig,
    ContractState,
    DominanceReport,
    GameParams,
    OracleReport,
    Phase,
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
    payoff_vector,
    utility,
)
from briberysim.chainsim import SimRun
from briberysim.equilibrium import (
    MUTATION_DEVIANT_REWARD_ABOVE_HONEST,
    MUTATION_MALICIOUS_REWARD_BELOW_HONEST,
    MUTATIONS,
    POWER_SCALE,
    REWARD_SCALE,
    Deviation,
    NashReport,
    NodeDominance,
    _Draw,
)
from briberysim.rational import format_rational


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
    # every transition as (kind, node or None), from "init" on, and the phase after it
    events: list[tuple[str, int | None]]
    phase_history: list[Phase]
    # the state after each of `events`, with a copy of it (dicts copied) made
    # while it was the newest state
    snapshots: list[tuple[ContractState, ContractState]]


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
    events: list[tuple[str, int | None]] = [("init", None)]
    phase_history = [state.phase]
    snapshots: list[tuple[ContractState, ContractState]] = []

    def snapshot(state: ContractState) -> None:
        copy = ContractState(state.config, dict(state.minions), dict(state.settlements), state.clock)
        snapshots.append((state, copy))

    def record(kind: str, node: int | None, state: ContractState) -> None:
        events.append((kind, node))
        phase_history.append(state.phase)
        snapshot(state)

    snapshot(state)

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
        record("advance_clock", None, state)
        deposit = Fraction(rng.randint(1, 30), rng.randint(1, 3))
        state = contract_commit(state, node, deposit)
        record("commit", node, state)
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
        record("advance_clock", None, state)
        order_history.append(state.order)

    settle_order = list(deposits)
    rng.shuffle(settle_order)
    outcomes: dict[int, SettlementOutcome] = {}
    for node in settle_order:
        state, outcome = contract_distribute(state, node, oracle)
        record("distribute", node, state)
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
        events=events,
        phase_history=phase_history,
        snapshots=snapshots,
    )


def reference_phases(session: ContractSession) -> list[Phase]:
    """The phase after each of `session.events`, from the event history alone:
    ordered once the running Fraction sum of committed power exceeds t,
    settled once every committed minion (at least one) has settled."""
    committed_power = Fraction(0)
    committed: set[int] = set()
    settled: set[int] = set()
    phases = []
    for kind, node in session.events:
        if kind == "commit":
            committed.add(node)
            committed_power += session.config.powers[node]
        elif kind == "distribute" and session.outcomes[node] is not SettlementOutcome.PENDING:
            settled.add(node)
        if settled and settled == committed:
            phases.append(Phase.SETTLED)
        elif committed_power > session.config.threshold_t:
            phases.append(Phase.ATTACK_ORDERED)
        else:
            phases.append(Phase.OPEN)
    return phases


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


def strict_nash_by_flips(params: GameParams, profile: StrategyProfile) -> NashReport:
    """Strictness by brute force: each node, in index order, switches to the
    other strategy of its game in an explicit profile, and its `payoff_vector`
    entry there is compared with its entry in `profile`; the first flip that
    does not lower it is the counterexample, after node + 2 profiles."""
    before = payoff_vector(params, profile)
    opposing = Strategy.COMMIT if profile.variant is Variant.COLLUSION else Strategy.MALICIOUS
    for node, choice in enumerate(profile.choices):
        flipped = Strategy.HONEST if choice is not Strategy.HONEST else opposing
        after = payoff_vector(params, profile.with_choice(node, flipped))[node]
        if after >= before[node]:
            return NashReport(False, Deviation(node, flipped, before[node], after), node + 2)
    return NashReport(True, None, profile.n + 1)


def t3_by_subsets(params: GameParams) -> str | None:
    """T3's verdict by the ordered scan: every deviating subset in increasing
    bitmask order, as an explicit collusion profile, until a member earns
    below its honest reward; the text names the subset and its lowest loser."""
    n = params.n
    r_h = params.reward_honest
    for mask in range(1, 1 << n):
        choices = tuple(Strategy.COMMIT if mask >> i & 1 else Strategy.HONEST for i in range(n))
        payoffs = payoff_vector(params, StrategyProfile(choices, Variant.COLLUSION))
        for i in range(n):
            if mask >> i & 1 and payoffs[i] < r_h[i]:
                return (
                    f"deviating subset {mask:#x}: node {i} earns {format_rational(payoffs[i])} < "
                    f"honest reward {format_rational(r_h[i])}"
                )
    return None


def draw_by_randint(rng: random.Random, n_range: tuple[int, int], mutation: str | None) -> _Draw:
    """The random instance drawn through `rng.randint`, call for call as
    `equilibrium._draw` documents it."""
    if mutation is not None and mutation not in MUTATIONS:
        raise ValueError(f"unknown mutation {mutation!r}; known: {MUTATIONS}")
    n_min, n_max = n_range
    n = rng.randint(n_min, n_max)
    while True:
        weights = [rng.randint(1, POWER_SCALE) for _ in range(n)]
        total = sum(weights)
        t20 = 10 + rng.randint(0, 5)
        if 20 * max(weights) < t20 * total:
            break

    r_h = [rng.randint(1, REWARD_SCALE) for _ in range(n)]
    d_sign = 1 if mutation == MUTATION_DEVIANT_REWARD_ABOVE_HONEST else -1
    r_d = [r_h[i] + d_sign * rng.randint(1, REWARD_SCALE) for i in range(n)]
    m_sign = -1 if mutation == MUTATION_MALICIOUS_REWARD_BELOW_HONEST else 1
    r_m = [r_h[i] + m_sign * rng.randint(1, REWARD_SCALE) for i in range(n)]
    r_dp = [r_m[i] - rng.randint(1, 2 * REWARD_SCALE) for i in range(n)]
    return _Draw(
        n=n,
        weights=tuple(20 * w for w in weights),
        t_weight=t20 * total,
        reward_honest=tuple(r_h),
        reward_deviant_vs_honest=tuple(r_d),
        reward_malicious=tuple(r_m),
        reward_deviant_vs_malicious=tuple(r_dp),
    )


def race_by_slots(config: SimConfig, record_trace: bool = False) -> SimRun:
    """The fork race slot by slot: one `random()` and one `bisect_right` per
    slot, every counter and trace row updated as the slot is drawn.

    Slots 0 to k-1 extend the honest chain whoever produces them (the
    payment's k-th confirmation falls in slot k-1); from slot k on a minion
    slot extends the fork and any other the honest chain, and the fork wins
    once strictly longer (under deposit-slashing only if the minions hold
    more than t). Under deposit-slashing every fork block is a double-sign,
    and its proof is included by the next honest block.
    """
    rng = random.Random(config.rng_seed)
    draw = rng.random
    n = config.powers.n
    boundaries = [acc / config.powers.scale for acc in accumulate(config.powers.weights)]
    boundaries[-1] = 1.0
    is_minion = [i in config.minions for i in range(n)]

    k = config.confirmations
    horizon = config.horizon_slots
    pos = config.consensus is Consensus.POS_SLASHING
    can_win = not pos or config.powers.exceeds(config.minions, config.threshold_t)
    early = [bisect_right(boundaries, draw()) for _ in range(min(k, horizon))]
    honest_blocks = [early.count(i) for i in range(n)]
    fork_blocks = [0] * n
    honest_height = len(early)
    fork_height = 0
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

    double_signs: dict[int, int] = {}
    censored = 0
    if pos:
        double_signs = {i: c for i, c in enumerate(fork_blocks) if c}
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


def binomial_acceptance_range(n: int, p: Fraction, alpha: Fraction) -> tuple[int, int]:
    """The [lo, hi] hit counts that n Bernoulli(p) trials fall outside with
    probability at most alpha, alpha/2 per tail, from exact binomial tails."""
    a, b = p.numerator, p.denominator
    # P(X = k) = C(n, k) a^k (b - a)^(n - k) / b^n: integers over one denominator
    weights = [math.comb(n, k) * a**k * (b - a) ** (n - k) for k in range(n + 1)]
    budget = alpha / 2 * b**n
    lo, tail = 0, 0
    while tail + weights[lo] <= budget:
        tail += weights[lo]
        lo += 1
    hi, tail = n, 0
    while tail + weights[hi] <= budget:
        tail += weights[hi]
        hi -= 1
    return lo, hi
