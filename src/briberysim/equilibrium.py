"""Equilibrium checks and randomized verification of the collusion claims.

Machine-checks four claims about the two games, by direct enumeration over
randomly generated valid parameter sets:

* T1: in the no-collusion game, all-honest is a strict Nash equilibrium.
* T2: a per-minion contract deposit strictly above
  max_i(r_m_i + max(|r_d_i|, |r_dp_i|)) removes every incentive to disobey
  the contract's order, whatever the other nodes do.
* T3: in the collusion game, any subset deviating from all-honest to
  commitment earns at least its honest reward (and all-honest is therefore
  not strict: a lone deviator always breaks even).
* T4: in the collusion game, all-commit is a strict Nash equilibrium.

Everything here is exact: threshold tests compare the integer weights of
`GameParams`, rewards are Fractions. Profile scans are exhaustive (2^n
subsets), which caps enumeration at small n.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .games import (
    GameParams,
    NodeId,
    PowerDistribution,
    Strategy,
    StrategyProfile,
    Variant,
    _payoff_rule,
    _weight_split,
    all_commit,
    all_honest,
    opposing_strategy,
    params_to_json_dict,
    payoff_vector,
)
from .rational import format_rational, format_rational_list
from .seeding import derive_seed

ENUMERATION_LIMIT = 12  # 2^12 opponent profiles per node is the largest exhaustive scan


class EnumerationLimitError(ValueError):
    """Requested an exhaustive scan over more nodes than the configured cap."""


@dataclass(frozen=True)
class Deviation:
    """A profitable-or-breaking-even unilateral deviation (Nash counterexample)."""

    node: NodeId
    strategy: Strategy
    payoff_before: Fraction
    payoff_after: Fraction


@dataclass(frozen=True)
class NashReport:
    is_strict_nash: bool
    counterexample: Deviation | None
    profiles_checked: int


def is_strict_nash(params: GameParams, profile: StrategyProfile) -> NashReport:
    """Check strictness of `profile` by flipping each node's strategy once.

    Strict means every unilateral flip strictly lowers the deviator's
    payoff; a flip that merely breaks even is already a counterexample.
    A flip moves one node's weight across the power split.
    """
    variant = profile.variant
    w_h, w_opposing = _weight_split(params, profile)
    honest, opposing = _payoff_rule(params, variant, w_h, w_opposing)
    checked = 1
    for node, (choice, w) in enumerate(zip(profile.choices, params.weights)):
        checked += 1
        if choice is Strategy.HONEST:
            before = honest[node]
            flipped_strategy = opposing_strategy(variant)
            after = _payoff_rule(params, variant, w_h - w, w_opposing + w)[1][node]
        else:
            before = opposing[node]
            flipped_strategy = Strategy.HONEST
            after = _payoff_rule(params, variant, w_h + w, w_opposing - w)[0][node]
        if after >= before:
            return NashReport(
                is_strict_nash=False,
                counterexample=Deviation(node, flipped_strategy, before, after),
                profiles_checked=checked,
            )
    return NashReport(is_strict_nash=True, counterexample=None, profiles_checked=checked)


@dataclass(frozen=True)
class NodeDominance:
    node: NodeId
    never_worse: bool
    strictly_better_somewhere: bool


@dataclass(frozen=True)
class DominanceReport:
    weakly_dominates: bool
    per_node: tuple[NodeDominance, ...]
    opponent_profiles_checked: int

    def to_payload(self) -> dict:
        return {
            "weakly_dominates": self.weakly_dominates,
            "opponent_profiles_checked": self.opponent_profiles_checked,
            "per_node": [
                {
                    "node": d.node,
                    "never_worse": d.never_worse,
                    "strictly_better_somewhere": d.strictly_better_somewhere,
                }
                for d in self.per_node
            ],
        }


def _check_enumeration_limit(n: int) -> None:
    if n > ENUMERATION_LIMIT:
        raise EnumerationLimitError(f"n = {n} exceeds the enumeration limit {ENUMERATION_LIMIT}")


def check_weak_dominance_game1(params: GameParams) -> DominanceReport:
    """Does commitment weakly dominate honesty in the collusion game?

    For each node, enumerates all 2^(n-1) opponent assignments and compares
    the node's payoff under COMMIT vs HONEST: never worse everywhere, and
    strictly better against at least one opponent profile. Both flags are
    taken over all opponent assignments, so neither depends on scan order. An opponent
    assignment enters the payoff rule only through the committed weight of
    the other nodes, to which COMMIT adds the node's own weight.
    """
    n = params.n
    _check_enumeration_limit(n)
    opponents_per_node = 2 ** (n - 1)
    total = sum(params.weights)
    per_node: list[NodeDominance] = []
    for node, w_node in enumerate(params.weights):
        others = params.weights[:node] + params.weights[node + 1:]
        # committed weight of the others per mask (bit b: the b-th other node
        # commits), by the lowest-set-bit recurrence
        committed = [0] * opponents_per_node
        for mask in range(1, opponents_per_node):
            low = mask & -mask
            committed[mask] = committed[mask ^ low] + others[low.bit_length() - 1]
        never_worse = True
        strictly_better = False
        for w_others in committed:
            w_commit = w_others + w_node
            u_commit = _payoff_rule(params, Variant.COLLUSION, total - w_commit, w_commit)[1][node]
            u_honest = _payoff_rule(params, Variant.COLLUSION, total - w_others, w_others)[0][node]
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


@dataclass(frozen=True)
class CascadeStep:
    step: int
    node_flipped: NodeId
    deviating: tuple[NodeId, ...]
    payoffs: tuple[Fraction, ...]
    deviator_monotone: bool


@dataclass(frozen=True)
class CascadeTrace:
    """One deviation sequence: honest nodes flip to commitment one at a time."""

    order: tuple[NodeId, ...]
    initial_payoffs: tuple[Fraction, ...]
    steps: tuple[CascadeStep, ...]
    final_profile: StrategyProfile

    @property
    def all_monotone(self) -> bool:
        return all(s.deviator_monotone for s in self.steps)

    def to_payload(self) -> dict:
        return {
            "order": list(self.order),
            "initial_payoffs": format_rational_list(self.initial_payoffs),
            "steps": [
                {
                    "step": s.step,
                    "node_flipped": s.node_flipped,
                    "deviating_set": list(s.deviating),
                    "payoffs": format_rational_list(s.payoffs),
                    "deviator_monotone": s.deviator_monotone,
                }
                for s in self.steps
            ],
            "final_profile": [c.value for c in self.final_profile.choices],
            "all_monotone": self.all_monotone,
        }


def _validate_order(order: Sequence[NodeId], n: int) -> tuple[NodeId, ...]:
    order = tuple(order)
    if len(set(order)) != len(order) or any(i < 0 or i >= n for i in order):
        raise ValueError(f"order {order!r} is not a permutation of node indices (n = {n})")
    return order


def find_deviation_cascade(params: GameParams, order: Sequence[NodeId]) -> CascadeTrace:
    """Flip nodes from honest to committed in `order`, recording payoffs.

    A step is deviator-monotone when every node that has deviated so far
    earns at least what it earned at the previous step. `order` must list
    distinct node indices; covering all nodes ends at the all-commit
    profile.
    """
    n = params.n
    order = _validate_order(order, n)
    profile = all_honest(n, Variant.COLLUSION)
    previous = payoff_vector(params, profile)
    initial = previous
    deviating: list[NodeId] = []
    steps: list[CascadeStep] = []
    for step_index, node in enumerate(order, start=1):
        profile = profile.with_choice(node, Strategy.COMMIT)
        deviating.append(node)
        payoffs = payoff_vector(params, profile)
        monotone = all(payoffs[i] >= previous[i] for i in deviating)
        steps.append(
            CascadeStep(
                step=step_index,
                node_flipped=node,
                deviating=tuple(sorted(deviating)),
                payoffs=payoffs,
                deviator_monotone=monotone,
            )
        )
        previous = payoffs
    return CascadeTrace(
        order=order, initial_payoffs=initial, steps=tuple(steps), final_profile=profile
    )


# --- Deposit bound (T2) ---------------------------------------------------

def deposit_bound(params: GameParams) -> Fraction:
    """Infimum of deterring minion deposits: max_i(r_m_i + max(|r_d_i|, |r_dp_i|)).

    Valid deposits are strictly greater than this value; the bound itself
    is not always sufficient (see `verify_deposit_bound`).
    """
    return max(
        params.reward_malicious[i]
        + max(
            abs(params.reward_deviant_vs_honest[i]),
            abs(params.reward_deviant_vs_malicious[i]),
        )
        for i in range(params.n)
    )


def deposit_bound_attained(params: GameParams) -> bool:
    """True when some node's worst obey-vs-disobey payoff gap equals the bound.

    The bound over-approximates the true largest gap max_i(r_m_i -
    min(r_d_i, r_dp_i)) whenever the relevant penalty is positive; only
    when the two coincide does a deposit of exactly the bound fail.
    """
    true_max_gap = max(
        params.reward_malicious[i]
        - min(params.reward_deviant_vs_honest[i], params.reward_deviant_vs_malicious[i])
        for i in range(params.n)
    )
    return true_max_gap == deposit_bound(params)


@dataclass(frozen=True)
class DepositViolation:
    node: NodeId
    x: Fraction  # payoff for obeying the contract's order
    y: Fraction  # payoff for disobeying, before the deposit is slashed

    def to_payload(self) -> dict:
        return {"node": self.node, "x": format_rational(self.x), "y": format_rational(self.y)}


@dataclass(frozen=True)
class DepositCheck:
    sufficient: bool
    violation: DepositViolation | None
    pairs_checked: int

    def to_payload(self) -> dict:
        return {
            "sufficient": self.sufficient,
            "pairs_checked": self.pairs_checked,
            "violation": None if self.violation is None else self.violation.to_payload(),
        }


def verify_deposit_bound(params: GameParams, deposit: Fraction) -> DepositCheck:
    """Exhaustively check that losing `deposit` deters every order violation.

    A violating node earns y - deposit instead of the obeying payoff x,
    where x and y each range over the node's four possible rewards; the
    deposit suffices iff y - deposit < x for all 16 pairs at every node.
    """
    deposit = Fraction(deposit)
    checked = 0
    for node in range(params.n):
        rewards = (
            params.reward_malicious[node],
            params.reward_honest[node],
            params.reward_deviant_vs_honest[node],
            params.reward_deviant_vs_malicious[node],
        )
        for y in rewards:
            for x in rewards:
                checked += 1
                if y - deposit >= x:
                    return DepositCheck(
                        sufficient=False,
                        violation=DepositViolation(node=node, x=x, y=y),
                        pairs_checked=checked,
                    )
    return DepositCheck(sufficient=True, violation=None, pairs_checked=checked)


# --- Random instance generation -------------------------------------------

MUTATION_DEVIANT_REWARD_ABOVE_HONEST = "deviant_reward_above_honest"
MUTATION_MALICIOUS_REWARD_BELOW_HONEST = "malicious_reward_below_honest"
MUTATIONS = (MUTATION_DEVIANT_REWARD_ABOVE_HONEST, MUTATION_MALICIOUS_REWARD_BELOW_HONEST)
REWARD_SCALE = 10  # r_h and each reward gap lie in 1..REWARD_SCALE (r_m - r_dp: twice that)
POWER_SCALE = 20   # unnormalized power weights are drawn from 1..POWER_SCALE


def random_game_params(
    rng: random.Random,
    n_range: tuple[int, int] = (3, 8),
    mutation: str | None = None,
) -> GameParams:
    """Draw a valid parameter set by rejection sampling with repair.

    Powers come from normalized positive random integers, redrawn until no
    node reaches the threshold; rewards are integers repaired to satisfy
    the ordering constraints. `mutation` deliberately breaks one repair,
    for verifying that the theorem checkers can fail: r_d above r_h
    (deviating from the honest protocol pays; breaks T1) or r_m below r_h
    (the bribed protocol pays less; breaks T3 and T4).
    """
    if mutation is not None and mutation not in MUTATIONS:
        raise ValueError(f"unknown mutation {mutation!r}; known: {MUTATIONS}")
    n_min, n_max = n_range
    n = rng.randint(n_min, n_max)
    while True:
        weights = [rng.randint(1, POWER_SCALE) for _ in range(n)]
        total = sum(weights)
        # t = t20/20 in [1/2, 3/4]; every power w/total must stay below it
        t20 = 10 + rng.randint(0, 5)
        if 20 * max(weights) < t20 * total:
            break

    r_h = [rng.randint(1, REWARD_SCALE) for _ in range(n)]
    d_sign = 1 if mutation == MUTATION_DEVIANT_REWARD_ABOVE_HONEST else -1
    r_d = [r_h[i] + d_sign * rng.randint(1, REWARD_SCALE) for i in range(n)]
    m_sign = -1 if mutation == MUTATION_MALICIOUS_REWARD_BELOW_HONEST else 1
    r_m = [r_h[i] + m_sign * rng.randint(1, REWARD_SCALE) for i in range(n)]
    r_dp = [r_m[i] - rng.randint(1, 2 * REWARD_SCALE) for i in range(n)]
    return GameParams(
        powers=PowerDistribution(tuple(Fraction(w, total) for w in weights)),
        threshold_t=Fraction(t20, 20),
        reward_honest=tuple(r_h),
        reward_deviant_vs_honest=tuple(r_d),
        reward_malicious=tuple(r_m),
        reward_deviant_vs_malicious=tuple(r_dp),
    )


# --- Theorem verification --------------------------------------------------

@dataclass(frozen=True)
class TheoremFailure:
    instance_index: int
    params: GameParams
    description: str

    def to_payload(self) -> dict:
        return {
            "instance_index": self.instance_index,
            "params": params_to_json_dict(self.params),
            "description": self.description,
        }


@dataclass(frozen=True)
class VerificationReport:
    theorem: str
    instances_tested: int
    all_passed: bool
    first_failure: TheoremFailure | None

    def to_payload(self) -> dict:
        return {
            "theorem": self.theorem,
            "instances_tested": self.instances_tested,
            "all_passed": self.all_passed,
            "first_failure": None if self.first_failure is None else self.first_failure.to_payload(),
        }


def _check_strict_nash(params: GameParams, profile: StrategyProfile, label: str) -> str | None:
    report = is_strict_nash(params, profile)
    if report.is_strict_nash:
        return None
    ce = report.counterexample
    game = profile.variant.value.replace("_", "-")
    return (
        f"{label} not strict in the {game} game: node {ce.node} deviates to "
        f"{ce.strategy.value} for {format_rational(ce.payoff_after)} >= "
        f"{format_rational(ce.payoff_before)}"
    )


def _check_t3(params: GameParams) -> str | None:
    n = params.n
    full = (1 << n) - 1
    r_h = params.reward_honest
    # subset weight sums via the lowest-set-bit recurrence; the honest side
    # of a deviating subset is its complement
    subset_weight = [0] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        subset_weight[mask] = subset_weight[mask ^ low] + params.weights[low.bit_length() - 1]
    # bitmask of the nodes that earn below r_h, once per reward tuple the
    # rule returns (keyed by identity; the tuple is kept so its id stays unique)
    below_by_id: dict[int, tuple[tuple[Fraction, ...], int]] = {}
    for mask in range(1, 1 << n):
        _, committed = _payoff_rule(
            params, Variant.COLLUSION, subset_weight[full ^ mask], subset_weight[mask]
        )
        entry = below_by_id.get(id(committed))
        if entry is None:
            below = sum(1 << i for i in range(n) if committed[i] < r_h[i])
            entry = below_by_id[id(committed)] = (committed, below)
        losers = mask & entry[1]
        if losers:
            i = (losers & -losers).bit_length() - 1
            return (
                f"deviating subset {mask:#x}: node {i} earns {format_rational(committed[i])} < "
                f"honest reward {format_rational(r_h[i])}"
            )
    nash = is_strict_nash(params, all_honest(n, Variant.COLLUSION))
    if nash.is_strict_nash:
        return "all-honest is strict in the collusion game, but a lone deviator must break even"
    return None


def _check_t2(params: GameParams) -> str | None:
    bound = deposit_bound(params)
    if not verify_deposit_bound(params, bound + 1).sufficient:
        return f"deposit {format_rational(bound + 1)} above the bound judged insufficient"
    if deposit_bound_attained(params) and verify_deposit_bound(params, bound).sufficient:
        return f"bound {format_rational(bound)} is attained yet judged sufficient"
    return None


_CHECKS = {
    "T1": lambda params: _check_strict_nash(
        params, all_honest(params.n, Variant.NO_COLLUSION), "all-honest"
    ),
    "T2": _check_t2,
    "T3": _check_t3,
    "T4": lambda params: _check_strict_nash(params, all_commit(params.n), "all-commit"),
}


def _validate_verifier_args(instances: int, n_range: tuple[int, int]) -> None:
    if instances < 1:
        raise ValueError("instances must be >= 1")
    n_min, n_max = n_range
    if not (3 <= n_min <= n_max <= 8):
        raise ValueError(f"n_range {n_range} must lie within [3, 8] (subset scans are 2^n)")


def verify_theorem(
    theorem: str,
    generator_seed: int,
    instances: int,
    n_range: tuple[int, int] = (3, 8),
    mutation: str | None = None,
) -> VerificationReport:
    """Check one equilibrium claim over randomly drawn valid parameter sets.

    T1 checks all-honest strictness in the no-collusion game; T2 checks
    that a deposit one above the deposit bound deters and that an attained
    bound does not (the bound is exclusive); T3 scans all 2^n - 1 deviating
    subsets in the collusion game (and that all-honest is not strict
    there); T4 checks all-commit strictness. The report is a pure function
    of (theorem, generator_seed, instances, n_range, mutation): each
    instance draws from its own stream derived from the seed and the
    instance index.
    """
    if theorem not in _CHECKS:
        raise ValueError(f"theorem must be one of {sorted(_CHECKS)}, got {theorem!r}")
    _validate_verifier_args(instances, n_range)
    check = _CHECKS[theorem]
    for index in range(instances):
        rng = random.Random(derive_seed(generator_seed, "instance", index))
        params = random_game_params(rng, n_range, mutation=mutation)
        failure = check(params)
        if failure is not None:
            return VerificationReport(
                theorem=theorem,
                instances_tested=index + 1,
                all_passed=False,
                first_failure=TheoremFailure(index, params, failure),
            )
    return VerificationReport(
        theorem=theorem, instances_tested=instances, all_passed=True, first_failure=None
    )


def verify_deposit_theorem(
    generator_seed: int,
    instances: int,
    n_range: tuple[int, int] = (3, 8),
) -> VerificationReport:
    """Randomized check of the deposit bound: `verify_theorem("T2", ...)`."""
    return verify_theorem("T2", generator_seed, instances, n_range)
