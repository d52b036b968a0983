"""Equilibrium checks and randomized verification of the collusion claims.

Machine-checks four claims about the two games, exactly, over randomly
generated valid parameter sets:

* T1: in the no-collusion game, all-honest is a strict Nash equilibrium.
* T2: a per-minion contract deposit strictly above
  max_i(r_m_i + max(|r_d_i|, |r_dp_i|)) removes every incentive to disobey
  the contract's order, whatever the other nodes do.
* T3: in the collusion game, any subset deviating from all-honest to
  commitment earns at least its honest reward (and all-honest is therefore
  not strict: a lone deviator always breaks even).
* T4: in the collusion game, all-commit is a strict Nash equilibrium.

Everything here is exact: threshold tests compare integer weight sums with
the integer threshold weight `t_weight`, and rewards are Fractions or
integers. The randomized verifier checks each instance as the integers it
was drawn as (`_Draw`) and builds a `GameParams`, with Fraction powers and
rewards, only for the instance it reports as failing; `random_game_params`
builds one for its callers.
Strictness checks flip one node at a time, in one loop (`_first_flip`) that
`is_strict_nash` runs on each side of a profile and T1/T4 on the uniform
split. T3 tests the committed side's two weight regions; only a failing
instance has its 2^n subsets scanned, in mask order, to name the first
failing one. Dominance scans all 2^(n-1) opponent profiles per node, which
caps it at ENUMERATION_LIMIT nodes.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import repeat
from operator import add, lt, mul, sub
from typing import NamedTuple, Sequence

from .games import (
    GameParams,
    NodeId,
    PowerDistribution,
    Strategy,
    StrategyProfile,
    Variant,
    _payoff_rule,
    _weight_split,
    all_honest,
    opposing_strategy,
    params_to_json_dict,
    payoff_vector,
)
from .rational import format_rational, format_rational_list, parse_rational
from .seeding import derived_seeds

ENUMERATION_LIMIT = 12  # 2^12 opponent profiles per node is the largest exhaustive scan


class EnumerationLimitError(ValueError):
    """Requested an exhaustive scan over more nodes than the configured cap."""


class Deviation(NamedTuple):
    """A profitable-or-breaking-even unilateral deviation (Nash counterexample)."""

    node: NodeId
    strategy: Strategy
    payoff_before: Fraction
    payoff_after: Fraction


class NashReport(NamedTuple):
    is_strict_nash: bool
    counterexample: Deviation | None
    profiles_checked: int


def _first_flip(
    params: GameParams, variant: Variant, w_h: int, w_opposing: int, honest: bool,
    nodes: Sequence[NodeId],
) -> Deviation | None:
    """The first of `nodes` (all honest if `honest`, else all opposing), in
    index order, whose flip moving its weight across the split (w_h,
    w_opposing) does not lower its payoff, or None."""
    rule = _payoff_rule
    before = rule(params, variant, w_h, w_opposing)[0 if honest else 1]
    after_side, sign = (1, 1) if honest else (0, -1)
    weights = params.weights
    for node in nodes:
        w = sign * weights[node]
        after = rule(params, variant, w_h - w, w_opposing + w)[after_side][node]
        if after >= before[node]:
            strategy = opposing_strategy(variant) if honest else Strategy.HONEST
            return Deviation(node, strategy, before[node], after)
    return None


def is_strict_nash(params: GameParams, profile: StrategyProfile) -> NashReport:
    """Check strictness of `profile` by flipping each node's strategy once.

    Strict means every unilateral flip strictly lowers the deviator's
    payoff; a flip that breaks even is a counterexample. `_first_flip` scans
    each side, and the lower of their first nodes is the counterexample,
    found after node + 2 profiles (the profile, then the flips up to it).
    """
    w_h, w_opposing = _weight_split(params, profile)
    variant = profile.variant
    sides = ([], [])  # the honest nodes, the opposing nodes
    for node, choice in enumerate(profile.choices):
        sides[choice is not Strategy.HONEST].append(node)
    flips = [
        flip
        for honest in (True, False)
        if (flip := _first_flip(params, variant, w_h, w_opposing, honest, sides[not honest]))
    ]
    if not flips:
        return NashReport(True, None, profile.n + 1)
    first = min(flips)  # the sides share no node, so the nodes decide
    return NashReport(False, first, first.node + 2)


class NodeDominance(NamedTuple):
    node: NodeId
    never_worse: bool
    strictly_better_somewhere: bool


class DominanceReport(NamedTuple):
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


def _subset_weights(weights: Sequence[int]) -> list[int]:
    """Every subset's weight sum by bitmask (bit b: `weights[b]`), one addition each."""
    sums = [0] * (1 << len(weights))
    for mask in range(1, len(sums)):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + weights[low.bit_length() - 1]
    return sums


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
        # committed weight of the others per mask (bit b: the b-th other node commits)
        committed = _subset_weights(params.weights[:node] + params.weights[node + 1:])
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


class CascadeStep(NamedTuple):
    step: int
    node_flipped: NodeId
    deviating: tuple[NodeId, ...]
    payoffs: tuple[Fraction, ...]
    deviator_monotone: bool


class CascadeTrace(NamedTuple):
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
        steps.append(CascadeStep(step_index, node, tuple(sorted(deviating)), payoffs, monotone))
        previous = payoffs
    return CascadeTrace(order, initial, tuple(steps), profile)


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


class DepositViolation(NamedTuple):
    node: NodeId
    x: Fraction  # payoff for obeying the contract's order
    y: Fraction  # payoff for disobeying, before the deposit is slashed

    def to_payload(self) -> dict:
        return {"node": self.node, "x": format_rational(self.x), "y": format_rational(self.y)}


class DepositCheck(NamedTuple):
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
    deposit = parse_rational(deposit, "deposit")
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
                    return DepositCheck(False, DepositViolation(node, x, y), checked)
    return DepositCheck(True, None, checked)


# --- Random instance generation -------------------------------------------

MUTATION_DEVIANT_REWARD_ABOVE_HONEST = "deviant_reward_above_honest"
MUTATION_MALICIOUS_REWARD_BELOW_HONEST = "malicious_reward_below_honest"
MUTATIONS = (MUTATION_DEVIANT_REWARD_ABOVE_HONEST, MUTATION_MALICIOUS_REWARD_BELOW_HONEST)
REWARD_SCALE = 10  # r_h and each reward gap lie in 1..REWARD_SCALE (r_m - r_dp: twice that)
POWER_SCALE = 20   # unnormalized power weights are drawn from 1..POWER_SCALE
_T20_SPAN = 6  # t = t20/20 with t20 - 10 drawn from 0.._T20_SPAN - 1
_DP_SPAN = 2 * REWARD_SCALE  # r_m - r_dp is drawn from 1.._DP_SPAN
# the random bits `randint` draws for each span
_POWER_BITS, _T20_BITS, _REWARD_BITS, _DP_BITS = (
    span.bit_length() for span in (POWER_SCALE, _T20_SPAN, REWARD_SCALE, _DP_SPAN)
)
# the default and the widest node-count range drawn (the tests cross-check
# T3 on these draws against a scan of all 2^n subsets)
_N_RANGE = (3, 8)


class _Draw(NamedTuple):
    """One random instance as the integers it was drawn as.

    Powers are w_i/total and t is t20/20, so `weights` holds 20·w_i over
    the scale 20·total, where t·scale = t20·total is already an integer:
    `t_weight` is the floor `PowerDistribution.threshold_weight` takes, and
    these integers decide every threshold test as `GameParams.weights`
    would. The rewards are the drawn integers. The checks read only these attributes,
    so they run on a draw as they run on a `GameParams`.
    """

    n: int
    weights: tuple[int, ...]
    t_weight: int
    reward_honest: tuple[int, ...]
    reward_deviant_vs_honest: tuple[int, ...]
    reward_malicious: tuple[int, ...]
    reward_deviant_vs_malicious: tuple[int, ...]


def _draw(rng: random.Random, n_range: tuple[int, int], mutation: str | None) -> _Draw:
    """The instance `random_game_params` describes, as integers.

    Each value is drawn as `rng.randint(lo, hi)` draws it, by the rejection
    loop of `random.Random._randbelow`: `span.bit_length()` random bits,
    drawn again until they fall below the span. Each field group is one
    such loop with its constant span and bit count: n, the n weights
    (1..POWER_SCALE), t20 (10 + 0..5), the 3n rewards drawn alike (r_h,
    then the r_d gaps, then the r_m gaps, each 1..REWARD_SCALE) and the n
    r_dp gaps (1..2·REWARD_SCALE). So it reads the same words, rejects the
    same values and leaves the generator where `randint` calls would. The
    record is built positionally, each field one C-level `map`.
    """
    if mutation is not None and mutation not in MUTATIONS:
        raise ValueError(f"unknown mutation {mutation!r}; known: {MUTATIONS}")
    getrandbits = rng.getrandbits
    n_min, n_max = n_range
    span = n_max - n_min + 1
    k = span.bit_length()
    r = getrandbits(k)
    while r >= span:
        r = getrandbits(k)
    n = n_min + r
    while True:
        weights = []
        while len(weights) < n:
            r = getrandbits(_POWER_BITS)
            if r < POWER_SCALE:
                weights.append(r + 1)
        total = sum(weights)
        # t = t20/20 in [1/2, 3/4]; every power w/total must stay below it
        t20 = getrandbits(_T20_BITS)
        while t20 >= _T20_SPAN:
            t20 = getrandbits(_T20_BITS)
        t20 += 10
        if 20 * max(weights) < t20 * total:
            break

    rewards = []  # r_h, then the r_d gaps, then the r_m gaps
    while len(rewards) < 3 * n:
        r = getrandbits(_REWARD_BITS)
        if r < REWARD_SCALE:
            rewards.append(r + 1)
    dp_gaps = []
    while len(dp_gaps) < n:
        r = getrandbits(_DP_BITS)
        if r < _DP_SPAN:
            dp_gaps.append(r + 1)
    # r_d = r_h - gap, r_m = r_h + gap, r_dp = r_m - gap; each map stops after n values
    r_d_op = add if mutation == MUTATION_DEVIANT_REWARD_ABOVE_HONEST else sub
    r_m_op = sub if mutation == MUTATION_MALICIOUS_REWARD_BELOW_HONEST else add
    r_h = tuple(rewards[:n])
    r_m = tuple(map(r_m_op, r_h, rewards[2 * n:]))
    return _Draw(
        n, tuple(map(mul, weights, repeat(20, n))), t20 * total,
        r_h, tuple(map(r_d_op, r_h, rewards[n:])), r_m, tuple(map(sub, r_m, dp_gaps)),
    )


def _game_params(draw: _Draw) -> GameParams:
    """The `GameParams` of a draw: powers w_i/total and t = t20/20 as Fractions."""
    scale = sum(draw.weights)
    return GameParams(
        powers=PowerDistribution(tuple(Fraction(w, scale) for w in draw.weights)),
        threshold_t=Fraction(draw.t_weight, scale),
        reward_honest=draw.reward_honest,
        reward_deviant_vs_honest=draw.reward_deviant_vs_honest,
        reward_malicious=draw.reward_malicious,
        reward_deviant_vs_malicious=draw.reward_deviant_vs_malicious,
    )


def random_game_params(
    rng: random.Random,
    n_range: tuple[int, int] = _N_RANGE,
    mutation: str | None = None,
) -> GameParams:
    """Draw a valid parameter set by rejection sampling with repair.

    Powers come from normalized positive random integers, redrawn until no
    node reaches the threshold; rewards are integers repaired to satisfy
    the ordering constraints. `mutation` deliberately breaks one repair,
    for verifying that the theorem checkers can fail: r_d above r_h
    (deviating from the honest protocol pays; breaks T1) or r_m below r_h
    (the bribed protocol pays less; breaks T3 and T4).

    The draw itself is integers (`_draw`), and `verify_theorem` checks it
    as such: it builds Fractions only for the instance it reports as
    failing. This function builds them for its callers, from the same
    `rng` calls in the same order. `n_range` must satisfy 2 <= n_min <=
    n_max: a lone node holds all the power, so no draw with n = 1 is valid.
    """
    n_min, n_max = n_range
    if not 2 <= n_min <= n_max:
        raise ValueError(f"n_range {n_range} must satisfy 2 <= n_min <= n_max")
    return _game_params(_draw(rng, n_range, mutation))


# --- Theorem verification --------------------------------------------------

class TheoremFailure(NamedTuple):
    instance_index: int
    params: GameParams
    description: str

    def to_payload(self) -> dict:
        return {
            "instance_index": self.instance_index,
            "params": params_to_json_dict(self.params),
            "description": self.description,
        }


class VerificationReport(NamedTuple):
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


def _check_uniform(params: GameParams, variant: Variant, honest: bool, label: str) -> str | None:
    """T1/T4: every node honest (or every node opposing) is strict iff no
    flip out of the uniform split breaks even."""
    total = sum(params.weights)
    split = (total, 0) if honest else (0, total)
    ce = _first_flip(params, variant, *split, honest, range(params.n))
    if ce is None:
        return None
    game = variant.value.replace("_", "-")
    return (
        f"{label} not strict in the {game} game: node {ce.node} deviates to {ce.strategy.value} "
        f"for {format_rational(ce.payoff_after)} >= {format_rational(ce.payoff_before)}"
    )


def _check_t3(params: GameParams) -> str | None:
    """The first deviating subset, in increasing bitmask order, with a member
    earning below its honest reward.

    The committed side's rewards are constant on each region of its weight
    W (`_payoff_rule`): W <= t_weight and W > t_weight. So the rule is called
    once per region, and one C-level `map` per region tests it for a node
    paid below r_h. No valid instance has one, and returns at once; only a
    failing instance builds each region's mask of such nodes and scans its
    subsets, in increasing mask order, to the first one holding a losing
    node of its own region (a subset's honest side is its complement). The
    text names that subset's lowest losing node.

    That all-honest is not strict in the collusion game needs no check of
    its own: a passing check has found each lone committer (a singleton
    mask) earning at least its honest reward, so that deviation breaks even.
    """
    r_h = params.reward_honest
    total = sum(params.weights)
    t = params.t_weight
    paid = [_payoff_rule(params, Variant.COLLUSION, total - w, w)[1] for w in (0, t + 1)]
    if not (any(map(lt, paid[0], r_h)) or any(map(lt, paid[1], r_h))):
        return None
    # per region (W <= t, W > t): the mask of nodes paid below r_h, the rewards
    regions = [(sum(1 << i for i in range(params.n) if p[i] < r_h[i]), p) for p in paid]
    for mask, weight in enumerate(_subset_weights(params.weights)):
        below, committed = regions[weight > t]
        losers = mask & below
        if losers:
            i = (losers & -losers).bit_length() - 1
            return (
                f"deviating subset {mask:#x}: node {i} earns {format_rational(committed[i])} < "
                f"honest reward {format_rational(r_h[i])}"
            )


def _check_t2(params: GameParams) -> str | None:
    bound = deposit_bound(params)
    if not verify_deposit_bound(params, bound + 1).sufficient:
        return f"deposit {format_rational(bound + 1)} above the bound judged insufficient"
    if deposit_bound_attained(params) and verify_deposit_bound(params, bound).sufficient:
        return f"bound {format_rational(bound)} is attained yet judged sufficient"
    return None


_CHECKS = {
    "T1": lambda params: _check_uniform(params, Variant.NO_COLLUSION, True, "all-honest"),
    "T2": _check_t2,
    "T3": _check_t3,
    "T4": lambda params: _check_uniform(params, Variant.COLLUSION, False, "all-commit"),
}


def _validate_verifier_args(instances: int, n_range: tuple[int, int]) -> None:
    if instances < 1:
        raise ValueError("instances must be >= 1")
    n_min, n_max = n_range
    if not (_N_RANGE[0] <= n_min <= n_max <= _N_RANGE[1]):
        raise ValueError(f"n_range {n_range} must lie within {list(_N_RANGE)} (subset scans are 2^n)")


def verify_theorem(
    theorem: str,
    generator_seed: int,
    instances: int,
    n_range: tuple[int, int] = _N_RANGE,
    mutation: str | None = None,
) -> VerificationReport:
    """Check one equilibrium claim over randomly drawn valid parameter sets.

    T1 checks all-honest strictness in the no-collusion game; T2 checks
    that a deposit one above the deposit bound deters and that an attained
    bound does not (the bound is exclusive); T3 checks that no deviating
    subset in the collusion game has a member earning below its honest
    reward, one weight region of the subset at a time (so all-honest is not
    strict there); T4 checks all-commit strictness. The report is a pure
    function of (theorem, generator_seed, instances, n_range, mutation):
    instance i draws from the stream of `derive_seed(generator_seed,
    "instance", i)`. One generator serves every instance, reseeded through
    the C seed before each draw; reseeding replaces the whole generator
    state, so each instance reads what a fresh `random.Random(seed)` would.
    Instances are checked as integer draws; only the reported failure is
    converted to a `GameParams`.
    """
    if theorem not in _CHECKS:
        raise ValueError(f"theorem must be one of {sorted(_CHECKS)}, got {theorem!r}")
    _validate_verifier_args(instances, n_range)
    check = _CHECKS[theorem]
    rng = random.Random(0)  # reseeded before each instance's draw
    reseed = super(random.Random, rng).seed  # the C seed that `Random.seed` hands an int to
    for index, seed in zip(range(instances), derived_seeds(generator_seed, "instance")):
        reseed(seed)
        draw = _draw(rng, n_range, mutation)
        failure = check(draw)
        if failure is not None:
            first = TheoremFailure(index, _game_params(draw), failure)
            return VerificationReport(theorem, index + 1, False, first)
    return VerificationReport(theorem, instances, True, None)


def verify_deposit_theorem(
    generator_seed: int,
    instances: int,
    n_range: tuple[int, int] = _N_RANGE,
) -> VerificationReport:
    """Randomized check of the deposit bound: `verify_theorem("T2", ...)`."""
    return verify_theorem("T2", generator_seed, instances, n_range)
