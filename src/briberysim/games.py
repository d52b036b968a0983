"""Strategic-form model of validator collusion.

A blockchain is maintained by n rational nodes, node i holding voting power
v_i with sum(v) = 1. A protocol (honest or malicious) executes in a period
only if the power behind it strictly exceeds a public threshold t >= 1/2.
Two games share one parameter set:

* the no-collusion game: each node independently runs the honest or the
  malicious protocol;
* the collusion game: a briber's contract collects commitments, and orders
  the committed nodes to run the malicious protocol only once their joint
  power exceeds t (otherwise it orders the honest protocol, so commitment
  is never punished).

Per-node rewards:

* reward_honest (r_h)               honest protocol executes, node ran it
* reward_deviant_vs_honest (r_d)    honest protocol executes, node deviated
* reward_malicious (r_m)            malicious protocol executes, node ran it
* reward_deviant_vs_malicious (r_dp) malicious protocol executes, node did not

The model's standing assumptions, referenced by number in validation
messages and scenario errors:

1. nodes have strictly positive powers normalized to sum exactly 1 (n >= 2);
2. an external contract platform with a perfect oracle exists (modeled as
   plain in-process data, nothing to validate here);
3. r_h > 0 and r_d < r_h for every node;
4. r_m > r_h and r_dp < r_m for every node;
5. 1/2 <= t < 1 and no single node reaches t on its own.

All comparisons against t are strict and exact: power sums landing exactly
on t count as "not enough". Quantities are Fractions at the API and in JSON.
`PowerDistribution` also holds the powers as integer `weights` over one
`scale`, and `threshold_weight(t)` is floor(t * scale): an integer weight sum
exceeds t * scale exactly when it exceeds that integer. `exceeds` and the
payoff rule, on `GameParams.weights` and `t_weight`, make that one test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Iterable, NamedTuple

from .rational import check_fields, format_rational, format_rational_list, parse_rational, parse_rational_list

NodeId = int


class Strategy(Enum):
    """A node's pure strategy."""

    HONEST = "honest"        # run the honest protocol
    MALICIOUS = "malicious"  # run the malicious protocol unconditionally
    COMMIT = "commit"        # commit to the bribery contract and obey its order


class Variant(Enum):
    """Which game a profile belongs to."""

    NO_COLLUSION = "no_collusion"  # strategies {HONEST, MALICIOUS}
    COLLUSION = "collusion"        # strategies {HONEST, COMMIT}


def opposing_strategy(variant: Variant) -> Strategy:
    """The non-honest strategy available in a variant."""
    return Strategy.MALICIOUS if variant is Variant.NO_COLLUSION else Strategy.COMMIT


class ProfileVariantMismatch(ValueError):
    """A strategy profile uses strategies illegal for its game variant."""


@dataclass(frozen=True)
class PowerDistribution:
    """Per-node voting power shares.

    Construction only reads the powers with `parse_rational_list`, as a
    scenario file's are read: a list or tuple of Fractions, ints or rational
    strings, made exact; a float, Decimal or bool is rejected. Whether the
    distribution is admissible (all positive, sums to exactly 1) is a
    validation question answered by `validate_params`.
    """

    powers: tuple[Fraction, ...]
    # the powers as integers over their common denominator `scale`
    weights: tuple[int, ...] = field(init=False, repr=False, compare=False)
    scale: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        powers = parse_rational_list(self.powers, "powers")
        scale = math.lcm(*(p.denominator for p in powers))
        object.__setattr__(self, "powers", powers)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "weights", tuple(p.numerator * (scale // p.denominator) for p in powers))

    def __getitem__(self, index: int) -> Fraction:
        return self.powers[index]

    def __iter__(self):
        return iter(self.powers)

    @property
    def n(self) -> int:
        return len(self.powers)

    def is_normalized(self) -> bool:
        return all(w > 0 for w in self.weights) and sum(self.weights) == self.scale

    def threshold_weight(self, t: Fraction) -> int:
        """floor(t * scale): an integer weight sum exceeds t * scale iff it exceeds this."""
        return t.numerator * self.scale // t.denominator

    def exceeds(self, nodes: Iterable[NodeId], t: Fraction) -> bool:
        """The threshold rule: the joint power of `nodes` is strictly above `t`."""
        return sum(self.weights[i] for i in nodes) > self.threshold_weight(t)


@dataclass(frozen=True)
class GameParams:
    """One parameter set shared by both games.

    Reward vectors are per-node (heterogeneous rewards are allowed).
    Arbitrary candidates are accepted here so that `validate_params` can
    report violations as data.
    """

    powers: PowerDistribution
    threshold_t: Fraction
    reward_honest: tuple[Fraction, ...]
    reward_deviant_vs_honest: tuple[Fraction, ...]
    reward_malicious: tuple[Fraction, ...]
    reward_deviant_vs_malicious: tuple[Fraction, ...]
    # the powers' integer weights and threshold weight: `w > t_weight` is `exceeds`
    weights: tuple[int, ...] = field(init=False, repr=False, compare=False)
    t_weight: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        t = parse_rational(self.threshold_t, "threshold_t")
        object.__setattr__(self, "threshold_t", t)
        object.__setattr__(self, "weights", self.powers.weights)
        object.__setattr__(self, "t_weight", self.powers.threshold_weight(t))
        for name in (
            "reward_honest",
            "reward_deviant_vs_honest",
            "reward_malicious",
            "reward_deviant_vs_malicious",
        ):
            values = parse_rational_list(getattr(self, name), name)
            if len(values) != self.powers.n:
                raise ValueError(f"{name} has {len(values)} entries for {self.powers.n} nodes")
            object.__setattr__(self, name, values)

    @property
    def n(self) -> int:
        return self.powers.n


class AssumptionViolation(NamedTuple):
    """One violated model assumption, found by `validate_params`."""

    assumption: int
    node: NodeId | None
    message: str

    def __str__(self) -> str:
        return self.message


@dataclass(frozen=True)
class StrategyProfile:
    """One strategy per node, tied to a game variant."""

    choices: tuple[Strategy, ...]
    variant: Variant

    def __post_init__(self):
        object.__setattr__(self, "choices", tuple(self.choices))
        opposing = opposing_strategy(self.variant)
        for i, choice in enumerate(self.choices):
            if choice is not Strategy.HONEST and choice is not opposing:
                raise ProfileVariantMismatch(
                    f"node {i} plays {choice.value}, illegal in {self.variant.value}"
                )

    @property
    def n(self) -> int:
        return len(self.choices)

    def with_choice(self, node: NodeId, strategy: Strategy) -> "StrategyProfile":
        choices = list(self.choices)
        choices[node] = strategy
        return StrategyProfile(tuple(choices), self.variant)


def all_honest(n: int, variant: Variant) -> StrategyProfile:
    return StrategyProfile((Strategy.HONEST,) * n, variant)


def all_commit(n: int) -> StrategyProfile:
    return StrategyProfile((Strategy.COMMIT,) * n, Variant.COLLUSION)


def validate_params(params: GameParams) -> list[AssumptionViolation]:
    """Check every model assumption; an empty list means the params are valid.

    Violations are data, not exceptions: each one names the assumption
    number and, where applicable, the offending node index.
    """
    violations: list[AssumptionViolation] = []

    def violated(assumption: int, node: NodeId | None, text: str) -> None:
        violations.append(AssumptionViolation(assumption, node, f"Assumption {assumption}: {text}"))

    fmt = format_rational
    t = params.threshold_t
    if params.n < 2:
        violated(1, None, f"need at least 2 nodes, got {params.n}")
    for i, p in enumerate(params.powers):
        if p <= 0:
            violated(1, i, f"v_{i} = {fmt(p)} is not strictly positive")
    if sum(params.powers.weights) != params.powers.scale:
        violated(1, None, f"powers sum to {fmt(sum(params.powers))}, not 1")
    for i, (r_h, r_d) in enumerate(zip(params.reward_honest, params.reward_deviant_vs_honest)):
        if r_h <= 0:
            violated(3, i, f"r_h_{i} = {fmt(r_h)} is not positive")
        if r_d >= r_h:
            violated(3, i, f"r_d_{i} = {fmt(r_d)} >= r_h_{i} = {fmt(r_h)}")
    for i, (r_h, r_m, r_dp) in enumerate(
        zip(params.reward_honest, params.reward_malicious, params.reward_deviant_vs_malicious)
    ):
        if r_m <= r_h:
            violated(4, i, f"r_m_{i} = {fmt(r_m)} <= r_h_{i} = {fmt(r_h)}")
        if r_dp >= r_m:
            violated(4, i, f"r_dp_{i} = {fmt(r_dp)} >= r_m_{i} = {fmt(r_m)}")
    if t < Fraction(1, 2):
        violated(5, None, f"t = {fmt(t)} < 1/2")
    # t >= 1 makes every protocol unreachable (total power is 1), so the
    # threshold would be meaningless; reported under the same assumption.
    if t >= 1:
        violated(5, None, f"t = {fmt(t)} >= 1, unreachable threshold")
    for i, p in enumerate(params.powers):
        if p >= t:
            violated(5, i, f"v_{i} = {fmt(p)} >= t = {fmt(t)}")
    return violations


def _weight_split(params: GameParams, profile: StrategyProfile) -> tuple[int, int]:
    """Integer weights of the honest side and of the opposing side."""
    if profile.n != params.n:
        raise ValueError(f"profile has {profile.n} choices for {params.n} nodes")
    w_h = sum(w for choice, w in zip(profile.choices, params.weights) if choice is Strategy.HONEST)
    return w_h, sum(params.weights) - w_h


def _payoff_rule(
    params: GameParams, variant: Variant, w_h: int, w_opposing: int
) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """The payoff rule of both games: per-node rewards for honest nodes and
    for opposing nodes, given the power split as integer weights.

    The malicious protocol executes iff v_opposing > t. Otherwise the
    collusion game's contract orders the honest protocol, which then runs
    at full power, so everyone earns r_h. Without collusion the honest
    protocol executes iff v_h > t; if neither side clears t the system
    stalls and pays everyone 0 (the int, which equals `Fraction(0)` and
    compares with an integer reward without a Fraction comparison).

    The split is read only through `> t_weight` tests, so both returned
    tuples are constant on each weight region. In the collusion game there
    are two, w_opposing <= t_weight and w_opposing > t_weight, and
    `_check_t3` calls the rule once for each.
    """
    t = params.t_weight
    if w_opposing > t:
        return params.reward_deviant_vs_malicious, params.reward_malicious
    if variant is Variant.COLLUSION:
        return params.reward_honest, params.reward_honest
    if w_h > t:
        return params.reward_honest, params.reward_deviant_vs_honest
    stall = (0,) * params.n
    return stall, stall


def payoff_vector(params: GameParams, profile: StrategyProfile) -> tuple[Fraction, ...]:
    """All nodes' payoffs for one profile, computing the power split once."""
    honest, opposing = _payoff_rule(params, profile.variant, *_weight_split(params, profile))
    return tuple(
        honest[i] if choice is Strategy.HONEST else opposing[i]
        for i, choice in enumerate(profile.choices)
    )


def utility(params: GameParams, profile: StrategyProfile, node: NodeId) -> Fraction:
    """Payoff of `node` in the game named by the profile's variant."""
    return payoff_vector(params, profile)[node]


# JSON document schema: powers/t/r_h/r_d/r_m/r_dp, rationals as strings.

def params_to_json_dict(params: GameParams) -> dict:
    return {
        "powers": format_rational_list(params.powers),
        "t": format_rational(params.threshold_t),
        "r_h": format_rational_list(params.reward_honest),
        "r_d": format_rational_list(params.reward_deviant_vs_honest),
        "r_m": format_rational_list(params.reward_malicious),
        "r_dp": format_rational_list(params.reward_deviant_vs_malicious),
    }


def params_from_json_dict(doc: dict, context: str = "params") -> GameParams:
    """Parse a params document, naming the missing, invalid or unknown field on error."""
    check_fields(doc, ("powers", "t", "r_h", "r_d", "r_m", "r_dp"), (), context)
    powers = PowerDistribution(parse_rational_list(doc["powers"], f"{context}.powers"))
    return GameParams(
        powers=powers,
        threshold_t=parse_rational(doc["t"], f"{context}.t"),
        reward_honest=parse_rational_list(doc["r_h"], f"{context}.r_h"),
        reward_deviant_vs_honest=parse_rational_list(doc["r_d"], f"{context}.r_d"),
        reward_malicious=parse_rational_list(doc["r_m"], f"{context}.r_m"),
        reward_deviant_vs_malicious=parse_rational_list(doc["r_dp"], f"{context}.r_dp"),
    )
