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
on t count as "not enough". Quantities are Fractions at the API and in JSON;
internally the payoff rule compares integer weights (powers and t scaled by
their common denominator), which decide every threshold test identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Iterable

from .rational import (
    as_fraction,
    as_fractions,
    format_rational,
    format_rational_list,
    parse_rational,
    parse_rational_list,
)

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


LEGAL_STRATEGIES: dict[Variant, frozenset[Strategy]] = {
    Variant.NO_COLLUSION: frozenset({Strategy.HONEST, Strategy.MALICIOUS}),
    Variant.COLLUSION: frozenset({Strategy.HONEST, Strategy.COMMIT}),
}


def opposing_strategy(variant: Variant) -> Strategy:
    """The non-honest strategy available in a variant."""
    return Strategy.MALICIOUS if variant is Variant.NO_COLLUSION else Strategy.COMMIT


class ProfileVariantMismatch(ValueError):
    """A strategy profile uses strategies illegal for its game variant."""


@dataclass(frozen=True)
class PowerDistribution:
    """Per-node voting power shares.

    Construction only coerces values that are not Fractions yet; whether
    the distribution is admissible (all positive, sums to exactly 1) is a
    validation question answered by `validate_params`.
    """

    powers: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "powers", as_fractions(self.powers))

    def __len__(self) -> int:
        return len(self.powers)

    def __getitem__(self, index: int) -> Fraction:
        return self.powers[index]

    def __iter__(self):
        return iter(self.powers)

    @property
    def n(self) -> int:
        return len(self.powers)

    def total(self) -> Fraction:
        # summed as integers over the common denominator, one Fraction at the end
        scale = math.lcm(*(p.denominator for p in self.powers))
        return Fraction(sum(p.numerator * (scale // p.denominator) for p in self.powers), scale)

    def is_normalized(self) -> bool:
        # a Fraction's denominator is positive, so its numerator carries the sign
        return all(p.numerator > 0 for p in self.powers) and self.total() == 1

    def power_of(self, nodes: Iterable[NodeId]) -> Fraction:
        """Joint power of `nodes`, e.g. the minions of a sim or a contract."""
        return sum((self.powers[i] for i in nodes), Fraction(0))


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
    # powers and t as integers over their common denominator
    weights: tuple[int, ...] = field(init=False, repr=False, compare=False)
    t_weight: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        t = as_fraction(self.threshold_t)
        object.__setattr__(self, "threshold_t", t)
        scale = math.lcm(t.denominator, *(p.denominator for p in self.powers))
        object.__setattr__(
            self, "weights", tuple(p.numerator * (scale // p.denominator) for p in self.powers)
        )
        object.__setattr__(self, "t_weight", t.numerator * (scale // t.denominator))
        for name in (
            "reward_honest",
            "reward_deviant_vs_honest",
            "reward_malicious",
            "reward_deviant_vs_malicious",
        ):
            values = as_fractions(getattr(self, name))
            if len(values) != self.powers.n:
                raise ValueError(
                    f"{name} has {len(values)} entries for {self.powers.n} nodes"
                )
            object.__setattr__(self, name, values)

    @property
    def n(self) -> int:
        return self.powers.n


@dataclass(frozen=True)
class AssumptionViolation:
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
        legal = LEGAL_STRATEGIES[self.variant]
        for i, choice in enumerate(self.choices):
            if choice not in legal:
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
    n = params.n
    t = params.threshold_t

    if n < 2:
        violations.append(
            AssumptionViolation(1, None, f"Assumption 1: need at least 2 nodes, got {n}")
        )
    for i, p in enumerate(params.powers):
        if p <= 0:
            violations.append(
                AssumptionViolation(
                    1, i, f"Assumption 1: v_{i} = {format_rational(p)} is not strictly positive"
                )
            )
    total = params.powers.total()
    if total != 1:
        violations.append(
            AssumptionViolation(
                1, None, f"Assumption 1: powers sum to {format_rational(total)}, not 1"
            )
        )

    for i in range(n):
        r_h = params.reward_honest[i]
        r_d = params.reward_deviant_vs_honest[i]
        if r_h <= 0:
            violations.append(
                AssumptionViolation(
                    3, i, f"Assumption 3: r_h_{i} = {format_rational(r_h)} is not positive"
                )
            )
        if r_d >= r_h:
            violations.append(
                AssumptionViolation(
                    3,
                    i,
                    f"Assumption 3: r_d_{i} = {format_rational(r_d)} >= "
                    f"r_h_{i} = {format_rational(r_h)}",
                )
            )

    for i in range(n):
        r_h = params.reward_honest[i]
        r_m = params.reward_malicious[i]
        r_dp = params.reward_deviant_vs_malicious[i]
        if r_m <= r_h:
            violations.append(
                AssumptionViolation(
                    4,
                    i,
                    f"Assumption 4: r_m_{i} = {format_rational(r_m)} <= "
                    f"r_h_{i} = {format_rational(r_h)}",
                )
            )
        if r_dp >= r_m:
            violations.append(
                AssumptionViolation(
                    4,
                    i,
                    f"Assumption 4: r_dp_{i} = {format_rational(r_dp)} >= "
                    f"r_m_{i} = {format_rational(r_m)}",
                )
            )

    if t < Fraction(1, 2):
        violations.append(
            AssumptionViolation(5, None, f"Assumption 5: t = {format_rational(t)} < 1/2")
        )
    # t >= 1 makes every protocol unreachable (total power is 1), so the
    # threshold would be meaningless; reported under the same assumption.
    if t >= 1:
        violations.append(
            AssumptionViolation(
                5, None, f"Assumption 5: t = {format_rational(t)} >= 1, unreachable threshold"
            )
        )
    for i, p in enumerate(params.powers):
        if p >= t:
            violations.append(
                AssumptionViolation(
                    5, i, f"Assumption 5: v_{i} = {format_rational(p)} >= t = {format_rational(t)}"
                )
            )

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
    stalls and pays everyone 0.
    """
    t = params.t_weight
    if w_opposing > t:
        return params.reward_deviant_vs_malicious, params.reward_malicious
    if variant is Variant.COLLUSION:
        return params.reward_honest, params.reward_honest
    if w_h > t:
        return params.reward_honest, params.reward_deviant_vs_honest
    stall = (Fraction(0),) * params.n
    return stall, stall


def utility(params: GameParams, profile: StrategyProfile, node: NodeId) -> Fraction:
    """Payoff of `node` in the game named by the profile's variant."""
    honest, opposing = _payoff_rule(params, profile.variant, *_weight_split(params, profile))
    return honest[node] if profile.choices[node] is Strategy.HONEST else opposing[node]


def payoff_vector(params: GameParams, profile: StrategyProfile) -> tuple[Fraction, ...]:
    """All nodes' payoffs for one profile, computing the power split once."""
    honest, opposing = _payoff_rule(params, profile.variant, *_weight_split(params, profile))
    return tuple(
        honest[i] if choice is Strategy.HONEST else opposing[i]
        for i, choice in enumerate(profile.choices)
    )


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
    """Parse a params document, naming the missing/invalid field on error."""
    if not isinstance(doc, dict):
        raise ValueError(f"{context}: expected an object")
    for key in ("powers", "t", "r_h", "r_d", "r_m", "r_dp"):
        if key not in doc:
            raise ValueError(f"{context}: missing field '{key}'")
    powers = PowerDistribution(parse_rational_list(doc["powers"], f"{context}.powers"))
    return GameParams(
        powers=powers,
        threshold_t=parse_rational(doc["t"], f"{context}.t"),
        reward_honest=parse_rational_list(doc["r_h"], f"{context}.r_h"),
        reward_deviant_vs_honest=parse_rational_list(doc["r_d"], f"{context}.r_d"),
        reward_malicious=parse_rational_list(doc["r_m"], f"{context}.r_m"),
        reward_deviant_vs_malicious=parse_rational_list(doc["r_dp"], f"{context}.r_dp"),
    )
