"""Bribery contract state machine.

The briber (magnate) funds the contract with a deposit to be shared, in
proportion to voting power, among nodes (minions) that commit and then
execute the malicious protocol. Lifecycle:

* init: contract opens with the magnate's deposit, an expiration time, and
  the order set to the honest protocol;
* commit: a node joins with its own deposit while the contract is open and
  unexpired; the moment committed power strictly exceeds the threshold the
  order flips, irreversibly, to the malicious protocol;
* distribute: each minion settles exactly once against an oracle report of
  the attack outcome and of what each minion actually executed -
  share payout on success, plain refund after expiration when the attack
  never succeeded, burned deposit for disobeying an issued order;
* a settlement request that matches none of those outcomes (attack still
  pending) records nothing.

Transitions are pure: every operation returns a new state, so an event log
replays to a bit-identical final state. Time is an integer logical clock
advanced explicitly by events.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from typing import Iterable, Mapping

from .games import NodeId, PowerDistribution
from .rational import format_rational, parse_bool, parse_int, parse_rational, parse_rational_list


class ContractError(Exception):
    """Violation of a contract precondition (double commit, bad clock, ...)."""


class Protocol(Enum):
    HONEST = "honest"
    MALICIOUS = "malicious"


class Phase(Enum):
    OPEN = "open"
    ATTACK_ORDERED = "attack_ordered"
    SETTLED = "settled"


class SettlementOutcome(Enum):
    PAID = "paid"          # attack succeeded and the node executed the order
    REFUNDED = "refunded"  # attack never succeeded; deposit returned after expiration
    BURNED = "burned"      # node disobeyed an issued order; deposit destroyed
    PENDING = "pending"    # none of the above applies yet; nothing recorded


@dataclass(frozen=True)
class ContractConfig:
    expiration_time: int
    magnate_deposit: Fraction
    threshold_t: Fraction
    powers: PowerDistribution

    def __post_init__(self):
        object.__setattr__(self, "magnate_deposit", Fraction(self.magnate_deposit))
        object.__setattr__(self, "threshold_t", Fraction(self.threshold_t))


@dataclass(frozen=True)
class OracleReport:
    """Trusted report of the attack outcome and per-minion execution."""

    attack_successful: bool
    executed_protocol: Mapping[NodeId, Protocol]

    def executed(self, node: NodeId) -> Protocol:
        try:
            return self.executed_protocol[node]
        except KeyError:
            raise ContractError(f"oracle report does not cover node {node}") from None


@dataclass(frozen=True)
class ContractState:
    """Immutable contract snapshot; mappings are never mutated in place."""

    config: ContractConfig
    phase: Phase
    order: Protocol
    minions: Mapping[NodeId, Fraction]  # committed deposits
    # how each settled minion settled, and its recorded payout (0 for burns)
    settlements: Mapping[NodeId, tuple[SettlementOutcome, Fraction]]
    clock: int


def contract_init(config: ContractConfig) -> ContractState:
    """Open a contract: no minions, honest order, clock at zero."""
    if config.magnate_deposit <= 0:
        raise ContractError(
            f"invalid config: magnate deposit {format_rational(config.magnate_deposit)} "
            "must be positive"
        )
    if config.expiration_time <= 0:
        raise ContractError(f"invalid config: expiration time {config.expiration_time} must be > 0")
    if not config.powers.is_normalized():
        raise ContractError("invalid config: powers must be positive and sum to exactly 1")
    if not 0 < config.threshold_t < 1:
        raise ContractError(
            f"invalid config: threshold {format_rational(config.threshold_t)} not in (0, 1)"
        )
    return ContractState(
        config=config,
        phase=Phase.OPEN,
        order=Protocol.HONEST,
        minions={},
        settlements={},
        clock=0,
    )


def contract_commit(state: ContractState, node: NodeId, deposit: Fraction) -> ContractState:
    """Add a minion and its deposit; flip the order once power exceeds t.

    Commits are rejected after expiration and after the order has been
    issued: freezing the minion set at trigger time keeps each share
    v_i * D_m well-defined at the moment of the order.
    """
    if state.phase is not Phase.OPEN:
        raise ContractError(f"commit rejected: contract phase is {state.phase.value}")
    if state.clock >= state.config.expiration_time:
        raise ContractError(f"commit rejected: clock {state.clock} is past expiration")
    if not 0 <= node < state.config.powers.n:
        raise ContractError(f"commit rejected: unknown node {node}")
    if node in state.minions:
        raise ContractError(f"commit rejected: node {node} already committed")
    deposit = Fraction(deposit)
    if deposit <= 0:
        raise ContractError(f"commit rejected: deposit {format_rational(deposit)} must be positive")
    minions = dict(state.minions)
    minions[node] = deposit
    new_state = replace(state, minions=minions)
    if state.config.powers.power_of(minions) > state.config.threshold_t:
        new_state = replace(new_state, phase=Phase.ATTACK_ORDERED, order=Protocol.MALICIOUS)
    return new_state


def advance_clock(state: ContractState, to: int) -> ContractState:
    if to < state.clock:
        raise ContractError(f"clock cannot regress from {state.clock} to {to}")
    return replace(state, clock=to)


def contract_distribute(
    state: ContractState, node: NodeId, oracle: OracleReport
) -> tuple[ContractState, SettlementOutcome]:
    """Settle one minion against the oracle report.

    Outcomes, checked in order: burned if the node disobeyed an issued
    malicious order; paid v_i * D_m + D_i if the attack succeeded and the
    node executed it; refunded D_i after expiration when the attack never
    succeeded. Otherwise nothing is recorded and the outcome is PENDING.
    """
    if node not in state.minions:
        raise ContractError(f"distribute rejected: node {node} never committed")
    if node in state.settlements:
        raise ContractError(f"distribute rejected: node {node} already settled")
    executed = oracle.executed(node)
    deposit = state.minions[node]

    if state.order is Protocol.MALICIOUS and executed is Protocol.HONEST:
        outcome, payout = SettlementOutcome.BURNED, Fraction(0)
    elif oracle.attack_successful and executed is Protocol.MALICIOUS:
        outcome = SettlementOutcome.PAID
        payout = state.config.powers[node] * state.config.magnate_deposit + deposit
    elif not oracle.attack_successful and state.clock > state.config.expiration_time:
        outcome, payout = SettlementOutcome.REFUNDED, deposit
    else:
        return state, SettlementOutcome.PENDING

    settlements = {**state.settlements, node: (outcome, payout)}
    phase = Phase.SETTLED if len(settlements) == len(state.minions) else state.phase
    return replace(state, settlements=settlements, phase=phase), outcome


@dataclass(frozen=True)
class SettlementSummary:
    """Final ledger: who got what, what was burned, what returns to the magnate."""

    payouts: dict[NodeId, Fraction]
    burned_deposits: dict[NodeId, Fraction]
    residual_to_magnate: Fraction
    magnate_deposit: Fraction
    total_deposits: Fraction
    total_payouts: Fraction
    total_burned: Fraction

    def conservation_holds(self) -> bool:
        return (
            self.total_payouts + self.total_burned + self.residual_to_magnate
            == self.magnate_deposit + self.total_deposits
        )

    def to_payload(self) -> dict:
        return {
            "payouts": {str(i): format_rational(v) for i, v in sorted(self.payouts.items())},
            "burned_deposits": {
                str(i): format_rational(v) for i, v in sorted(self.burned_deposits.items())
            },
            "residual_to_magnate": format_rational(self.residual_to_magnate),
            "magnate_deposit": format_rational(self.magnate_deposit),
            "total_deposits": format_rational(self.total_deposits),
            "total_payouts": format_rational(self.total_payouts),
            "total_burned": format_rational(self.total_burned),
            "conservation_holds": self.conservation_holds(),
        }


def settlement_summary(state: ContractState) -> SettlementSummary:
    """Summarize a fully settled contract.

    The residual is the unclaimed share of the magnate deposit,
    D_m * (1 - sum of rewarded powers); burned minion deposits are reported
    separately (they are destroyed, not returned). Together this balances
    exactly: payouts + burns + residual == D_m + all deposits.
    """
    unsettled = set(state.minions) - set(state.settlements)
    if unsettled:
        raise ContractError(f"unsettled minions remain: {sorted(unsettled)}")
    settled = sorted(state.settlements.items())
    payouts = {i: paid for i, (outcome, paid) in settled if outcome is not SettlementOutcome.BURNED}
    burned = {i: state.minions[i] for i, (outcome, _) in settled if outcome is SettlementOutcome.BURNED}
    rewarded_power = sum(
        (state.config.powers[i] for i, (outcome, _) in settled if outcome is SettlementOutcome.PAID),
        Fraction(0),
    )
    residual = state.config.magnate_deposit * (1 - rewarded_power)
    return SettlementSummary(
        payouts=payouts,
        burned_deposits=burned,
        residual_to_magnate=residual,
        magnate_deposit=state.config.magnate_deposit,
        total_deposits=sum(state.minions.values(), Fraction(0)),
        total_payouts=sum(payouts.values(), Fraction(0)),
        total_burned=sum(burned.values(), Fraction(0)),
    )


# --- Event log (JSON lines) -------------------------------------------------
#
# One JSON object per line, "event" in {init, commit, advance_clock,
# oracle_report, distribute}. An oracle_report line installs the report used
# by subsequent distribute lines. Replaying a log reproduces the final state
# exactly. Unknown keys are ignored (old logs carry "malicious_protocol_id").

def _field(doc: dict, key: str, parse):
    if key not in doc:
        raise ValueError(f"missing field '{key}'")
    return parse(doc[key], key)


def config_from_payload(doc: dict) -> ContractConfig:
    return ContractConfig(
        expiration_time=_field(doc, "expiration_time", parse_int),
        magnate_deposit=_field(doc, "magnate_deposit", parse_rational),
        threshold_t=_field(doc, "threshold_t", parse_rational),
        powers=PowerDistribution(_field(doc, "powers", parse_rational_list)),
    )


def oracle_from_payload(doc: dict) -> OracleReport:
    entries = doc.get("executed_protocol", {})
    if not isinstance(entries, dict):
        raise ValueError("executed_protocol: expected an object of node -> protocol")
    executed = {}
    for key, value in entries.items():
        if not (key.isascii() and key.isdigit()):
            raise ValueError(f"executed_protocol: key {key!r} is not a node index")
        try:
            executed[int(key)] = Protocol(value)
        except ValueError:
            raise ValueError(f"executed_protocol[{key!r}]: {value!r} is not a protocol") from None
    return OracleReport(
        attack_successful=_field(doc, "attack_successful", parse_bool), executed_protocol=executed
    )


@dataclass(frozen=True)
class ReplayResult:
    final_state: ContractState
    outcomes: tuple[tuple[NodeId, SettlementOutcome], ...]

    def summary(self) -> SettlementSummary:
        return settlement_summary(self.final_state)


def replay_events(lines: Iterable[str]) -> ReplayResult:
    """Replay a JSON-lines event log into a final contract state.

    A malformed line raises ValueError naming the line and the field; a
    transition the contract forbids raises ContractError naming the line.
    """
    state: ContractState | None = None
    oracle: OracleReport | None = None
    outcomes: list[tuple[NodeId, SettlementOutcome]] = []
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            event = json.loads(line)
        except ValueError as exc:
            raise ValueError(f"event log line {line_no}: invalid JSON: {exc}") from exc
        try:
            if not isinstance(event, dict):
                raise ValueError("expected a JSON object")
            kind = event.get("event")
            if kind == "init":
                if state is not None:
                    raise ValueError("duplicate init")
                state = contract_init(config_from_payload(event))
            elif state is None:
                raise ValueError(f"{kind!r} before init")
            elif kind == "commit":
                node = _field(event, "node", parse_int)
                state = contract_commit(state, node, _field(event, "deposit", parse_rational))
            elif kind == "advance_clock":
                state = advance_clock(state, _field(event, "to", parse_int))
            elif kind == "oracle_report":
                oracle = oracle_from_payload(event)
            elif kind == "distribute":
                if oracle is None:
                    raise ValueError("distribute before any oracle_report")
                node = _field(event, "node", parse_int)
                state, outcome = contract_distribute(state, node, oracle)
                outcomes.append((node, outcome))
            else:
                raise ValueError(f"unknown event {kind!r}")
        except ValueError as exc:
            raise ValueError(f"event log line {line_no}: {exc}") from None
        except ContractError as exc:
            raise ContractError(f"event log line {line_no}: {exc}") from None
    if state is None:
        raise ValueError("event log contains no init event")
    return ReplayResult(final_state=state, outcomes=tuple(outcomes))
