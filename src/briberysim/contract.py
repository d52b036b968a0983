"""Bribery contract state machine.

The briber (magnate) funds the contract with a deposit to be shared, in
proportion to voting power, among nodes (minions) that commit and then
execute the malicious protocol. Lifecycle:

* init: contract opens with the magnate's deposit and an expiration time;
  the order is the honest protocol;
* commit: a node joins with its own deposit while the contract is open and
  unexpired; once committed power strictly exceeds t (the game's test,
  `PowerDistribution.exceeds`) the order is malicious and commits close, so
  the order never flips back;
* distribute: each minion settles exactly once against an oracle report of
  the attack outcome and of what each minion actually executed -
  share payout on success, plain refund after expiration when the attack
  never succeeded, burned deposit for disobeying an issued order;
* a settlement request that matches none of those outcomes (attack still
  pending) records nothing.

Transitions are pure: every operation returns a new state, built directly
from the old one's fields, so an event log replays to a bit-identical final
state. A state stores only its commits, settlements and clock; the order and
the phase are derived from them. Time is an integer logical clock advanced
explicitly by events. Each call reads its own arguments: an amount with
`rational.parse_rational`, so only exact Fractions reach the arithmetic here,
and a clock time or node index with `rational.parse_int`. An event log line
passes its values to the call unread, so it fails as that call fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple

from .games import NodeId, PowerDistribution
from .rational import check_fields, decode_json, format_rational, parse_bool, parse_int
from .rational import parse_rational, shorten


class ContractError(ValueError):
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
    """The contract's terms. The expiration time is read by `parse_int`, the
    deposit and threshold by `parse_rational`: a Fraction is kept as it is, an
    int or a rational string made exact, a float, Decimal or bool rejected."""

    expiration_time: int
    magnate_deposit: Fraction
    threshold_t: Fraction
    powers: PowerDistribution

    def __post_init__(self):
        object.__setattr__(self, "expiration_time", parse_int(self.expiration_time, "expiration_time"))
        object.__setattr__(self, "magnate_deposit", parse_rational(self.magnate_deposit, "magnate_deposit"))
        object.__setattr__(self, "threshold_t", parse_rational(self.threshold_t, "threshold_t"))


class OracleReport(NamedTuple):
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
    """Immutable contract snapshot; `order` and `phase` are derived, not stored."""

    config: ContractConfig
    minions: Mapping[NodeId, Fraction]  # committed deposits
    # how each settled minion settled, and its recorded payout (0 for burns)
    settlements: Mapping[NodeId, tuple[SettlementOutcome, Fraction]]
    clock: int

    @property
    def order(self) -> Protocol:
        """MALICIOUS once committed power exceeds t; commits close then, so it stays."""
        if self.config.powers.exceeds(self.minions, self.config.threshold_t):
            return Protocol.MALICIOUS
        return Protocol.HONEST

    @property
    def phase(self) -> Phase:
        """SETTLED once every minion (at least one) has settled, else set by `order`."""
        if self.settlements and len(self.settlements) == len(self.minions):
            return Phase.SETTLED
        return Phase.ATTACK_ORDERED if self.order is Protocol.MALICIOUS else Phase.OPEN


def contract_init(config: ContractConfig) -> ContractState:
    """Open a contract: no minions, honest order, clock at zero."""
    if config.magnate_deposit <= 0:
        raise ContractError(f"invalid config: magnate deposit {config.magnate_deposit} must be positive")
    if config.expiration_time <= 0:
        raise ContractError(f"invalid config: expiration time {config.expiration_time} must be > 0")
    if not config.powers.is_normalized():
        raise ContractError("invalid config: powers must be positive and sum to exactly 1")
    if not 0 < config.threshold_t < 1:
        raise ContractError(f"invalid config: threshold {config.threshold_t} not in (0, 1)")
    return ContractState(config=config, minions={}, settlements={}, clock=0)


def contract_commit(state: ContractState, node: NodeId, deposit: Fraction) -> ContractState:
    """Add a minion and its deposit; the order is malicious once power exceeds t.

    Commits are rejected after expiration and after the order has been
    issued: freezing the minion set at trigger time keeps each share
    v_i * D_m well-defined at the moment of the order.
    """
    node = parse_int(node, "node")
    if state.phase is not Phase.OPEN:
        raise ContractError(f"commit rejected: contract phase is {state.phase.value}")
    if state.clock >= state.config.expiration_time:
        raise ContractError(
            f"commit rejected: clock {state.clock} is not before expiration {state.config.expiration_time}"
        )
    if not 0 <= node < state.config.powers.n:
        raise ContractError(f"commit rejected: unknown node {node}")
    if node in state.minions:
        raise ContractError(f"commit rejected: node {node} already committed")
    deposit = parse_rational(deposit, "deposit")
    if deposit <= 0:
        raise ContractError(f"commit rejected: deposit {format_rational(deposit)} must be positive")
    return ContractState(state.config, {**state.minions, node: deposit}, state.settlements, state.clock)


def advance_clock(state: ContractState, to: int) -> ContractState:
    to = parse_int(to, "to")
    if to < state.clock:
        raise ContractError(f"clock cannot regress from {state.clock} to {to}")
    return ContractState(state.config, state.minions, state.settlements, to)


def contract_distribute(
    state: ContractState, node: NodeId, oracle: OracleReport
) -> tuple[ContractState, SettlementOutcome]:
    """Settle one minion against the oracle report.

    Outcomes, checked in order: burned if the node disobeyed an issued
    malicious order; paid v_i * D_m + D_i if the attack succeeded and the
    node executed it; refunded D_i once the clock is past expiration
    (clock > expiration_time) when the attack never succeeded. Otherwise
    nothing is recorded and the outcome is PENDING. At clock ==
    expiration_time commits are already closed but no refund is due yet, so
    a never-successful attack's minion is still PENDING there.
    """
    node = parse_int(node, "node")
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
    return ContractState(state.config, state.minions, settlements, state.clock), outcome


class SettlementSummary(NamedTuple):
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
    minions = state.minions
    weights = state.config.powers.weights
    payouts, burned = {}, {}
    total_deposits = total_payouts = total_burned = Fraction(0)
    paid = 0  # integer weight of the minions paid their share
    for i, (outcome, payout) in sorted(state.settlements.items()):
        deposit = minions[i]
        total_deposits += deposit
        if outcome is SettlementOutcome.BURNED:
            burned[i] = deposit
            total_burned += deposit
        else:
            payouts[i] = payout
            total_payouts += payout
            if outcome is SettlementOutcome.PAID:
                paid += weights[i]
    scale = state.config.powers.scale
    return SettlementSummary(
        payouts=payouts,
        burned_deposits=burned,
        residual_to_magnate=state.config.magnate_deposit * Fraction(scale - paid, scale),
        magnate_deposit=state.config.magnate_deposit,
        total_deposits=total_deposits,
        total_payouts=total_payouts,
        total_burned=total_burned,
    )


# --- Event log (JSON lines) -------------------------------------------------
#
# One JSON object per line, "event" in {init, commit, advance_clock,
# oracle_report, distribute}. An oracle_report line installs the report used
# by subsequent distribute lines. Replaying a log reproduces the final state
# exactly. Each kind has a closed set of keys: a missing or unknown key is an
# error, except that init also accepts and ignores the legacy
# "malicious_protocol_id".

# required and optional keys of each event kind
_EVENT_FIELDS = {
    "init": (("event", "expiration_time", "magnate_deposit", "threshold_t", "powers"),
             ("malicious_protocol_id",)),
    "commit": (("event", "node", "deposit"), ()),
    "advance_clock": (("event", "to"), ()),
    "oracle_report": (("event", "attack_successful"), ("executed_protocol",)),
    "distribute": (("event", "node"), ()),
}
# the same as sets, so that a well-formed line costs one set comparison
_EVENT_KEYS = {kind: (frozenset(req), frozenset(req + opt)) for kind, (req, opt) in _EVENT_FIELDS.items()}


def oracle_from_payload(doc: dict, n: int) -> OracleReport:
    """The oracle report of an `oracle_report` line, for a contract of `n` nodes."""
    entries = doc.get("executed_protocol", {})
    if not isinstance(entries, dict):
        raise ValueError("executed_protocol: expected an object of node -> protocol")
    executed = {}
    for key, value in entries.items():
        # a node index as str() writes it ("00" names no node), checked before
        # int(): a key past 18 digits names no node and may pass int()'s digit limit
        if not (key.isascii() and key.isdigit() and len(key) <= 18 and (key[0] != "0" or key == "0")):
            raise ValueError(f"executed_protocol: key {shorten(key)!r} is not a node index")
        node = int(key)
        if node >= n:
            raise ValueError(f"executed_protocol: key {key!r} is not a node of this contract ({n} nodes)")
        try:
            executed[node] = Protocol(value)
        except ValueError:
            raise ValueError(f"executed_protocol[{key!r}]: {value!r} is not a protocol") from None
    return OracleReport(parse_bool(doc["attack_successful"], "attack_successful"), executed)


class ReplayResult(NamedTuple):
    final_state: ContractState
    outcomes: tuple[tuple[NodeId, SettlementOutcome], ...]

    def summary(self) -> SettlementSummary:
        return settlement_summary(self.final_state)


def replay_events(lines: Iterable[str]) -> ReplayResult:
    """Replay a JSON-lines event log into a final contract state.

    Lines are decoded by `decode_json`, and each line's values pass unread to
    its contract call. A malformed line raises ValueError naming the line and
    the field; a transition the contract forbids raises ContractError (a
    ValueError) naming the line.
    """
    state: ContractState | None = None
    oracle: OracleReport | None = None
    outcomes: list[tuple[NodeId, SettlementOutcome]] = []
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            event = decode_json(line)
            if not isinstance(event, dict):
                raise ValueError("expected a JSON object")
            kind = event.get("event")
            if state is None and kind != "init":
                raise ValueError(f"{kind!r} before init")
            if not isinstance(kind, str) or kind not in _EVENT_KEYS:
                raise ValueError(f"unknown event {kind!r}")
            required, allowed = _EVENT_KEYS[kind]
            if not required <= set(event) <= allowed:
                check_fields(event, *_EVENT_FIELDS[kind], kind)
            if kind == "init":
                if state is not None:
                    raise ValueError("duplicate init")
                state = contract_init(ContractConfig(
                    event["expiration_time"], event["magnate_deposit"], event["threshold_t"],
                    PowerDistribution(event["powers"]),
                ))
            elif kind == "commit":
                state = contract_commit(state, event["node"], event["deposit"])
            elif kind == "advance_clock":
                state = advance_clock(state, event["to"])
            elif kind == "oracle_report":
                oracle = oracle_from_payload(event, state.config.powers.n)
            else:
                if oracle is None:
                    raise ValueError("distribute before any oracle_report")
                state, outcome = contract_distribute(state, event["node"], oracle)
                outcomes.append((event["node"], outcome))
        except ValueError as exc:
            raise type(exc)(f"event log line {line_no}: {exc}") from None
    if state is None:
        raise ValueError("event log contains no init event")
    return ReplayResult(final_state=state, outcomes=tuple(outcomes))
