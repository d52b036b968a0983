"""Shared randomized-session builders for contract tests."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from briberysim import (
    ContractConfig,
    ContractState,
    OracleReport,
    PowerDistribution,
    Protocol,
    SettlementOutcome,
    advance_clock,
    contract_commit,
    contract_distribute,
    contract_init,
)


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
