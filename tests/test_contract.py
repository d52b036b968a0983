"""Tests for the bribery contract state machine and its event log."""

import json
import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import fields, replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from briberysim import (
    ContractConfig,
    ContractError,
    ContractState,
    GameParams,
    OracleReport,
    Phase,
    PowerDistribution,
    Protocol,
    SettlementOutcome,
    Strategy,
    StrategyProfile,
    Variant,
    advance_clock,
    contract_commit,
    contract_distribute,
    contract_init,
    payoff_vector,
    replay_events,
    settlement_summary,
)
from briberysim.cli import main
from helpers import random_contract_session, reference_phases

P3_POWERS = PowerDistribution(("2/5", "7/20", "1/4"))


def p3_config(magnate_deposit="9", expiration=100) -> ContractConfig:
    return ContractConfig(
        expiration_time=expiration,
        magnate_deposit=Fraction(magnate_deposit),
        threshold_t=Fraction(1, 2),
        powers=P3_POWERS,
    )


class TestInit:
    def test_opens_with_honest_order(self):
        state = contract_init(p3_config())
        assert state.phase is Phase.OPEN
        assert state.order is Protocol.HONEST
        assert dict(state.minions) == {}
        assert state.clock == 0

    def test_zero_magnate_deposit_rejected(self):
        with pytest.raises(ContractError, match="magnate deposit"):
            contract_init(p3_config(magnate_deposit="0"))

    def test_zero_expiration_rejected(self):
        with pytest.raises(ContractError, match="expiration"):
            contract_init(p3_config(expiration=0))

    def test_unnormalized_powers_rejected(self):
        config = ContractConfig(100, Fraction(9), Fraction(1, 2), PowerDistribution(("1/2", "1/4")))
        with pytest.raises(ContractError, match="powers"):
            contract_init(config)

    @pytest.mark.parametrize("t", ["-1", "0", "1", "3/2"])
    def test_threshold_outside_unit_interval_rejected(self, t):
        config = replace(p3_config(), threshold_t=Fraction(t))
        with pytest.raises(ContractError, match=rf"^invalid config: threshold {t} not in \(0, 1\)$"):
            contract_init(config)


class TestCommit:
    def test_below_threshold_stays_open(self):
        state = contract_commit(contract_init(p3_config()), 0, Fraction(9))
        assert state.phase is Phase.OPEN and state.order is Protocol.HONEST
        assert state.minions[0] == 9

    def test_crossing_threshold_orders_attack(self):
        state = contract_commit(contract_init(p3_config()), 0, Fraction(9))
        state = contract_commit(state, 1, Fraction(9))  # 2/5 + 7/20 = 3/4 > 1/2
        assert state.phase is Phase.ATTACK_ORDERED
        assert state.order is Protocol.MALICIOUS

    def test_power_exactly_at_threshold_does_not_trigger(self):
        powers = PowerDistribution(("1/2", "1/4", "1/4"))
        config = ContractConfig(100, Fraction(9), Fraction(1, 2), powers)
        state = contract_commit(contract_init(config), 0, Fraction(9))
        assert state.order is Protocol.HONEST  # 1/2 == t is not enough

    def test_double_commit_rejected(self):
        state = contract_commit(contract_init(p3_config()), 0, Fraction(9))
        with pytest.raises(ContractError, match="already committed"):
            contract_commit(state, 0, Fraction(9))

    def test_commit_after_attack_ordered_rejected(self):
        state = contract_commit(contract_init(p3_config()), 0, Fraction(9))
        state = contract_commit(state, 1, Fraction(9))
        with pytest.raises(ContractError, match="phase"):
            contract_commit(state, 2, Fraction(9))

    def test_commit_after_expiration_rejected(self):
        state = advance_clock(contract_init(p3_config()), 100)
        with pytest.raises(ContractError, match="expiration"):
            contract_commit(state, 0, Fraction(9))

    def test_commit_at_expiration_rejected_naming_it(self):
        state = advance_clock(contract_init(p3_config(expiration=10)), 10)
        message = "^commit rejected: clock 10 is not before expiration 10$"
        with pytest.raises(ContractError, match=message):
            contract_commit(state, 0, Fraction(9))

    def test_unknown_node_rejected(self):
        with pytest.raises(ContractError, match="unknown node"):
            contract_commit(contract_init(p3_config()), 7, Fraction(9))

    def test_nonpositive_deposit_rejected(self):
        with pytest.raises(ContractError, match="deposit"):
            contract_commit(contract_init(p3_config()), 0, Fraction(0))

    def test_float_deposit_rejected_naming_it(self):
        # kept as floats, deposits 0.1 and 0.2 would settle as payouts {0: 3.7, 1: 3.35}
        with pytest.raises(ValueError) as raised:
            contract_commit(contract_init(p3_config()), 0, 0.1)
        assert str(raised.value) == "deposit: expected a rational string, got float"

    def test_string_deposit_read_exactly(self):
        state = contract_commit(contract_init(p3_config()), 0, "1/10")
        state = contract_commit(state, 1, "0.2")
        assert sum(state.minions.values()) == Fraction(3, 10)

    def test_float_deposit_read_after_the_other_checks(self):
        opened = contract_init(p3_config())
        committed = contract_commit(opened, 0, 9)
        for state, node, message in [
            (contract_commit(committed, 1, 9), 2, "phase is attack_ordered"),
            (advance_clock(opened, 100), 0, "is not before expiration"),
            (opened, 7, "unknown node 7"),
            (committed, 0, "node 0 already committed"),
        ]:
            with pytest.raises(ContractError, match=message):
                contract_commit(state, node, 0.1)


class TestClock:
    def test_advance(self):
        assert advance_clock(contract_init(p3_config()), 50).clock == 50

    def test_idempotent(self):
        state = advance_clock(contract_init(p3_config()), 50)
        assert advance_clock(state, 50) == state

    def test_regression_rejected(self):
        state = advance_clock(contract_init(p3_config()), 50)
        with pytest.raises(ContractError, match="regress"):
            advance_clock(state, 10)


def _ordered_state():
    state = contract_commit(contract_init(p3_config()), 0, Fraction(9))
    return contract_commit(state, 1, Fraction(9))


class TestDistribute:
    def test_successful_executor_paid_power_share_plus_deposit(self):
        oracle = OracleReport(True, {0: Protocol.MALICIOUS, 1: Protocol.MALICIOUS})
        state, outcome = contract_distribute(_ordered_state(), 0, oracle)
        assert outcome is SettlementOutcome.PAID
        assert state.settlements[0][1] == Fraction(63, 5)  # (2/5)*9 + 9

    def test_refund_after_expiration_when_never_triggered(self):
        state = contract_commit(contract_init(p3_config()), 0, Fraction(9))
        state = advance_clock(state, 101)
        oracle = OracleReport(False, {0: Protocol.HONEST})
        state, outcome = contract_distribute(state, 0, oracle)
        assert outcome is SettlementOutcome.REFUNDED
        assert state.settlements[0][1] == 9

    def test_refund_due_only_after_expiration(self):
        # at clock == expiration_time commits are closed but no refund is due yet
        state = contract_commit(contract_init(p3_config(expiration=10)), 0, Fraction(9))
        oracle = OracleReport(False, {0: Protocol.HONEST})
        at_expiration = advance_clock(state, 10)
        pending = (at_expiration, SettlementOutcome.PENDING)
        assert contract_distribute(at_expiration, 0, oracle) == pending
        _, outcome = contract_distribute(advance_clock(state, 11), 0, oracle)
        assert outcome is SettlementOutcome.REFUNDED

    def test_defector_burned(self):
        oracle = OracleReport(True, {0: Protocol.HONEST, 1: Protocol.MALICIOUS})
        state, outcome = contract_distribute(_ordered_state(), 0, oracle)
        assert outcome is SettlementOutcome.BURNED
        assert state.settlements[0][1] == 0
        assert state.settlements[0][0] is SettlementOutcome.BURNED

    def test_pending_while_attack_unresolved(self):
        # ordered, not yet successful, not expired: nothing recorded
        state = _ordered_state()
        oracle = OracleReport(False, {0: Protocol.MALICIOUS, 1: Protocol.MALICIOUS})
        new_state, outcome = contract_distribute(state, 0, oracle)
        assert outcome is SettlementOutcome.PENDING
        assert new_state == state

    def test_failed_ordered_attack_refunds_executors_and_burns_defectors(self):
        state = advance_clock(_ordered_state(), 101)
        oracle = OracleReport(False, {0: Protocol.MALICIOUS, 1: Protocol.HONEST})
        state, outcome0 = contract_distribute(state, 0, oracle)
        state, outcome1 = contract_distribute(state, 1, oracle)
        assert outcome0 is SettlementOutcome.REFUNDED
        assert outcome1 is SettlementOutcome.BURNED

    def test_double_settlement_rejected(self):
        oracle = OracleReport(True, {0: Protocol.MALICIOUS, 1: Protocol.MALICIOUS})
        state, _ = contract_distribute(_ordered_state(), 0, oracle)
        with pytest.raises(ContractError, match="already settled"):
            contract_distribute(state, 0, oracle)

    def test_unknown_node_rejected(self):
        oracle = OracleReport(True, {2: Protocol.MALICIOUS})
        with pytest.raises(ContractError, match="never committed"):
            contract_distribute(_ordered_state(), 2, oracle)

    def test_oracle_must_cover_the_minion(self):
        oracle = OracleReport(True, {1: Protocol.MALICIOUS})
        with pytest.raises(ContractError, match="does not cover"):
            contract_distribute(_ordered_state(), 0, oracle)


class TestSettlementSummary:
    def test_two_successful_minions(self):
        oracle = OracleReport(True, {0: Protocol.MALICIOUS, 1: Protocol.MALICIOUS})
        state, _ = contract_distribute(_ordered_state(), 0, oracle)
        state, _ = contract_distribute(state, 1, oracle)
        assert state.phase is Phase.SETTLED
        summary = settlement_summary(state)
        assert summary.payouts == {0: Fraction(63, 5), 1: Fraction(243, 20)}
        assert summary.residual_to_magnate == Fraction(9, 4)  # 9 * (1 - 3/4)
        assert summary.conservation_holds()

    def test_no_minions_returns_full_deposit(self):
        state = advance_clock(contract_init(p3_config()), 101)
        summary = settlement_summary(state)
        assert summary.residual_to_magnate == 9
        assert summary.total_payouts == 0 and summary.total_burned == 0

    def test_burned_deposit_reported(self):
        oracle = OracleReport(True, {0: Protocol.HONEST, 1: Protocol.MALICIOUS})
        state, _ = contract_distribute(_ordered_state(), 0, oracle)
        state, _ = contract_distribute(state, 1, oracle)
        summary = settlement_summary(state)
        assert summary.total_burned == 9
        assert summary.burned_deposits == {0: Fraction(9)}
        assert summary.conservation_holds()

    def test_unsettled_minions_rejected(self):
        with pytest.raises(ContractError, match="unsettled"):
            settlement_summary(_ordered_state())


def phase_and_order_sequence(t: Fraction, steps) -> list[tuple[str, str]]:
    """`(phase, order)` after init and after each `(kind, node)` step on p3
    powers at `t`: commits of 9, and distributes against an oracle reporting
    success with every minion running malicious (so each one is paid)."""
    state = contract_init(replace(p3_config(), threshold_t=t))
    oracle = OracleReport(True, {node: Protocol.MALICIOUS for node in range(3)})
    seen = [(state.phase.value, state.order.value)]
    for kind, node in steps:
        if kind == "commit":
            state = contract_commit(state, node, Fraction(9))
        else:
            state, outcome = contract_distribute(state, node, oracle)
            assert outcome is SettlementOutcome.PAID
        seen.append((state.phase.value, state.order.value))
    return seen


class TestDerivedOrderAndPhase:
    def test_state_stores_only_commits_settlements_and_clock(self):
        assert [f.name for f in fields(ContractState)] == ["config", "minions", "settlements", "clock"]

    def test_paid_without_order_settles_honest(self):
        seen = phase_and_order_sequence(Fraction(1, 2), [("commit", 0), ("distribute", 0)])
        assert seen == [("open", "honest")] * 2 + [("settled", "honest")]

    def test_partial_settlement_then_order(self):
        steps = [("commit", 0), ("commit", 2), ("distribute", 0), ("commit", 1),
                 ("distribute", 2), ("distribute", 1)]
        assert phase_and_order_sequence(Fraction(3, 4), steps) == (
            [("open", "honest")] * 4
            + [("attack_ordered", "malicious")] * 2
            + [("settled", "malicious")]
        )

    def test_phase_after_every_event_matches_the_event_history(self):
        rng = random.Random(1414)
        phases = Counter()
        for _ in range(500):
            session = random_contract_session(rng)
            assert session.phase_history == reference_phases(session), session.events
            phases.update(session.phase_history)
        assert all(phases[phase] > 0 for phase in Phase)


class TestRandomizedProperties:
    def test_conservation_over_random_sessions(self):
        rng = random.Random(2026)
        for _ in range(1000):
            session = random_contract_session(rng)
            summary = settlement_summary(session.final_state)
            assert (
                summary.total_payouts + summary.total_burned + summary.residual_to_magnate
                == summary.magnate_deposit + summary.total_deposits
            )

    def test_order_is_monotone(self):
        rng = random.Random(77)
        for _ in range(500):
            session = random_contract_session(rng)
            seen_malicious = False
            for order in session.order_history:
                if order is Protocol.MALICIOUS:
                    seen_malicious = True
                elif seen_malicious:
                    pytest.fail("order reverted from malicious to honest")

    def test_trigger_iff_some_commit_prefix_exceeds_threshold(self):
        rng = random.Random(88)
        for _ in range(500):
            session = random_contract_session(rng)
            expected = any(p > session.config.threshold_t for p in session.commit_power_prefix)
            assert (session.final_state.order is Protocol.MALICIOUS) == expected

    def test_commitment_is_risk_free_without_trigger(self):
        rng = random.Random(99)
        for _ in range(500):
            session = random_contract_session(rng, force_no_trigger=True)
            assert session.final_state.order is Protocol.HONEST
            for node, deposit in session.deposits.items():
                assert session.outcomes[node] is SettlementOutcome.REFUNDED
                assert session.final_state.settlements[node][1] == deposit

    def test_transitions_leave_every_earlier_state_unchanged(self):
        # every operation returns a new state: a commit, clock or settlement
        # that wrote into the dicts it was given would change a state seen earlier
        rng = random.Random(4242)
        for _ in range(300):
            session = random_contract_session(rng)
            assert len(session.snapshots) == len(session.events)
            for state, snapshot in session.snapshots:
                assert state == snapshot

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_conservation_property(self, seed):
        session = random_contract_session(random.Random(seed))
        assert settlement_summary(session.final_state).conservation_holds()


def agreement_instances():
    """(powers, thresholds) pairs: p3 at t = 3/4, where {0, 1} holds exactly t,
    then random integer-weight networks of 2-6 nodes at t = 1/2, 2/3, 3/4 and
    at the exact power of one of their subsets."""
    yield P3_POWERS, [Fraction(3, 4)]
    rng = random.Random(310)
    for _ in range(100):
        n = rng.randint(2, 6)
        weights = [rng.randint(1, 12) for _ in range(n)]
        total = sum(weights)
        subset = rng.sample(range(n), rng.randint(1, n - 1))
        exact = Fraction(sum(weights[i] for i in subset), total)
        powers = PowerDistribution(tuple(Fraction(w, total) for w in weights))
        yield powers, [Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), exact]


class TestContractRealisesTheGame:
    def test_game_contract_and_exceeds_agree_on_every_commit_set(self):
        # for every commit set S: the collusion game executes the malicious
        # protocol (some payoff is not r_h, as r_m != r_h and r_dp != r_h),
        # the contract orders it when S commits in ascending order, and
        # powers.exceeds(S, t) all say the same
        at_threshold = 0
        for powers, thresholds in agreement_instances():
            n = powers.n
            for t in thresholds:
                params = GameParams(powers, t, (2,) * n, (1,) * n, (5,) * n, (-3,) * n)
                for mask in range(1 << n):
                    committed = [i for i in range(n) if mask >> i & 1]
                    choices = tuple(
                        Strategy.COMMIT if mask >> i & 1 else Strategy.HONEST for i in range(n)
                    )
                    profile = StrategyProfile(choices, Variant.COLLUSION)
                    game = payoff_vector(params, profile) != params.reward_honest
                    state = contract_init(ContractConfig(100, Fraction(9), t, powers))
                    for node in committed:
                        state = contract_commit(state, node, Fraction(1))
                        if state.phase is Phase.ATTACK_ORDERED:
                            break
                    contract = state.phase is Phase.ATTACK_ORDERED
                    assert game == contract == powers.exceeds(committed, t), (powers, t, committed)
                    at_threshold += sum(powers[i] for i in committed) == t
        assert at_threshold > 100  # the boundary, where > and >= differ, is checked


class TestEventLogReplay:
    def test_golden_fixture_replays_to_settled_state(self):
        fixture = Path(__file__).resolve().parent.parent / "scenarios" / "p3_contract_events.jsonl"
        with open(fixture, "r", encoding="utf-8") as fh:
            replay = replay_events(fh)
        state = replay.final_state
        assert state.phase is Phase.SETTLED
        assert state.order is Protocol.MALICIOUS
        summary = replay.summary()
        assert summary.payouts == {0: Fraction(63, 5), 1: Fraction(243, 20)}
        assert summary.residual_to_magnate == Fraction(9, 4)

    def test_replay_sums_each_state_order_at_most_once(self, monkeypatch):
        built, calls = [], []
        init, exceeds = ContractState.__init__, PowerDistribution.exceeds

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        def counting_exceeds(self, nodes, t):
            calls.append(self)
            return exceeds(self, nodes, t)

        monkeypatch.setattr(ContractState, "__init__", counting_init)
        monkeypatch.setattr(PowerDistribution, "exceeds", counting_exceeds)
        fixture = Path(__file__).resolve().parent.parent / "scenarios" / "p3_contract_events.jsonl"
        with open(fixture, "r", encoding="utf-8") as fh:
            replay = replay_events(fh)
        # a commit reads the order of the state it extends, a distribute the
        # order of the state it settles: each state's order is summed at most once
        assert 0 < len(calls) <= len(built)
        assert replay.final_state.order is Protocol.MALICIOUS

    def test_replay_matches_direct_construction(self):
        lines = [
            '{"event": "init", "expiration_time": 100, "magnate_deposit": "9",'
            ' "threshold_t": "1/2", "powers": ["2/5", "7/20", "1/4"]}',
            '{"event": "commit", "node": 0, "deposit": "9"}',
            '{"event": "commit", "node": 1, "deposit": "9"}',
            '{"event": "oracle_report", "attack_successful": true,'
            ' "executed_protocol": {"0": "malicious", "1": "malicious"}}',
            '{"event": "distribute", "node": 0}',
            '{"event": "distribute", "node": 1}',
        ]
        replay = replay_events(lines)
        oracle = OracleReport(True, {0: Protocol.MALICIOUS, 1: Protocol.MALICIOUS})
        state, _ = contract_distribute(_ordered_state(), 0, oracle)
        state, _ = contract_distribute(state, 1, oracle)
        assert replay.final_state == state
        assert [o for _, o in replay.outcomes] == [SettlementOutcome.PAID] * 2

    def test_distribute_before_oracle_rejected(self):
        lines = [
            '{"event": "init", "expiration_time": 100, "magnate_deposit": "9",'
            ' "threshold_t": "1/2", "powers": ["2/5", "7/20", "1/4"]}',
            '{"event": "commit", "node": 0, "deposit": "9"}',
            '{"event": "distribute", "node": 0}',
        ]
        with pytest.raises(ValueError, match="before any oracle_report"):
            replay_events(lines)

    @pytest.mark.parametrize(
        "line_no, line, field",
        [
            (1, '{"event": "init", "expiration_time": 100.5, "magnate_deposit": "9",'
                ' "threshold_t": "1/2", "powers": ["2/5", "7/20", "1/4"]}', "expiration_time"),
            (2, '{"event": "commit", "node": true, "deposit": "9"}', "node"),
            (2, '{"event": "commit", "node": "0", "deposit": "9"}', "node"),
            (2, '{"event": "commit", "deposit": "9"}', "'node'"),
            (2, '[0, "commit"]', "JSON object"),
            (4, '{"event": "advance_clock", "to": "10"}', "to"),
            (5, '{"event": "oracle_report", "attack_successful": "false",'
                ' "executed_protocol": {"0": "malicious", "1": "malicious"}}', "attack_successful"),
            (5, '{"event": "oracle_report", "executed_protocol": {"0": "malicious"}}',
                "'attack_successful'"),
            (5, '{"event": "oracle_report", "attack_successful": true,'
                ' "executed_protocol": {"0x": "malicious", "1": "malicious"}}', "executed_protocol"),
            (2, '{"event": "oracle_report", "attack_successful": true, "executed_protocol": []}',
                "executed_protocol: expected an object of node -> protocol"),
            (6, '{"event": "distribute", "node": 0.0}', "node"),
            (2, '{"event": "commit", "node": 0', "invalid JSON"),
            (2, '{"event": "init", "expiration_time": 100, "magnate_deposit": "9",'
                ' "threshold_t": "1/2", "powers": ["2/5", "7/20", "1/4"]}', "duplicate init"),
        ],
    )
    def test_malformed_field_exits_2_naming_line_and_field(
        self, tmp_path, capsys, line_no, line, field
    ):
        fixture = Path(__file__).resolve().parent.parent / "scenarios" / "p3_contract_events.jsonl"
        lines = fixture.read_text(encoding="utf-8").splitlines()
        lines[line_no - 1] = line
        events = tmp_path / "events.jsonl"
        events.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["contract-trace", str(events)]) == 2
        err = capsys.readouterr().err
        assert f"event log line {line_no}: " in err and field in err

    def test_repeated_key_exits_2_naming_it(self, tmp_path, capsys):
        fixture = Path(__file__).resolve().parent.parent / "scenarios" / "p3_contract_events.jsonl"
        lines = fixture.read_text(encoding="utf-8").splitlines()
        lines[0] = lines[0].replace('"threshold_t": "1/2"', '"threshold_t": "3/4", "threshold_t": "1/2"')
        events = tmp_path / "events.jsonl"
        events.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["contract-trace", str(events)]) == 2
        message = "event log line 1: invalid JSON: duplicate key 'threshold_t'"
        assert capsys.readouterr().err == f"error: tasks[0] (contract_trace): events.jsonl: {message}\n"

    @pytest.mark.parametrize(
        "line_no, old, new, message",
        [
            (2, '"deposit": "9"', '"deposit": 1e1000000',
             "invalid JSON: number 1e1000000 has a decimal exponent outside -999..999"),
            (1, '"expiration_time": 100', '"expiration_time": 1e2',
             "expiration_time: expected an integer, got 100, not written as an integer"),
            (2, '"node": 0', '"node": 0.5',
             "node: expected an integer, got 1/2, not written as an integer"),
        ],
        ids=["huge-exponent", "integer-as-exponent", "integer-as-decimal"],
    )
    def test_number_error_texts_pinned(self, tmp_path, capsys, line_no, old, new, message):
        fixture = Path(__file__).resolve().parent.parent / "scenarios" / "p3_contract_events.jsonl"
        lines = fixture.read_text(encoding="utf-8").splitlines()
        assert lines[line_no - 1].count(old) == 1
        lines[line_no - 1] = lines[line_no - 1].replace(old, new)
        events = tmp_path / "events.jsonl"
        events.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["contract-trace", str(events)]) == 2
        message = f"event log line {line_no}: {message}"
        assert capsys.readouterr().err == f"error: tasks[0] (contract_trace): events.jsonl: {message}\n"

    def test_huge_exponent_in_a_rational_string_exits_2_at_once(self, tmp_path):
        # Fraction("1e10000000") would build the integer 10**10000000 before any
        # check; a child process with a time limit keeps a regression from hanging the suite
        fixture = Path(__file__).resolve().parent.parent / "scenarios" / "p3_contract_events.jsonl"
        lines = fixture.read_text(encoding="utf-8").splitlines()
        assert lines[1].count('"deposit": "9"') == 1
        lines[1] = lines[1].replace('"deposit": "9"', '"deposit": "1e10000000"')
        events = tmp_path / "events.jsonl"
        events.write_text("\n".join(lines) + "\n", encoding="utf-8")
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        done = subprocess.run(
            [sys.executable, "-m", "briberysim.cli", "contract-trace", str(events)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 2
        message = (
            "event log line 2: deposit: rational string '1e10000000' has a decimal exponent"
            " outside -999..999"
        )
        assert done.stderr == f"error: tasks[0] (contract_trace): events.jsonl: {message}\n"

    @pytest.mark.parametrize(
        "line_no, old, new, message",
        [
            (5, '"executed_protocol"', '"executed_protocl"',
             "oracle_report: unknown field 'executed_protocl'; fields: "
             "['event', 'attack_successful', 'executed_protocol']"),
            (2, '"deposit"', '"deposit": "9", "depositt"',
             "commit: unknown field 'depositt'; fields: ['event', 'node', 'deposit']"),
            (4, '"to"', '"too"', "advance_clock: unknown field 'too'; fields: ['event', 'to']"),
            (6, '"node": 0', '"node": 0, "node_id": 0',
             "distribute: unknown field 'node_id'; fields: ['event', 'node']"),
        ],
        ids=["misspelt-optional-key", "stray-key", "misspelt-required-key", "extra-key"],
    )
    def test_unknown_key_exits_2_naming_line_and_key(self, tmp_path, capsys, line_no, old, new, message):
        # if unknown keys were ignored, the misspelt optional key would leave
        # the report covering no node (line 6 would fail, naming no key) and
        # the stray key would pass
        fixture = Path(__file__).resolve().parent.parent / "scenarios" / "p3_contract_events.jsonl"
        lines = fixture.read_text(encoding="utf-8").splitlines()
        assert lines[line_no - 1].count(old) == 1
        lines[line_no - 1] = lines[line_no - 1].replace(old, new)
        events = tmp_path / "events.jsonl"
        events.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["contract-trace", str(events)]) == 2
        message = f"event log line {line_no}: {message}"
        assert capsys.readouterr().err == f"error: tasks[0] (contract_trace): events.jsonl: {message}\n"

    def test_legacy_init_key_is_the_only_extra_key_accepted(self):
        fixture = Path(__file__).resolve().parent.parent / "scenarios" / "p3_contract_events.jsonl"
        lines = fixture.read_text(encoding="utf-8").splitlines()
        assert '"malicious_protocol_id"' in lines[0]
        without = [lines[0].replace('"malicious_protocol_id": "double-spend", ', ""), *lines[1:]]
        assert replay_events(without) == replay_events(lines)
        lines[0] = lines[0].replace('"malicious_protocol_id"', '"protocol_id"')
        with pytest.raises(ValueError, match="^event log line 1: init: unknown field 'protocol_id'; "):
            replay_events(lines)

    def test_decimal_deposit_is_exact(self):
        fixture = Path(__file__).resolve().parent.parent / "scenarios" / "p3_contract_events.jsonl"
        lines = fixture.read_text(encoding="utf-8").splitlines()
        lines[1] = '{"event": "commit", "node": 0, "deposit": 4.5}'
        replay = replay_events(lines)
        assert replay.final_state.minions[0] == Fraction(9, 2)
        assert replay.summary().payouts[0] == Fraction(2, 5) * 9 + Fraction(9, 2)

    def test_oracle_node_key_must_be_canonical(self, tmp_path, capsys):
        lines = [
            '{"event": "init", "expiration_time": 100, "magnate_deposit": "9",'
            ' "threshold_t": "1/2", "powers": ["2/5", "7/20", "1/4"]}',
            '{"event": "commit", "node": 0, "deposit": "9"}',
            '{"event": "commit", "node": 1, "deposit": "9"}',
            '{"event": "oracle_report", "attack_successful": true,'
            ' "executed_protocol": {"0": "malicious", "00": "honest", "1": "malicious"}}',
            '{"event": "distribute", "node": 0}',
            '{"event": "distribute", "node": 1}',
        ]
        events = tmp_path / "events.jsonl"
        events.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["contract-trace", str(events)]) == 2
        message = "event log line 4: executed_protocol: key '00' is not a node index"
        assert capsys.readouterr().err == f"error: tasks[0] (contract_trace): events.jsonl: {message}\n"

    @pytest.mark.parametrize(
        "key", ["1" * 5000, "1" * 19, "٠"], ids=["past-int-digit-limit", "19-digits", "arabic-indic"]
    )
    def test_oracle_node_key_past_an_index_names_the_field(self, key):
        fixture = Path(__file__).resolve().parent.parent / "scenarios" / "p3_contract_events.jsonl"
        lines = fixture.read_text(encoding="utf-8").splitlines()
        assert lines[4].count('"1": "malicious"') == 1
        lines[4] = lines[4].replace('"1": "malicious"', f'"{key}": "malicious"')
        with pytest.raises(ValueError) as raised:
            replay_events(lines)
        shown = key if len(key) <= 20 else key[:20] + "..."
        assert str(raised.value) == f"event log line 5: executed_protocol: key {shown!r} is not a node index"

    def test_oracle_node_key_outside_the_contract_exits_2(self, tmp_path, capsys):
        fixture = Path(__file__).resolve().parent.parent / "scenarios" / "p3_contract_events.jsonl"
        lines = fixture.read_text(encoding="utf-8").splitlines()
        # node 2 is no minion but a node of the contract: the report may name it
        lines[4] = lines[4].replace('"1": "malicious"', '"1": "malicious", "2": "honest"')
        assert replay_events(lines).summary().conservation_holds()
        for key in ("3", "7"):
            bad = [*lines[:4], lines[4].replace('"2": "honest"', f'"{key}": "honest"'), *lines[5:]]
            message = (
                f"event log line 5: executed_protocol: key '{key}' is not a node of this contract (3 nodes)"
            )
            with pytest.raises(ValueError) as raised:
                replay_events(bad)
            assert str(raised.value) == message
            events = tmp_path / "events.jsonl"
            events.write_text("\n".join(bad) + "\n", encoding="utf-8")
            assert main(["contract-trace", str(events)]) == 2
            assert capsys.readouterr().err == f"error: tasks[0] (contract_trace): events.jsonl: {message}\n"

    def test_blank_lines_skipped(self):
        fixture = Path(__file__).resolve().parent.parent / "scenarios" / "p3_contract_events.jsonl"
        lines = fixture.read_text(encoding="utf-8").splitlines()
        padded = ["", *lines[:3], "   ", *lines[3:], ""]
        assert replay_events(padded) == replay_events(lines)
        padded[4] = '{"event": "commit", "node": 0, "deposit": "9"}'  # node 0 commits again
        with pytest.raises(ContractError, match="^event log line 5: "):
            replay_events(padded)

    def test_log_without_init_exits_2(self, tmp_path, capsys):
        events = tmp_path / "blank.jsonl"
        events.write_text("\n  \n", encoding="utf-8")
        assert main(["contract-trace", str(events)]) == 2
        err = capsys.readouterr().err
        assert "error: tasks[0] (contract_trace): blank.jsonl: event log contains no init event" in err
        assert "Traceback" not in err

    def test_forbidden_transition_names_line(self, tmp_path, capsys):
        fixture = Path(__file__).resolve().parent.parent / "scenarios" / "p3_contract_events.jsonl"
        lines = fixture.read_text(encoding="utf-8").splitlines()
        lines[2] = '{"event": "commit", "node": 0, "deposit": "9"}'  # node 0 commits again
        message = "event log line 3: commit rejected: node 0 already committed"
        with pytest.raises(ContractError, match=f"^{message}$"):
            replay_events(lines)
        events = tmp_path / "dup.jsonl"
        events.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["contract-trace", str(events)]) == 2
        err = capsys.readouterr().err
        assert f"error: tasks[0] (contract_trace): dup.jsonl: {message}" in err

    def test_unknown_event_rejected(self):
        lines = ['{"event": "frobnicate"}']
        with pytest.raises(ValueError, match="frobnicate.*before init|before init"):
            replay_events(lines)

    @pytest.mark.parametrize(
        "lines, api_call",
        [
            (['{"event": "commit", "node": 0, "deposit": "9"}',
              '{"event": "commit", "node": 1, "deposit": "9"}',
              '{"event": "commit", "node": 2, "deposit": "abc"}'],
             lambda: contract_commit(_ordered_state(), 2, "abc")),
            (['{"event": "advance_clock", "to": 100}',
              '{"event": "commit", "node": 0, "deposit": "abc"}'],
             lambda: contract_commit(advance_clock(contract_init(p3_config()), 100), 0, "abc")),
            (['{"event": "commit", "node": 7, "deposit": "abc"}'],
             lambda: contract_commit(contract_init(p3_config()), 7, "abc")),
            (['{"event": "commit", "node": 0, "deposit": "9"}',
              '{"event": "commit", "node": 0, "deposit": "abc"}'],
             lambda: contract_commit(contract_commit(contract_init(p3_config()), 0, 9), 0, "abc")),
        ],
        ids=["phase", "expired", "unknown-node", "repeat-commit"],
    )
    def test_commit_line_fails_as_its_api_call(self, lines, api_call):
        init = (
            '{"event": "init", "expiration_time": 100, "magnate_deposit": "9",'
            ' "threshold_t": "1/2", "powers": ["2/5", "7/20", "1/4"]}'
        )
        with pytest.raises(ContractError) as api:
            api_call()
        with pytest.raises(ContractError) as logged:
            replay_events([init, *lines])
        assert str(logged.value) == f"event log line {len(lines) + 1}: {api.value}"

    @pytest.mark.parametrize(
        "values",
        [
            (2.5, "9", "1/2", "1"),
            (100, "x", "1/2", ["1/2", "x"]),
            (100, "9", "abc", ["1/2", True]),
        ],
        ids=["expiration-and-powers", "deposit-and-power", "threshold-and-power"],
    )
    def test_init_line_fails_as_its_api_call(self, values):
        expiration, deposit, t, powers = values
        with pytest.raises(ValueError) as api:
            ContractConfig(expiration, deposit, t, PowerDistribution(powers))
        line = json.dumps({"event": "init", "expiration_time": expiration, "magnate_deposit": deposit,
                           "threshold_t": t, "powers": powers})
        with pytest.raises(ValueError) as logged:
            replay_events([line])
        assert str(logged.value) == f"event log line 1: {api.value}"
