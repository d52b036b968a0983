"""Tests for the double-spend fork simulation and its closed-form oracle."""

import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest

from briberysim import (
    Consensus,
    PowerDistribution,
    SimConfig,
    catch_up_probability,
    run_attack,
    run_attack_detailed,
)
from briberysim.chainsim import sim_config_from_payload
from briberysim.seeding import derive_seed
from helpers import race_by_counters

P3_POWERS = PowerDistribution(("2/5", "7/20", "1/4"))


def make_config(
    minions,
    consensus=Consensus.POW_LONGEST_CHAIN,
    confirmations=3,
    horizon=10_000,
    seed=1,
    powers=P3_POWERS,
):
    return SimConfig(
        powers=powers,
        minions=frozenset(minions),
        consensus=consensus,
        confirmations=confirmations,
        horizon_slots=horizon,
        rng_seed=seed,
    )


# the sim document that parses to make_config({0, 1}, seed=17)
SIM_DOC = {
    "powers": ["2/5", "7/20", "1/4"],
    "minions": [0, 1],
    "consensus": "pow_longest_chain",
    "confirmations": 3,
    "horizon_slots": 10_000,
    "rng_seed": 17,
    "threshold_t": "1/2",
}


# 1-4 node networks, each with empty, minority, majority and all-node minion sets
RACE_GRID_NETWORKS = (
    (["1"], ([], [0])),
    (["1/3", "2/3"], ([], [0], [1], [0, 1])),
    (["2/5", "7/20", "1/4"], ([], [2], [0, 1], [0, 1, 2])),
    (["1/5", "1/5", "3/10", "3/10"], ([], [0, 1], [1, 2, 3], [0, 1, 2, 3])),
)
# sha256 over the grid of every result payload and trace row; any change to
# what the race returns changes it
RACE_GRID_DIGEST = "f9c06076102f1c12fe5d51f7aee2ac0cfab88dca8e8aebd22a0c732786d26984"


def race_grid_digest() -> str:
    cases = [
        (powers, minions, *rest)
        for powers, minion_sets in RACE_GRID_NETWORKS
        for minions in minion_sets
        for rest in itertools.product(
            ("pow_longest_chain", "pos_slashing"), (1, 2, 3, 6), (1, 3, 50, 400), ("1/2", "2/3")
        )
    ]
    digest = hashlib.sha256()
    for index, (powers, minions, consensus, confirmations, horizon, t) in enumerate(cases):
        # built from a payload, which ignores unknown keys, so that the same
        # code runs on any version of SimConfig's fields
        config = sim_config_from_payload(
            {
                "powers": powers,
                "minions": minions,
                "consensus": consensus,
                "confirmations": confirmations,
                "horizon_slots": horizon,
                "threshold_t": t,
                "rng_seed": derive_seed(0, "race-grid", index),
            }
        )
        run = run_attack_detailed(config, record_trace=True)
        assert run_attack(config) == run.result
        digest.update(json.dumps(run.result.to_payload(), sort_keys=True).encode())
        digest.update(
            "".join(f"{r.slot},{r.producer},{r.chain},{r.height},{r.event};" for r in run.trace).encode()
        )
    return digest.hexdigest()


def canonical_height(run):
    """Height of the honest chain's tip at the end of a traced run."""
    return max(row.height for row in run.trace if row.chain == "canonical")


def success_rate(minions, confirmations, horizon, runs, label, **kwargs):
    hits = 0
    for i in range(runs):
        config = make_config(
            minions,
            confirmations=confirmations,
            horizon=horizon,
            seed=derive_seed(0, label, i),
            **kwargs,
        )
        if run_attack(config).success:
            hits += 1
    return hits / runs


class TestRunAttack:
    def test_no_minions_never_succeeds(self):
        result = run_attack(make_config(set(), horizon=300))
        assert not result.success
        assert result.fork_length == 0

    def test_deterministic_given_seed(self):
        config = make_config({0, 1}, seed=12345)
        assert run_attack(config) == run_attack(config)
        left = run_attack_detailed(config, record_trace=True)
        right = run_attack_detailed(config, record_trace=True)
        assert left.trace == right.trace

    def test_majority_minions_win(self):
        result = run_attack(make_config({0, 1}))
        assert result.success
        # fork replaced the target block and its confirmations
        assert result.reverted_blocks >= 3
        assert result.fork_length > 0

    def test_horizon_shorter_than_confirmation_window(self):
        result = run_attack(make_config({0, 1}, confirmations=10, horizon=4))
        assert not result.success
        assert result.fork_length == 0

    def test_trace_heights_continuous(self):
        for minions in ({0, 1}, {2}):
            for seed in range(8):
                run = run_attack_detailed(
                    make_config(minions, seed=seed, horizon=400), record_trace=True
                )
                assert [row.slot for row in run.trace] == list(range(run.result.slots_elapsed))
                canonical = [row.height for row in run.trace if row.chain == "canonical"]
                fork = [row.height for row in run.trace if row.chain == "fork"]
                assert canonical == list(range(1, len(canonical) + 1))
                assert fork == list(range(1, len(fork) + 1))
                assert len(fork) == run.result.fork_length

    def test_exactly_one_target_block(self):
        for seed in range(8):
            run = run_attack_detailed(make_config({0, 1}, seed=seed), record_trace=True)
            targets = [row for row in run.trace if row.event == "target"]
            assert [(t.slot, t.chain, t.height) for t in targets] == [(0, "canonical", 1)]

    def test_successful_attack_reverts_target(self):
        run = run_attack_detailed(make_config({0, 1}, seed=3), record_trace=True)
        assert run.result.success
        # the fork is rooted at genesis, so every canonical block, the
        # target at height 1 included, is reverted
        assert run.result.reverted_blocks == canonical_height(run) >= 1
        assert run.result.fork_length == run.result.reverted_blocks + 1
        assert run.trace[-1].chain == "fork"

    def test_failed_attack_keeps_target_canonical(self):
        run = run_attack_detailed(
            make_config({2}, confirmations=6, horizon=300, seed=3), record_trace=True
        )
        assert not run.result.success
        assert run.result.reverted_blocks == 0
        # the honest chain, target at height 1 included, stays final
        assert canonical_height(run) >= run.result.fork_length
        assert sum(run.result.per_node_blocks_canonical.values()) == canonical_height(run)

    def test_per_node_block_counts_cover_final_chain(self):
        for minions, confirmations in (({0, 1}, 3), ({2}, 6)):
            for seed in range(8):
                run = run_attack_detailed(
                    make_config(minions, confirmations=confirmations, horizon=300, seed=seed),
                    record_trace=True,
                )
                result = run.result
                counts = result.per_node_blocks_canonical
                final_height = result.fork_length if result.success else canonical_height(run)
                assert sum(counts.values()) == final_height
                assert set(counts) == {0, 1, 2}

    def test_race_grid_digest_pinned(self):
        assert race_grid_digest() == RACE_GRID_DIGEST

    def test_trace_marks_target_and_trigger(self):
        run = run_attack_detailed(make_config({0, 1}, seed=3), record_trace=True)
        assert run.trace[0].event == "target"
        # one block per slot: the target reaches 3 confirmations at slot 2
        assert run.trace[2].event == "trigger"
        assert run.trace[-1].event == "success"


class TestRaceAgainstCounterModel:
    def test_results_match_counter_model(self):
        rng = random.Random(2024)
        cases = set()
        for index in range(600):
            n = rng.randint(1, 6)
            weights = [rng.randint(1, 9) for _ in range(n)]
            powers = PowerDistribution(tuple(Fraction(w, sum(weights)) for w in weights))
            minions = frozenset(i for i in range(n) if rng.random() < 0.5)
            minion_power = sum((powers[i] for i in minions), Fraction(0))
            k = rng.randint(1, 6)
            horizon = rng.choice([max(1, k - 1), k, k + 1, 40, 400])
            t = rng.choice([Fraction(1, 2), Fraction(2, 3), minion_power])
            config = SimConfig(
                powers=powers,
                minions=minions,
                consensus=rng.choice(list(Consensus)),
                confirmations=k,
                horizon_slots=horizon,
                rng_seed=derive_seed(0, "race-model", index),
                threshold_t=t,
            )
            result = run_attack_detailed(config, record_trace=index % 2 == 0).result
            observed = (
                result.success, result.slots_elapsed, result.fork_length, result.reverted_blocks
            )
            assert observed == race_by_counters(config), config
            pos = config.consensus is Consensus.POS_SLASHING
            cases.add(
                (
                    "pos" if pos else "pow",
                    "majority" if 2 * minion_power > 1 else "minority",
                    ("above t" if minion_power > t else "at most t") if pos else "",
                    horizon < k,
                    result.success,
                )
            )
        # every kind of race occurred, won and lost where it can be, and never
        # won where it cannot: under PoS at most t, or with the horizon below k
        pow_cases = itertools.product(["pow"], ("majority", "minority"), [""], [False], (True, False))
        assert set(pow_cases) <= cases
        assert {
            ("pos", "majority", "above t", False, True),
            ("pos", "majority", "at most t", False, False),
            ("pos", "minority", "at most t", False, False),
        } <= cases
        assert not any(c[2] == "at most t" and c[4] for c in cases)
        assert any(c[3] for c in cases) and not any(c[3] and c[4] for c in cases)


class TestCatchUpOracle:
    def test_closed_form_values(self):
        assert catch_up_probability(Fraction(1, 4), 6) == Fraction(1, 729)
        assert catch_up_probability(Fraction(1, 4), 0) == 1
        assert catch_up_probability(Fraction(3, 4), 5) == 1
        assert catch_up_probability(Fraction(1, 2), 3) == 1

    def test_negative_deficit_rejected(self):
        with pytest.raises(ValueError):
            catch_up_probability(Fraction(1, 4), -1)

    def test_simulation_matches_closed_form(self):
        # share 2/5, k = 2: the fork starts 2 behind and must get strictly
        # ahead, a deficit of 3 -> (2/5 / 3/5)^3 = 8/27
        powers = PowerDistribution(("1/5", "1/5", "3/10", "3/10"))
        rate = success_rate(
            {0, 1}, confirmations=2, horizon=1500, runs=1000, label="oracle", powers=powers
        )
        predicted = float(catch_up_probability(Fraction(2, 5), 3))
        assert abs(rate - predicted) < 0.045

    def test_success_rate_monotone_in_minion_share(self):
        rates = []
        for share in (Fraction(1, 4), Fraction(11, 20), Fraction(3, 4)):
            powers = PowerDistribution((share / 2, share / 2, (1 - share) / 2, (1 - share) / 2))
            rates.append(
                success_rate(
                    {0, 1},
                    confirmations=3,
                    horizon=1500,
                    runs=150,
                    label=f"mono{share}",
                    powers=powers,
                )
            )
        assert rates == sorted(rates)
        assert rates[-1] > 0.95


class TestProofOfStake:
    def test_majority_minions_finalize_and_censor(self):
        result = run_attack(make_config({0, 1}, consensus=Consensus.POS_SLASHING, seed=5))
        assert result.success
        assert result.double_signs and all(c > 0 for c in result.double_signs.values())
        # every fork block is a double-sign, and none of the proofs survive
        assert sum(result.double_signs.values()) == result.fork_length
        assert result.slashing_proofs_censored == sum(result.double_signs.values())

    def test_audit_of_successful_attack(self):
        result = run_attack(make_config({0, 1}, consensus=Consensus.POS_SLASHING, seed=5))
        # the winning fork reverts every honest block: no proof lands, nobody is slashable
        assert result.success
        assert result.slashing_proofs_censored == sum(result.double_signs.values()) > 0

    def test_minority_minions_cannot_finalize(self):
        result = run_attack(
            make_config({2}, consensus=Consensus.POS_SLASHING, confirmations=3, horizon=2000, seed=5)
        )
        assert not result.success

    def test_audit_of_failed_attack_flags_offenders(self):
        result = run_attack(
            make_config({2}, consensus=Consensus.POS_SLASHING, confirmations=3, horizon=2000, seed=5)
        )
        # the lone minion double-signed, and some of its proofs landed on the final chain
        assert not result.success
        assert set(result.double_signs) == {2}
        assert result.slashing_proofs_censored < result.double_signs[2]

    def test_no_minions_no_offenses(self):
        result = run_attack(make_config(set(), consensus=Consensus.POS_SLASHING, horizon=300))
        assert result.double_signs == {} and result.slashing_proofs_censored == 0


class TestSimConfigValidation:
    def test_unnormalized_powers_rejected(self):
        with pytest.raises(ValueError, match="powers"):
            make_config({0}, powers=PowerDistribution(("1/2", "1/4")))

    def test_bad_confirmations_rejected(self):
        with pytest.raises(ValueError, match="confirmations"):
            make_config({0}, confirmations=0)

    def test_bad_horizon_rejected(self):
        with pytest.raises(ValueError, match="horizon"):
            make_config({0}, horizon=0)

    def test_minions_must_be_node_indices(self):
        with pytest.raises(ValueError, match="minions"):
            make_config({5})

    def test_payload_round_trip(self):
        assert sim_config_from_payload(SIM_DOC) == make_config({0, 1}, seed=17)
        # keys that are not config fields are ignored
        doc = dict(SIM_DOC, double_spend_value="20", comment="x")
        assert sim_config_from_payload(doc) == make_config({0, 1}, seed=17)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("minions", "01"),
            ("minions", [0, True]),
            ("confirmations", True),
            ("confirmations", "3"),
            ("horizon_slots", "abc"),
            ("horizon_slots", Fraction(5)),
            ("rng_seed", "7"),
        ],
    )
    def test_integer_fields_named_on_bad_values(self, field, value):
        doc = dict(SIM_DOC)
        doc[field] = value
        with pytest.raises(ValueError, match=rf"^sim\.{field}\b"):
            sim_config_from_payload(doc)

    def test_missing_field_named(self):
        doc = dict(SIM_DOC)
        del doc["consensus"]
        with pytest.raises(ValueError, match="missing field 'consensus'"):
            sim_config_from_payload(doc)
