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
from briberysim import chainsim
from briberysim.chainsim import sim_config_from_payload
from briberysim.seeding import derive_seed
from helpers import binomial_acceptance_range, race_by_counters, race_by_slots
from stream_layout import layout_mismatches

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
        # built from a payload, so that the same code runs whatever
        # SimConfig's constructor takes
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
            "".join(
                f"{slot},{producer},{chain},{height},{event};"
                for slot, producer, chain, height, event in run.trace
            ).encode()
        )
    return digest.hexdigest()


def canonical_height(run):
    """Height of the honest chain's tip at the end of a traced run."""
    return max(height for _, _, chain, height, _ in run.trace if chain == "canonical")


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
                assert [slot for slot, *_ in run.trace] == list(range(run.result.slots_elapsed))
                canonical = [height for _, _, chain, height, _ in run.trace if chain == "canonical"]
                fork = [height for _, _, chain, height, _ in run.trace if chain == "fork"]
                assert canonical == list(range(1, len(canonical) + 1))
                assert fork == list(range(1, len(fork) + 1))
                assert len(fork) == run.result.fork_length

    def test_exactly_one_target_block(self):
        for seed in range(8):
            run = run_attack_detailed(make_config({0, 1}, seed=seed), record_trace=True)
            targets = [
                (slot, chain, height)
                for slot, _, chain, height, event in run.trace
                if event == "target"
            ]
            assert targets == [(0, "canonical", 1)]

    def test_successful_attack_reverts_target(self):
        run = run_attack_detailed(make_config({0, 1}, seed=3), record_trace=True)
        assert run.result.success
        # the fork is rooted at genesis, so every canonical block, the
        # target at height 1 included, is reverted
        assert run.result.reverted_blocks == canonical_height(run) >= 1
        assert run.result.fork_length == run.result.reverted_blocks + 1
        _, _, last_chain, _, _ = run.trace[-1]
        assert last_chain == "fork"

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
        events = [event for *_, event in run.trace]
        assert events[0] == "target"
        # one block per slot: the target reaches 3 confirmations at slot 2
        assert events[2] == "trigger"
        assert events[-1] == "success"


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


@pytest.fixture
def exact_floats(monkeypatch):
    """Grows by one for each slot whose producer the race reads from its exact float."""
    calls = []
    unpack = chainsim.unpack_from
    monkeypatch.setattr(chainsim, "unpack_from", lambda *args: calls.append(args) or unpack(*args))
    return calls


class TestChunkedKernelAgainstSlotOracle:
    """The chunked race against `race_by_slots`, one `random()` per slot."""

    @staticmethod
    def assert_same_run(config, record_trace):
        run = run_attack_detailed(config, record_trace)
        oracle = race_by_slots(config, record_trace)
        assert run.result.to_payload() == oracle.result.to_payload(), config
        assert run.trace == oracle.trace, config
        return run

    def test_random_configs_match_the_oracle(self, exact_floats):
        # networks of 1 to 300 nodes (producers >= 255 leave the byte table),
        # horizons up to 10,000 slots, PoW and PoS, traced and untraced
        rng = random.Random(16)
        cases = set()
        for index in range(160):
            n = rng.choice([1, 2, 3, 5, 12, 254, 256, 300])
            weights = [rng.randint(1, rng.choice([4, 1000])) for _ in range(n)]
            powers = PowerDistribution(tuple(Fraction(w, sum(weights)) for w in weights))
            share = rng.random()
            minions = frozenset(i for i in range(n) if rng.random() < share)
            k = rng.randint(1, 8)
            horizon = rng.choice([1, k, k + 1, 60, 700, 3000, 10_000])
            config = SimConfig(
                powers=powers,
                minions=minions,
                consensus=rng.choice(list(Consensus)),
                confirmations=k,
                horizon_slots=horizon,
                rng_seed=derive_seed(0, "race-oracle", index),
                threshold_t=Fraction(rng.randint(1, 9), 10),
            )
            before = len(exact_floats)
            run = self.assert_same_run(config, record_trace=index % 2 == 0)
            cases.add(
                (
                    config.consensus,
                    run.result.success,
                    run.result.slots_elapsed > 2 * chainsim.MAX_CHUNK,
                    len(exact_floats) > before,
                    any(producer >= chainsim.UNRESOLVED for _, producer, *_ in run.trace),
                )
            )
        # won and lost races of both kinds, races past several maximal chunks,
        # the exact-float path taken, and traced producers past the byte table
        for consensus in Consensus:
            assert {c[1] for c in cases if c[0] is consensus} == {True, False}
        assert any(c[2] for c in cases)
        assert any(c[3] for c in cases) and any(not c[3] for c in cases)
        assert any(c[4] for c in cases)

    @pytest.mark.parametrize(
        "powers, on_edge",
        [
            # p3: 2/5 falls inside bucket 102, 3/4 = 192/256 is a bucket edge
            (("2/5", "7/20", "1/4"), False),
            # every boundary a bucket edge: no slot needs its exact float
            (("1/4", "1/2", "1/4"), True),
        ],
        ids=["p3", "edges"],
    )
    def test_bucket_boundaries_match_the_oracle(self, exact_floats, powers, on_edge):
        powers = PowerDistribution(powers)
        for index, (minions, consensus) in enumerate(
            itertools.product(([2], [0, 1], [1], [0, 1, 2]), Consensus)
        ):
            for seed in range(6):
                config = make_config(
                    minions, consensus, confirmations=1 + seed, horizon=4000,
                    seed=100 * index + seed, powers=powers,
                )
                self.assert_same_run(config, record_trace=seed % 2 == 0)
        assert (exact_floats == []) == on_edge

    @pytest.mark.parametrize("ulps", [-1, 0, 1])
    def test_boundary_one_ulp_from_the_draw(self, ulps):
        # a two-node boundary at, just below or just above slot 0's float:
        # only the exact float of random() names the producer that bisect does
        for seed in range(20):
            x = random.Random(seed).random()
            boundary = Fraction(int(x * 2**53) + ulps, 2**53)
            config = make_config(
                [1], confirmations=1, horizon=1, seed=seed,
                powers=PowerDistribution((boundary, 1 - boundary)),
            )
            run = self.assert_same_run(config, record_trace=True)
            assert run.trace[0][1] == (0 if x < boundary else 1)

    def test_pre_trigger_slots_across_chunks(self):
        # k > MAX_CHUNK: the first chunks hold only pre-trigger slots, and the
        # race starts inside a later one
        rng = random.Random(17)
        cases = set()
        grid = itertools.product(
            Consensus, ([0, 1], [0, 1, 2], [2]), (-7, 1, 12_000), (True, False)
        )
        for index, (consensus, minions, past_k, traced) in enumerate(grid):
            k = chainsim.MAX_CHUNK + rng.randint(0, 70)
            config = SimConfig(
                powers=P3_POWERS,
                minions=frozenset(minions),
                consensus=consensus,
                confirmations=k,
                horizon_slots=k + past_k,
                rng_seed=derive_seed(0, "race-long-trigger", index),
                threshold_t=Fraction(rng.choice([1, 4]), 5),
            )
            run = self.assert_same_run(config, record_trace=traced)
            cases.add((consensus, run.result.success, traced))
        # won and lost races of both kinds, each traced and untraced
        assert cases == set(itertools.product(Consensus, (True, False), (True, False)))

    def test_generator_layout_the_kernel_reads(self):
        assert layout_mismatches(range(40)) == []


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
        # ahead, a deficit of 3 -> (2/5 / 3/5)^3 = 8/27. The hit count must lie
        # in the two-sided exact-binomial range that a correct race leaves with
        # probability 1e-6; 2500 runs make it [631, 854], narrower than a
        # rate window of +-0.045. The 1498-slot race horizon lowers the true
        # rate by far less than that range resolves. A deficit of k (4/9) or
        # a fork that never wins (0) falls outside it.
        powers = PowerDistribution(("1/5", "1/5", "3/10", "3/10"))
        runs = 2500
        lo, hi = binomial_acceptance_range(
            runs, catch_up_probability(Fraction(2, 5), 3), Fraction(1, 10**6)
        )
        assert (hi - lo) / runs <= 0.09
        rate = success_rate(
            {0, 1}, confirmations=2, horizon=1500, runs=runs, label="oracle", powers=powers
        )
        assert lo <= round(rate * runs) <= hi

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
        # the optional fields take their defaults
        doc = {k: v for k, v in SIM_DOC.items() if k not in ("rng_seed", "threshold_t")}
        assert sim_config_from_payload(doc) == make_config({0, 1}, seed=0)

    @pytest.mark.parametrize("key", ["threshold", "double_spend_value", "comment"])
    def test_unknown_field_rejected_by_name(self, key):
        # a misspelt optional field would otherwise run at its default
        doc = dict(SIM_DOC, **{key: "3/4"})
        with pytest.raises(ValueError, match=rf"^sim: unknown field '{key}'; fields: \["):
            sim_config_from_payload(doc)

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
            ("threshold_t", "-1"),
            ("threshold_t", "0"),
            ("threshold_t", "1"),
            ("threshold_t", "3/2"),
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
