"""Tests for the game parameter model and the payoff rule of both games."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from briberysim import (
    Consensus,
    GameParams,
    PowerDistribution,
    SimConfig,
    Strategy,
    StrategyProfile,
    Variant,
    all_commit,
    all_honest,
    params_from_json_dict,
    params_to_json_dict,
    payoff_vector,
    random_game_params,
    utility,
    validate_params,
)
from helpers import aggregate_powers, uniform_params

H, M, C = Strategy.HONEST, Strategy.MALICIOUS, Strategy.COMMIT


def game0(*choices):
    return StrategyProfile(tuple(choices), Variant.NO_COLLUSION)


def game1(*choices):
    return StrategyProfile(tuple(choices), Variant.COLLUSION)


class TestValidateParams:
    def test_p3_is_valid(self, p3):
        assert validate_params(p3) == []

    def test_single_node_reaching_threshold(self):
        params = uniform_params(("3/5", "2/5"), "1/2", 2, -1, 5, -3)
        messages = [str(v) for v in validate_params(params)]
        assert "Assumption 5: v_0 = 3/5 >= t = 1/2" in messages

    def test_threshold_below_half(self):
        params = uniform_params(("2/5", "7/20", "1/4"), "1/4", 2, -1, 5, -3)
        violations = validate_params(params)
        assert any(v.assumption == 5 and "t = 1/4 < 1/2" in v.message for v in violations)

    def test_threshold_at_or_above_one(self):
        params = uniform_params(("2/5", "7/20", "1/4"), "1", 2, -1, 5, -3)
        assert any(v.assumption == 5 and "unreachable" in v.message for v in validate_params(params))

    def test_powers_not_normalized(self):
        params = uniform_params((Fraction(1, 2), Fraction(49, 100)), "3/5", 2, -1, 5, -3)
        violations = validate_params(params)
        assert any(v.assumption == 1 and "sum to 99/100" in v.message for v in violations)

    def test_nonpositive_power(self):
        params = uniform_params((Fraction(0), Fraction(1)), "1/2", 2, -1, 5, -3)
        assert any(v.assumption == 1 and v.node == 0 for v in validate_params(params))

    def test_single_node_set(self):
        params = uniform_params((Fraction(1),), "1/2", 2, -1, 5, -3)
        assert any(v.assumption == 1 and "at least 2 nodes" in v.message for v in validate_params(params))

    def test_honest_reward_must_be_positive(self):
        params = uniform_params(("2/5", "7/20", "1/4"), "1/2", 0, -1, 5, -3)
        assert any(v.assumption == 3 and "not positive" in v.message for v in validate_params(params))

    def test_deviant_reward_ordering(self):
        params = uniform_params(("2/5", "7/20", "1/4"), "1/2", 2, 2, 5, -3)
        assert any(v.assumption == 3 and v.node == 0 for v in validate_params(params))

    def test_malicious_reward_ordering(self):
        params = uniform_params(("2/5", "7/20", "1/4"), "1/2", 2, -1, 2, -3)
        assert any(v.assumption == 4 for v in validate_params(params))

    def test_contract_penalty_ordering(self):
        params = uniform_params(("2/5", "7/20", "1/4"), "1/2", 2, -1, 5, 5)
        assert any(v.assumption == 4 and "r_dp" in v.message for v in validate_params(params))

    def test_heterogeneous_rewards_validated_per_node(self, p3):
        params = GameParams(
            powers=p3.powers,
            threshold_t=p3.threshold_t,
            reward_honest=(Fraction(2), Fraction(2), Fraction(2)),
            reward_deviant_vs_honest=(Fraction(-1), Fraction(3), Fraction(-1)),
            reward_malicious=p3.reward_malicious,
            reward_deviant_vs_malicious=p3.reward_deviant_vs_malicious,
        )
        violations = validate_params(params)
        assert [v.node for v in violations] == [1]

    def test_mismatched_reward_length_is_structural(self):
        with pytest.raises(ValueError, match="entries for"):
            GameParams(
                powers=PowerDistribution(("1/2", "1/2")),
                threshold_t=Fraction(3, 5),
                reward_honest=(Fraction(1),),
                reward_deviant_vs_honest=(Fraction(0), Fraction(0)),
                reward_malicious=(Fraction(2), Fraction(2)),
                reward_deviant_vs_malicious=(Fraction(0), Fraction(0)),
            )


class TestAggregatePowers:
    def test_all_honest(self, p3):
        agg = aggregate_powers(all_honest(3, Variant.NO_COLLUSION), p3.powers)
        assert (agg.v_h, agg.v_opposing) == (1, 0)

    def test_one_malicious(self, p3):
        agg = aggregate_powers(game0(M, H, H), p3.powers)
        assert (agg.v_h, agg.v_opposing) == (Fraction(3, 5), Fraction(2, 5))

    def test_two_committed(self, p3):
        agg = aggregate_powers(game1(C, C, H), p3.powers)
        assert (agg.v_h, agg.v_opposing) == (Fraction(1, 4), Fraction(3, 4))

    def test_exactness_over_random_profiles(self):
        # rational arithmetic must make the two sides sum to exactly 1
        rng = random.Random(20260810)
        for _ in range(10_000):
            n = rng.randint(2, 10)
            weights = [rng.randint(1, 1000) for _ in range(n)]
            total = sum(weights)
            powers = PowerDistribution(tuple(Fraction(w, total) for w in weights))
            choices = tuple(rng.choice((H, M)) for _ in range(n))
            agg = aggregate_powers(StrategyProfile(choices, Variant.NO_COLLUSION), powers)
            assert agg.v_h + agg.v_opposing == 1

    @given(st.lists(st.integers(min_value=1, max_value=10**9), min_size=2, max_size=12), st.data())
    def test_exactness_property(self, weights, data):
        total = sum(weights)
        powers = PowerDistribution(tuple(Fraction(w, total) for w in weights))
        choices = tuple(
            data.draw(st.sampled_from((H, M)), label=f"choice_{i}") for i in range(len(weights))
        )
        agg = aggregate_powers(StrategyProfile(choices, Variant.NO_COLLUSION), powers)
        assert agg.v_h + agg.v_opposing == 1


class TestUtilityNoCollusion:
    def test_all_honest(self, p3):
        assert utility(p3, all_honest(3, Variant.NO_COLLUSION), 0) == 2

    def test_lone_deviator_punished(self, p3):
        assert utility(p3, game0(M, H, H), 0) == -1

    def test_stall_pays_zero(self, p3):
        params = uniform_params(("2/5", "7/20", "1/4"), "3/5", 2, -1, 5, -3)
        profile = game0(H, M, M)  # v_h = 2/5 <= 3/5 and v_m = 3/5 <= 3/5
        assert [utility(params, profile, i) for i in range(3)] == [0, 0, 0]

    def test_malicious_majority(self, p3):
        profile = game0(M, M, H)  # v_m = 3/4 > 1/2
        assert utility(p3, profile, 0) == 5
        assert utility(p3, profile, 2) == -3


class TestUtilityCollusion:
    def test_minority_commitment_earns_honest_reward(self, p3):
        assert utility(p3, game1(C, H, H), 0) == 2

    def test_committed_majority(self, p3):
        profile = game1(C, C, H)  # committed power 3/4 > 1/2
        assert utility(p3, profile, 0) == 5
        assert utility(p3, profile, 2) == -3

    def test_all_committed(self, p3):
        assert utility(p3, all_commit(3), 1) == 5

    def test_near_stall_pays_honest_reward(self):
        # v_h = 2/5 and committed power 3/5 are both <= t = 3/5: the
        # contract orders the honest protocol, which then runs at full power
        params = uniform_params(("2/5", "7/20", "1/4"), "3/5", 2, -1, 5, -3)
        profile = game1(H, C, C)
        assert [utility(params, profile, i) for i in range(3)] == [2, 2, 2]


def _case_table_game0(params, profile, node):
    """Independent five-case oracle for the no-collusion payoff."""
    agg = aggregate_powers(profile, params.powers)
    t = params.threshold_t
    s = profile.choices[node]
    cases = [
        (s is H and agg.v_h > t, params.reward_honest[node]),
        (s is H and agg.v_opposing > t, params.reward_deviant_vs_malicious[node]),
        (s is M and agg.v_h > t, params.reward_deviant_vs_honest[node]),
        (s is M and agg.v_opposing > t, params.reward_malicious[node]),
        (agg.v_h <= t and agg.v_opposing <= t, Fraction(0)),
    ]
    return cases


def _case_table_game1(params, profile, node):
    agg = aggregate_powers(profile, params.powers)
    t = params.threshold_t
    s = profile.choices[node]
    cases = [
        (s is H and agg.v_h > t, params.reward_honest[node]),
        (s is H and agg.v_opposing > t, params.reward_deviant_vs_malicious[node]),
        (s is C and agg.v_h > t, params.reward_honest[node]),
        (s is C and agg.v_opposing > t, params.reward_malicious[node]),
        (agg.v_h <= t and agg.v_opposing <= t, params.reward_honest[node]),
    ]
    return cases


def _assert_one_case_fires(params, variant):
    """Every profile of `variant`: exactly one oracle case fires for each
    node, and both `utility` and `payoff_vector` return its value."""
    case_table = _case_table_game0 if variant is Variant.NO_COLLUSION else _case_table_game1
    opposing = M if variant is Variant.NO_COLLUSION else C
    n = params.n
    for mask in range(1 << n):
        choices = tuple(opposing if mask >> i & 1 else H for i in range(n))
        profile = StrategyProfile(choices, variant)
        expected = []
        for node in range(n):
            fired = [value for hit, value in case_table(params, profile, node) if hit]
            assert len(fired) == 1
            assert utility(params, profile, node) == fired[0]
            expected.append(fired[0])
        assert payoff_vector(params, profile) == tuple(expected)


class TestCaseExclusivity:
    """Exactly one utility case fires for every profile, boundaries included."""

    @pytest.mark.parametrize("t", ["1/2", "3/5", "7/10"])
    def test_no_collusion_cases(self, t):
        params = uniform_params(("2/5", "7/20", "1/4"), t, 2, -1, 5, -3)
        _assert_one_case_fires(params, Variant.NO_COLLUSION)

    @pytest.mark.parametrize("t", ["1/2", "3/5", "7/10"])
    def test_collusion_cases(self, t):
        params = uniform_params(("2/5", "7/20", "1/4"), t, 2, -1, 5, -3)
        _assert_one_case_fires(params, Variant.COLLUSION)

    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_random_instances(self, variant):
        rng = random.Random(20261017)
        for _ in range(20):
            _assert_one_case_fires(random_game_params(rng, (3, 6)), variant)

    def test_power_sum_exactly_at_threshold(self):
        # v_h lands exactly on t: strict comparison sends this to the stall case
        params = uniform_params(("2/5", "7/20", "1/4"), "3/5", 2, -1, 5, -3)
        profile = game0(M, H, H)  # v_h = 3/5 == t
        assert utility(params, profile, 0) == 0
        assert utility(params, profile, 1) == 0


class TestCollusionFloor:
    def test_committed_payoff_never_below_honest_reward(self):
        # brute force over all 2^n profiles: a committed node earns either
        # its honest reward or its malicious reward, both >= honest
        from briberysim import random_game_params

        rng = random.Random(7)
        for _ in range(25):
            params = random_game_params(rng, (3, 8))
            n = params.n
            for mask in range(1 << n):
                choices = tuple(C if mask >> i & 1 else H for i in range(n))
                payoffs = payoff_vector(params, StrategyProfile(choices, Variant.COLLUSION))
                for i in range(n):
                    if choices[i] is C:
                        assert payoffs[i] in (params.reward_honest[i], params.reward_malicious[i])
                        assert payoffs[i] >= params.reward_honest[i]


class TestGameAgreement:
    def test_games_agree_when_opposing_side_wins(self, p3):
        # same split, opposing power above t: both games pay r_m / r_dp
        for mask in range(1, 8):
            g0 = game0(*[M if mask >> i & 1 else H for i in range(3)])
            g1 = game1(*[C if mask >> i & 1 else H for i in range(3)])
            agg = aggregate_powers(g0, p3.powers)
            if agg.v_opposing > p3.threshold_t:
                assert payoff_vector(p3, g0) == payoff_vector(p3, g1)


class TestSerialization:
    def test_round_trip_preserves_exact_values(self, p3):
        doc = params_to_json_dict(p3)
        assert doc["powers"] == ["2/5", "7/20", "1/4"]
        assert doc["t"] == "1/2"
        assert params_from_json_dict(doc) == p3

    def test_missing_field_named(self, p3):
        doc = params_to_json_dict(p3)
        del doc["t"]
        with pytest.raises(ValueError, match="missing field 't'"):
            params_from_json_dict(doc)

    def test_bad_rational_named(self, p3):
        doc = params_to_json_dict(p3)
        doc["r_h"][1] = "two"
        with pytest.raises(ValueError, match=r"r_h\[1\]"):
            params_from_json_dict(doc)


# (powers, t, rewards r_h/r_d/r_m/r_dp) given as ints and as rational strings
UNCOERCED_INPUTS = [
    pytest.param((1, 2, 3), 1, (2, -1, 5, -3), id="int"),
    pytest.param(("1/6", "1/3", "1/2"), "1/2", ("2", "-1/2", "5/3", "-3"), id="str"),
]


class TestFractionCoercion:
    @pytest.mark.parametrize("powers, t, rewards", UNCOERCED_INPUTS)
    def test_power_distribution(self, powers, t, rewards):
        dist = PowerDistribution(powers)
        assert all(type(p) is Fraction for p in dist)
        assert dist == PowerDistribution(tuple(Fraction(p) for p in powers))

    @pytest.mark.parametrize("powers, t, rewards", UNCOERCED_INPUTS)
    def test_game_params(self, powers, t, rewards):
        n = len(powers)
        params = GameParams(PowerDistribution(powers), t, *((r,) * n for r in rewards))
        exact = GameParams(
            PowerDistribution(tuple(Fraction(p) for p in powers)),
            Fraction(t),
            *((Fraction(r),) * n for r in rewards),
        )
        stored = (
            *params.powers,
            params.threshold_t,
            *params.reward_honest,
            *params.reward_deviant_vs_honest,
            *params.reward_malicious,
            *params.reward_deviant_vs_malicious,
        )
        assert all(type(v) is Fraction for v in stored)
        assert params == exact
        assert (params.weights, params.t_weight) == (exact.weights, exact.t_weight)

    @pytest.mark.parametrize("powers, t, rewards", UNCOERCED_INPUTS)
    def test_sim_config(self, powers, t, rewards):
        config = SimConfig(
            powers=PowerDistribution(("1/4", "3/4")),
            minions=frozenset({0}),
            consensus=Consensus.POS_SLASHING,
            confirmations=2,
            horizon_slots=10,
            rng_seed=0,
            threshold_t=t,
        )
        assert all(type(p) is Fraction for p in config.powers)
        assert type(config.threshold_t) is Fraction
        assert config.threshold_t == Fraction(t)

    def test_fractions_are_kept_not_rebuilt(self):
        powers = (Fraction(1, 4), Fraction(3, 4))
        t = Fraction(1, 2)
        params = GameParams(PowerDistribution(powers), t, *((Fraction(2),) * 2,) * 4)
        assert all(kept is given for kept, given in zip(params.powers, powers))
        assert params.threshold_t is t
