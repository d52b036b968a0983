"""Tests for Nash checks, dominance, cascades, deposits, and the verifiers."""

import hashlib
import itertools
import json
import random
import re
from fractions import Fraction

import pytest

from briberysim import (
    GameParams,
    Strategy,
    StrategyProfile,
    Variant,
    all_commit,
    all_honest,
    check_weak_dominance_game1,
    deposit_bound,
    find_deviation_cascade,
    is_strict_nash,
    payoff_vector,
    random_game_params,
    utility,
    verify_deposit_bound,
    verify_deposit_theorem,
    verify_theorem,
)
from briberysim import equilibrium
from briberysim.equilibrium import (
    MUTATION_DEVIANT_REWARD_ABOVE_HONEST,
    MUTATION_MALICIOUS_REWARD_BELOW_HONEST,
    DepositCheck,
    EnumerationLimitError,
    NodeDominance,
    _check_t3,
    deposit_bound_attained,
)
from briberysim.rational import format_rational
from briberysim.scenario import TaskResult, table_csv
from helpers import dominance_by_profiles, uniform_params

H, C, M = Strategy.HONEST, Strategy.COMMIT, Strategy.MALICIOUS

# sha256 of the verify_theorem payloads over T1-T4 x seeds 0-39 x {no
# mutation, deviant_reward_above_honest}, 60 instances each: pins every drawn
# instance, verdict and failure text
THEOREM_DIGEST = "61bc61d95cee595e9c4b2f8e95254066a02422f0daa0a7a4282ab9704bbd89c2"


def theorem_digest() -> str:
    digest = hashlib.sha256()
    for theorem in ("T1", "T2", "T3", "T4"):
        for seed in range(40):
            for mutation in (None, MUTATION_DEVIANT_REWARD_ABOVE_HONEST):
                report = verify_theorem(theorem, seed, 60, (3, 8), mutation=mutation)
                digest.update(json.dumps(report.to_payload(), sort_keys=True).encode())
    return digest.hexdigest()


class TestStrictNash:
    def test_all_honest_strict_without_collusion(self, p3):
        report = is_strict_nash(p3, all_honest(3, Variant.NO_COLLUSION))
        assert report.is_strict_nash
        assert report.counterexample is None
        assert report.profiles_checked == 4

    def test_all_honest_not_strict_with_collusion(self, p3):
        # a lone committer breaks even: the contract orders the honest
        # protocol, so the deviation costs nothing
        report = is_strict_nash(p3, all_honest(3, Variant.COLLUSION))
        assert not report.is_strict_nash
        ce = report.counterexample
        assert ce.strategy is Strategy.COMMIT
        assert ce.payoff_before == 2
        assert ce.payoff_after == 2

    def test_all_commit_strict(self, p3):
        assert is_strict_nash(p3, all_commit(3)).is_strict_nash

    def test_power_exactly_at_threshold_is_not_enough(self):
        # nodes 0 and 1 hold 2/5 + 7/20 = 3/4 = t: exactly t executes nothing,
        # so the contract orders the honest protocol and pays everyone r_h
        params = uniform_params(("2/5", "7/20", "1/4"), "3/4", 2, -1, 5, -3)
        assert payoff_vector(params, StrategyProfile((C, C, H), Variant.COLLUSION)) == (2, 2, 2)
        # without collusion neither side clears t and the system stalls
        assert payoff_vector(params, StrategyProfile((M, M, H), Variant.NO_COLLUSION)) == (0, 0, 0)


class TestWeakDominance:
    def test_commitment_weakly_dominates_honesty(self, p3):
        report = check_weak_dominance_game1(p3)
        assert report.weakly_dominates
        assert report.opponent_profiles_checked == 4
        assert all(d.never_worse and d.strictly_better_somewhere for d in report.per_node)

    def test_strict_improvement_witnessed_against_committed_others(self, p3):
        # when both others commit, committing earns 5 instead of -3
        others_commit = StrategyProfile((H, C, C), Variant.COLLUSION)
        me_too = StrategyProfile((C, C, C), Variant.COLLUSION)
        assert utility(p3, others_commit, 0) == -3
        assert utility(p3, me_too, 0) == 5

    def test_smaller_malicious_margin_still_dominates(self):
        params = uniform_params(("2/5", "7/20", "1/4"), "1/2", 2, -1, 3, -3)
        assert check_weak_dominance_game1(params).weakly_dominates

    def test_matches_profile_scan_on_random_instances(self):
        never_worse = []
        for mutation in (None, *equilibrium.MUTATIONS):
            rng = random.Random(f"dominance-{mutation}")
            for _ in range(40):
                params = random_game_params(rng, (3, 8), mutation=mutation)
                report = check_weak_dominance_game1(params)
                assert report == dominance_by_profiles(params)
                never_worse += [d.never_worse for d in report.per_node]
        # both outcomes occur
        assert True in never_worse and False in never_worse

    def test_strict_gain_counted_after_a_loss(self):
        # r_m < r_h: node 0 loses by committing when only node 1 commits
        # (opponent mask 1, 2 -> 1) and gains when both others do (mask 3,
        # -3 -> 1); the gain counts although the scan meets the loss first
        params = uniform_params(("2/5", "7/20", "1/4"), "1/2", 2, -1, 1, -3)
        report = check_weak_dominance_game1(params)
        assert report.per_node[0] == NodeDominance(0, False, True)
        assert report == dominance_by_profiles(params)

    def test_enumeration_limit(self):
        n = 13
        params = uniform_params((Fraction(1, n),) * n, "1/2", 2, -1, 5, -3)
        with pytest.raises(EnumerationLimitError):
            check_weak_dominance_game1(params)


class TestDeviationCascade:
    def test_order_2_1_0(self, p3):
        trace = find_deviation_cascade(p3, (2, 1, 0))
        assert trace.initial_payoffs == (2, 2, 2)
        assert [s.payoffs for s in trace.steps] == [(2, 2, 2), (-3, 5, 5), (5, 5, 5)]
        assert all(s.deviator_monotone for s in trace.steps)
        assert trace.final_profile == all_commit(3)

    def test_order_0_1_2(self, p3):
        trace = find_deviation_cascade(p3, (0, 1, 2))
        assert [s.payoffs for s in trace.steps] == [(2, 2, 2), (5, 5, -3), (5, 5, 5)]

    def test_single_node_prefix_changes_nothing(self, p3):
        # no single node reaches the threshold, so the contract orders the
        # honest protocol and payoffs stay at the all-honest baseline
        for node in range(3):
            trace = find_deviation_cascade(p3, (node,))
            assert trace.steps[0].payoffs == trace.initial_payoffs

    def test_duplicate_order_rejected(self, p3):
        with pytest.raises(ValueError, match="not a permutation"):
            find_deviation_cascade(p3, (0, 0, 1))

    def test_out_of_range_order_rejected(self, p3):
        with pytest.raises(ValueError, match="not a permutation"):
            find_deviation_cascade(p3, (0, 3))

    def test_all_orders_monotone_for_random_fixtures(self):
        rng = random.Random(11)
        for _ in range(5):
            params = random_game_params(rng, (3, 5))
            for order in itertools.permutations(range(params.n)):
                trace = find_deviation_cascade(params, order)
                assert trace.all_monotone
                assert trace.steps[-1].payoffs == params.reward_malicious

    def test_csv_export(self, p3):
        trace = find_deviation_cascade(p3, (2, 1, 0))
        task = TaskResult("cascade", 0, trace.all_monotone, trace.to_payload())
        lines = table_csv(task).splitlines()
        assert lines[0] == "step,deviating_set,payoff_0,payoff_1,payoff_2,monotone"
        assert lines[1] == "0,,2,2,2,True"
        assert lines[3] == "2,1;2,-3,5,5,True"


class TestDepositBound:
    def test_p3_bound(self, p3):
        assert deposit_bound(p3) == 8

    def test_zero_penalties_reduce_to_malicious_reward(self):
        params = uniform_params(("2/5", "7/20", "1/4"), "1/2", "1/2", 0, 1, 0)
        assert deposit_bound(params) == 1

    def test_heterogeneous_maximum(self, p3):
        params = GameParams(
            powers=p3.powers,
            threshold_t=p3.threshold_t,
            reward_honest=p3.reward_honest,
            reward_deviant_vs_honest=p3.reward_deviant_vs_honest,
            reward_malicious=(Fraction(10), Fraction(5), Fraction(5)),
            reward_deviant_vs_malicious=(Fraction(-4), Fraction(-3), Fraction(-3)),
        )
        assert deposit_bound(params) == 14


class TestVerifyDepositBound:
    def test_above_bound_sufficient(self, p3):
        report = verify_deposit_bound(p3, Fraction(9))
        assert report.sufficient
        assert report.pairs_checked == 48

    def test_exactly_at_bound_insufficient(self, p3):
        # the bound is attained by the pair y = r_m = 5, x = r_dp = -3
        report = verify_deposit_bound(p3, Fraction(8))
        assert not report.sufficient
        assert (report.violation.y, report.violation.x) == (5, -3)

    def test_zero_deposit_insufficient(self, p3):
        report = verify_deposit_bound(p3, Fraction(0))
        assert not report.sufficient
        assert report.violation.y - 0 >= report.violation.x

    def test_unattained_bound_can_pass(self):
        # positive penalties leave slack between the bound and the true
        # worst payoff gap, so the bound itself already deters
        params = uniform_params(("2/5", "7/20", "1/4"), "1/2", 3, 1, 5, 2)
        assert not deposit_bound_attained(params)
        assert verify_deposit_bound(params, deposit_bound(params)).sufficient

    def test_attained_bound_plus_epsilon_sufficient(self, p3):
        assert deposit_bound_attained(p3)
        for epsilon in (Fraction(1, 1000), Fraction(1, 7), Fraction(3)):
            assert verify_deposit_bound(p3, deposit_bound(p3) + epsilon).sufficient


class TestVerifyTheorem:
    def test_t1_passes(self):
        report = verify_theorem("T1", 123, 150)
        assert report.all_passed and report.instances_tested == 150

    def test_t3_passes(self):
        assert verify_theorem("T3", 123, 80).all_passed

    def test_t4_passes(self):
        assert verify_theorem("T4", 123, 150).all_passed

    def test_t2_passes(self):
        assert verify_deposit_theorem(123, 150).all_passed

    @pytest.mark.parametrize("sufficient", [True, False])
    def test_t2_can_fail(self, monkeypatch, sufficient):
        # an oracle that judges every deposit sufficient must trip the
        # attained-bound check; one that judges none sufficient, the check
        # one unit above the bound
        def judge(params, deposit):
            return DepositCheck(sufficient, None, 0)

        monkeypatch.setattr(equilibrium, "verify_deposit_bound", judge)
        for report in (verify_theorem("T2", 123, 150), verify_deposit_theorem(123, 150)):
            failure = report.first_failure
            assert not report.all_passed and failure is not None
            bound = deposit_bound(failure.params)
            if sufficient:
                expected = f"bound {format_rational(bound)} is attained yet judged sufficient"
            else:
                expected = f"deposit {format_rational(bound + 1)} above the bound judged insufficient"
            assert failure.description == expected

    def test_same_seed_same_report(self):
        assert verify_theorem("T3", 99, 40) == verify_theorem("T3", 99, 40)
        # different seeds must draw different instances: under the mutation
        # both fail, and the failing parameter sets must differ
        mutation = MUTATION_DEVIANT_REWARD_ABOVE_HONEST
        first = verify_theorem("T1", 99, 40, mutation=mutation).first_failure
        second = verify_theorem("T1", 98, 40, mutation=mutation).first_failure
        assert first is not None and second is not None
        assert first.params != second.params

    def test_corrupted_generator_fails_t1(self):
        report = verify_theorem("T1", 5, 200, mutation=MUTATION_DEVIANT_REWARD_ABOVE_HONEST)
        assert not report.all_passed
        assert report.first_failure is not None
        assert "deviates" in report.first_failure.description

    def test_theorem_digest_pinned(self):
        assert theorem_digest() == THEOREM_DIGEST

    def test_malicious_reward_below_honest_fails_t3_and_t4(self):
        mutation = MUTATION_MALICIOUS_REWARD_BELOW_HONEST
        t3 = verify_theorem("T3", 7, 200, mutation=mutation).first_failure
        assert t3 is not None
        match = re.fullmatch(
            r"deviating subset (0x[0-9a-f]+): node (\d+) earns (-?\d+) < honest reward (\d+)",
            t3.description,
        )
        assert match is not None
        # the reported subset and node are the first failure of a direct scan
        # over explicit profiles, subsets in increasing mask order
        params = t3.params
        first = None
        for mask in range(1, 1 << params.n):
            profile = StrategyProfile(
                tuple(C if mask >> i & 1 else H for i in range(params.n)), Variant.COLLUSION
            )
            losers = [
                i
                for i in range(params.n)
                if mask >> i & 1 and utility(params, profile, i) < params.reward_honest[i]
            ]
            if losers:
                first = (mask, losers[0], utility(params, profile, losers[0]))
                break
        mask, node, earned = first
        assert match.groups() == (
            f"{mask:#x}",
            str(node),
            format_rational(earned),
            format_rational(params.reward_honest[node]),
        )
        t4 = verify_theorem("T4", 7, 200, mutation=mutation).first_failure
        assert t4 is not None
        assert t4.description.startswith("all-commit not strict in the collusion game: node ")
        # r_m is not read by T1
        assert verify_theorem("T1", 7, 200, mutation=mutation).all_passed

    def test_unknown_theorem_rejected(self):
        with pytest.raises(ValueError, match="theorem"):
            verify_theorem("T9", 1, 10)

    def test_bad_instance_count_rejected(self):
        with pytest.raises(ValueError, match="instances"):
            verify_theorem("T1", 1, 0)

    def test_n_range_outside_cap_rejected(self):
        with pytest.raises(ValueError, match="n_range"):
            verify_theorem("T3", 1, 10, n_range=(3, 9))

    def test_payload_shape(self):
        payload = verify_theorem("T4", 7, 25).to_payload()
        assert payload == {
            "theorem": "T4",
            "instances_tested": 25,
            "all_passed": True,
            "first_failure": None,
        }


class TestSubsetScanAgainstDirectUtilities:
    def test_t3_subset_scan_matches_per_profile_evaluation(self):
        # independent route: build each deviating profile explicitly and
        # evaluate the collusion utility, instead of the verifier's
        # subset-power recurrence
        rng = random.Random(31)
        for _ in range(10):
            params = random_game_params(rng, (3, 6))
            n = params.n
            for mask in range(1, 1 << n):
                choices = tuple(C if mask >> i & 1 else H for i in range(n))
                profile = StrategyProfile(choices, Variant.COLLUSION)
                for i in range(n):
                    if mask >> i & 1:
                        assert utility(params, profile, i) >= params.reward_honest[i]

    def test_subset_scan_can_fail(self):
        # r_m = 1 < r_h = 2: once nodes 0 and 1 (power 3/4 > 1/2) commit, the
        # contract orders the malicious protocol and they earn less
        params = uniform_params(("2/5", "7/20", "1/4"), "1/2", 2, -1, 1, -3)
        assert _check_t3(params) == "deviating subset 0x3: node 0 earns 1 < honest reward 2"

    def test_generator_output_is_always_valid(self):
        from briberysim import validate_params

        rng = random.Random(17)
        for _ in range(200):
            assert validate_params(random_game_params(rng)) == []
