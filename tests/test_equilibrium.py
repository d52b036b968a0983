"""Tests for Nash checks, dominance, cascades, deposits, and the verifiers."""

import hashlib
import inspect
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
from briberysim.games import PowerDistribution, params_to_json_dict
from briberysim.rational import format_rational
from briberysim.scenario import TaskResult, table_csv
from briberysim.seeding import derive_seed
from helpers import (
    dominance_by_profiles,
    draw_by_randint,
    strict_nash_by_flips,
    t3_by_subsets,
    uniform_params,
)

H, C, M = Strategy.HONEST, Strategy.COMMIT, Strategy.MALICIOUS

# sha256 of the verify_theorem payloads over T1-T4 x seeds 0-39 x {no
# mutation, deviant_reward_above_honest}, 60 instances each: pins every drawn
# instance, verdict and failure text
THEOREM_DIGEST = "61bc61d95cee595e9c4b2f8e95254066a02422f0daa0a7a4282ab9704bbd89c2"

# sha256 of params_to_json_dict(random_game_params(Random(seed), (3, 8),
# mutation)) over seeds 0-59 x {no mutation, both MUTATIONS}: pins the
# Fractions every drawn instance converts to
DRAWN_PARAMS_DIGEST = "d9f0ec09d47621371655d3aca9b2a9fc8d03aa99f0d6cea77636101228f9359e"


# sha256 of the verify_theorem payloads over T3-T4 x seeds 0-299 x
# malicious_reward_below_honest, 60 instances each: pins the failure texts of
# the two claims that mutation breaks
BELOW_HONEST_DIGEST = "b21ebf8ba26cfb8d711d5202ace813dae97dd42191b411bc912375d2278f2819"


def below_honest_digest() -> str:
    digest = hashlib.sha256()
    for theorem in ("T3", "T4"):
        for seed in range(300):
            report = verify_theorem(
                theorem, seed, 60, (3, 8), mutation=MUTATION_MALICIOUS_REWARD_BELOW_HONEST
            )
            digest.update(json.dumps(report.to_payload(), sort_keys=True).encode())
    return digest.hexdigest()


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

    @pytest.mark.parametrize("n_range", [(2, 8), (3, 9), (5, 4)])
    def test_n_range_bound_text_pinned(self, n_range):
        message = f"n_range {n_range} must lie within [3, 8] (subset scans are 2^n)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            verify_theorem("T3", 1, 10, n_range=n_range)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            verify_deposit_theorem(1, 10, n_range=n_range)

    def test_n_range_default_pinned(self):
        for function in (random_game_params, verify_theorem, verify_deposit_theorem):
            assert inspect.signature(function).parameters["n_range"].default == (3, 8)

    def test_payload_shape(self):
        payload = verify_theorem("T4", 7, 25).to_payload()
        assert payload == {
            "theorem": "T4",
            "instances_tested": 25,
            "all_passed": True,
            "first_failure": None,
        }


class TestIntegerDraws:
    def test_checks_read_the_draw_as_its_game_params(self):
        # every check must say the same of an integer draw as of the
        # GameParams it converts to, and the conversion must be the instance
        # random_game_params draws from the same stream, as pinned
        failures = {theorem: 0 for theorem in equilibrium._CHECKS}
        digest = hashlib.sha256()
        for seed in range(60):
            for mutation in (None, *equilibrium.MUTATIONS):
                draw = equilibrium._draw(random.Random(seed), (3, 8), mutation)
                params = equilibrium._game_params(draw)
                assert params == random_game_params(random.Random(seed), (3, 8), mutation)
                digest.update(json.dumps(params_to_json_dict(params)).encode())
                for theorem, check in equilibrium._CHECKS.items():
                    text = check(draw)
                    assert text == check(params), (theorem, seed, mutation)
                    failures[theorem] += text is not None
        assert digest.hexdigest() == DRAWN_PARAMS_DIGEST
        # the comparison covers failure texts, not only passes
        assert failures["T1"] and failures["T3"] and failures["T4"]

    @pytest.mark.parametrize("n_range", [(1, 1), (0, 0), (3, 2)])
    def test_invalid_n_range_rejected_by_name(self, n_range):
        # no draw of (1, 1) is valid (a lone node always reaches t), so its
        # rejection loop would never end; (0, 0) has no node to draw
        message = f"n_range {n_range} must satisfy 2 <= n_min <= n_max"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            random_game_params(random.Random(0), n_range)

    @pytest.mark.parametrize("n", [2, 12])
    def test_smallest_and_largest_drawn_networks_are_valid(self, n):
        from briberysim import validate_params

        rng = random.Random(3)
        for _ in range(20):
            params = random_game_params(rng, (n, n))
            assert params.n == n
            assert validate_params(params) == []

    def test_game_params_built_only_for_the_reported_failure(self, monkeypatch):
        built = []
        post_init = GameParams.__post_init__

        def counting(params):
            built.append(params)
            post_init(params)

        monkeypatch.setattr(GameParams, "__post_init__", counting)
        assert verify_theorem("T1", 42, 200).all_passed
        assert built == []
        report = verify_theorem("T1", 5, 200, mutation=MUTATION_DEVIANT_REWARD_ABOVE_HONEST)
        assert not report.all_passed
        assert built == [report.first_failure.params]


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


def mixed_params(powers, t, r_h, r_m) -> GameParams:
    """Params with per-node honest and malicious rewards; r_d = r_h - 1, r_dp = r_m - 1."""
    return GameParams(
        powers=PowerDistribution(tuple(Fraction(p) for p in powers)),
        threshold_t=Fraction(t),
        reward_honest=tuple(map(Fraction, r_h)),
        reward_deviant_vs_honest=tuple(Fraction(r) - 1 for r in r_h),
        reward_malicious=tuple(map(Fraction, r_m)),
        reward_deviant_vs_malicious=tuple(Fraction(r) - 1 for r in r_m),
    )


class TestT3OverWeightRegions:
    def test_below_honest_digest_pinned(self):
        assert below_honest_digest() == BELOW_HONEST_DIGEST

    def test_matches_ordered_scan_on_random_draws(self):
        failures = {}
        for mutation in (None, *equilibrium.MUTATIONS):
            failures[mutation] = 0
            for seed in range(120):
                draw = equilibrium._draw(random.Random(f"t3-{mutation}-{seed}"), (3, 8), mutation)
                params = equilibrium._game_params(draw)
                expected = t3_by_subsets(params)
                assert _check_t3(draw) == expected == _check_t3(params), (mutation, seed)
                failures[mutation] += expected is not None
        # T3 holds on valid draws and fails on every draw with r_m below r_h
        assert failures == {None: 0, MUTATION_DEVIANT_REWARD_ABOVE_HONEST: 0,
                            MUTATION_MALICIOUS_REWARD_BELOW_HONEST: 120}

    def test_matches_ordered_scan_with_some_losers_and_ties_at_t(self):
        # r_m below r_h at a random subset of nodes, and t exactly the weight
        # of some subset, so the lowest failing mask must avoid non-losing
        # subsets and subsets landing exactly on t
        rng = random.Random(2024)
        sizes = set()
        for _ in range(400):
            n = rng.randint(3, 8)
            weights = [rng.randint(1, 6) for _ in range(n)]
            total = sum(weights)
            sums = {sum(w for i, w in enumerate(weights) if m >> i & 1) for m in range(1 << n)}
            t = rng.choice(sorted(w for w in sums if total / 2 <= w < total) or [total - 1])
            r_h = [rng.randint(1, 5) for _ in range(n)]
            r_m = [r + rng.choice((-2, -1, 1, 2)) for r in r_h]
            powers = [Fraction(w, total) for w in weights]
            params = mixed_params(powers, Fraction(t, total), r_h, r_m)
            expected = t3_by_subsets(params)
            assert _check_t3(params) == expected, (weights, t, r_h, r_m)
            if expected is not None:
                sizes.add(bin(int(expected.split()[2][:-1], 16)).count("1"))
        # failures come from subsets of several sizes; t is at least half the
        # total weight and a subset's weight, so no lone node exceeds it
        assert len(sizes) >= 3 and 1 not in sizes

    @pytest.mark.parametrize(
        "powers, t, r_m, expected",
        [
            # only node 2 loses; {0, 2} is the lowest subset with it above t
            (("2/5", "7/20", "1/4"), "1/2", (5, 5, 1),
             "deviating subset 0x5: node 2 earns 1 < honest reward 2"),
            # {0, 1} holds exactly t = 3/4, so only all three exceed it
            (("2/5", "7/20", "1/4"), "3/4", (1, 5, 5),
             "deviating subset 0x7: node 0 earns 1 < honest reward 2"),
            # {0, 1, 2} (0x7) exceeds t but nobody in it loses, {0, 3} lands
            # exactly on t, so the first failure is {1, 3}
            (("1/10", "1/5", "3/10", "2/5"), "1/2", (5, 5, 5, 1),
             "deviating subset 0xa: node 3 earns 1 < honest reward 2"),
            # every node loses: the lowest subset above t, reported at its lowest node
            (("1/10", "1/5", "3/10", "2/5"), "1/2", (1, 1, 1, 1),
             "deviating subset 0x7: node 0 earns 1 < honest reward 2"),
        ],
    )
    def test_lowest_failing_subset_is_not_a_singleton(self, powers, t, r_m, expected):
        params = mixed_params(powers, t, (2,) * len(powers), r_m)
        assert _check_t3(params) == expected == t3_by_subsets(params)

    def test_subsets_are_scanned_only_for_the_failing_instance(self, monkeypatch):
        calls = []
        subset_weights = equilibrium._subset_weights

        def counting(weights):
            calls.append(tuple(weights))
            return subset_weights(weights)

        monkeypatch.setattr(equilibrium, "_subset_weights", counting)
        assert verify_theorem("T3", 7, 500).all_passed
        assert calls == []
        report = verify_theorem("T3", 7, 200, mutation=MUTATION_MALICIOUS_REWARD_BELOW_HONEST)
        assert not report.all_passed
        assert len(calls) == 1


class TestDrawMatchesRandint:
    @pytest.mark.parametrize("mutation", [None, *equilibrium.MUTATIONS])
    @pytest.mark.parametrize("n_range", [(3, 8), (3, 3), (4, 7), (5, 8), (8, 8), (3, 6)])
    def test_same_instances_and_same_stream(self, mutation, n_range):
        # (3, 3) draws n from a span of 1, (4, 7) and (5, 8) from a span of
        # 4: both still consume random bits, as random.randint does
        seeds = [*range(60), *(derive_seed(7, "instance", i) for i in range(60))]
        for seed in seeds:
            fast, oracle = random.Random(seed), random.Random(seed)
            drawn = equilibrium._draw(fast, n_range, mutation)
            assert drawn == draw_by_randint(oracle, n_range, mutation)
            assert fast.random() == oracle.random()


def strict_nash_text(params: GameParams, profile: StrategyProfile, label: str) -> str | None:
    """The T1/T4 failure text, built from `is_strict_nash`'s report."""
    report = is_strict_nash(params, profile)
    if report.is_strict_nash:
        return None
    ce = report.counterexample
    game = profile.variant.value.replace("_", "-")
    return (
        f"{label} not strict in the {game} game: node {ce.node} deviates to "
        f"{ce.strategy.value} for {format_rational(ce.payoff_after)} >= "
        f"{format_rational(ce.payoff_before)}"
    )


class TestOneFlipLoop:
    @pytest.mark.parametrize("n_range", [(3, 3), (8, 8), (3, 8)])
    def test_verifier_texts_match_is_strict_nash(self, n_range):
        # the T1/T4 checks flip nodes out of the uniform split directly; they
        # must say what is_strict_nash says of the same instance's profile
        failures = {"T1": 0, "T4": 0}
        for mutation in (None, *equilibrium.MUTATIONS):
            for seed in range(250):
                draw = equilibrium._draw(random.Random(seed), n_range, mutation)
                params = equilibrium._game_params(draw)
                for theorem, profile, label in (
                    ("T1", all_honest(draw.n, Variant.NO_COLLUSION), "all-honest"),
                    ("T4", all_commit(draw.n), "all-commit"),
                ):
                    text = equilibrium._CHECKS[theorem](draw)
                    expected = strict_nash_text(params, profile, label)
                    assert text == expected, (theorem, seed, mutation)
                    failures[theorem] += text is not None
        # 3 x 250 draws per n_range, and failure texts are compared, not only passes
        assert failures["T1"] and failures["T4"]

    def test_is_strict_nash_matches_explicit_flips_on_mixed_profiles(self):
        rng = random.Random(2025)
        counterexamples = {H: 0, M: 0, C: 0, None: 0}
        for index in range(600):
            params = random_game_params(rng, (2, 7), rng.choice((None, *equilibrium.MUTATIONS)))
            variant = rng.choice(list(Variant))
            opposing = C if variant is Variant.COLLUSION else M
            choices = tuple(rng.choice((H, opposing)) for _ in range(params.n))
            profile = StrategyProfile(choices, variant)
            report = is_strict_nash(params, profile)
            assert report == strict_nash_by_flips(params, profile), (index, profile)
            ce = report.counterexample
            counterexamples[None if ce is None else ce.strategy] += 1
        # flips from both sides are found first, in both games, and some profiles are strict
        assert all(counterexamples.values())

    def test_lower_node_of_the_two_sides_is_reported(self):
        # the split stalls (0 each): node 0 (opposing) gains by flipping and
        # nodes 1 and 2 (honest) break even; node 0 comes first
        params = uniform_params(("1/4", "1/4", "1/2"), "3/4", 2, -1, 5, -3)
        profile = StrategyProfile((M, H, H), Variant.NO_COLLUSION)
        report = is_strict_nash(params, profile)
        assert report == strict_nash_by_flips(params, profile)
        assert (report.counterexample.node, report.profiles_checked) == (0, 2)
