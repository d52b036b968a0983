"""Acceptance criteria.

Each test enforces one release criterion at its stated tolerance and prints
one PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).
Everything is seeded, so these results are reproducible bit for bit.
"""

import hashlib
import itertools
import json
import random
import time
from fractions import Fraction
from pathlib import Path

from briberysim import (
    Consensus,
    PowerDistribution,
    SimConfig,
    Variant,
    all_honest,
    catch_up_probability,
    deposit_bound,
    find_deviation_cascade,
    is_strict_nash,
    random_game_params,
    run_attack,
    settlement_summary,
    verify_deposit_bound,
    verify_deposit_theorem,
    verify_theorem,
    load_scenario,
    run_scenario,
)
from briberysim.equilibrium import deposit_bound_attained
from briberysim.seeding import derive_seed
from helpers import binomial_acceptance_range, random_contract_session

REPO_ROOT = Path(__file__).resolve().parent.parent
P3_POWERS = PowerDistribution(("2/5", "7/20", "1/4"))

ACCEPTANCE_SEED = 20260810

# sha256 of each file `briberysim verify scenarios/p3.json --out` writes
P3_ARTIFACT_SHA256 = {
    "cascade_4.csv": "1443ddc5c8b85d7770093ae3a226436c4a02945e2fa8a8481e22f4458173b69e",
    "contract_trace_6.csv": "916934ba9a4f482242eb268a5c22d7aa40003e0499f931d5899a004a621e9123",
    "report.json": "48fa9dd37fc04b3d69e6fd2651afde6aa7554cddbcac692357a5c80ead232aca",
    "sweep_8.csv": "4434364e5e17df4faa10bdd36c8ebbd37069c818d52eef8e4266790b3d8ac23a",
}

# sha256 of each file `briberysim verify scenarios/long_race.json --out` writes:
# a traced minority race that runs out its 4,000-slot horizon and a PoS sweep
LONG_RACE_ARTIFACT_SHA256 = {
    "chain_trace_0.csv": "29baf7d01386b73f5242b6ac967a7405e1b57bb38f231737ff7e6ea9f95588f2",
    "report.json": "51a30596c83960a8d5326e8e3cc41928450653a1b8edb01fdf138c74223d491f",
    "sweep_1.csv": "6a23b79584f656720a917e6e60da96f648e94f5294d2bbcae0efe2b924bc1dac",
}


def _report(criterion: str, ok: bool, elapsed: float, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {status} in {elapsed:.2f}s{suffix}")
    assert ok, f"{criterion} failed: {detail}"


def test_c1_theorem1_all_honest_strict_without_collusion():
    started = time.perf_counter()
    report = verify_theorem("T1", ACCEPTANCE_SEED, 1000, (3, 8))
    elapsed = time.perf_counter() - started
    ok = report.all_passed and report.instances_tested == 1000 and elapsed <= 10
    _report("C1 theorem-1 strict NE (1000 instances)", ok, elapsed)


def test_c2_theorem3_deviating_subsets_never_lose():
    started = time.perf_counter()
    report = verify_theorem("T3", ACCEPTANCE_SEED, 500, (3, 8))
    # independent pass over the same instances: all-honest must be strict
    # in the collusion game in exactly 0% of them
    strict_count = 0
    for index in range(500):
        rng = random.Random(derive_seed(ACCEPTANCE_SEED, "instance", index))
        params = random_game_params(rng, (3, 8))
        if is_strict_nash(params, all_honest(params.n, Variant.COLLUSION)).is_strict_nash:
            strict_count += 1
    elapsed = time.perf_counter() - started
    ok = report.all_passed and strict_count == 0 and elapsed <= 60
    _report(
        "C2 theorem-3 subset deviations (500 instances)",
        ok,
        elapsed,
        f"strict all-honest count {strict_count}",
    )


def test_c3_theorem4_all_commit_strict_with_collusion():
    started = time.perf_counter()
    report = verify_theorem("T4", ACCEPTANCE_SEED, 1000, (3, 8))
    elapsed = time.perf_counter() - started
    ok = report.all_passed and elapsed <= 10
    _report("C3 theorem-4 strict NE (1000 instances)", ok, elapsed)


def test_c4_theorem2_deposit_bound_strictness():
    started = time.perf_counter()
    report = verify_deposit_theorem(ACCEPTANCE_SEED, 1000, (3, 8))
    attained = 0
    for index in range(1000):
        rng = random.Random(derive_seed(ACCEPTANCE_SEED, "instance", index))
        params = random_game_params(rng, (3, 8))
        bound = deposit_bound(params)
        assert verify_deposit_bound(params, bound + 1).sufficient
        if deposit_bound_attained(params):
            attained += 1
            assert not verify_deposit_bound(params, bound).sufficient
    elapsed = time.perf_counter() - started
    ok = report.all_passed and attained > 0 and elapsed <= 10
    _report(
        "C4 theorem-2 deposit bound (1000 instances)",
        ok,
        elapsed,
        f"bound attained in {attained} instances",
    )


def test_c5_cascade_monotone_for_all_orders():
    started = time.perf_counter()
    rng = random.Random(derive_seed(ACCEPTANCE_SEED, "cascade"))
    fixtures = [random_game_params(rng, (3, 6)) for _ in range(20)]
    orders_checked = 0
    ok = True
    for params in fixtures:
        for order in itertools.permutations(range(params.n)):
            trace = find_deviation_cascade(params, order)
            orders_checked += 1
            if not trace.all_monotone or trace.steps[-1].payoffs != params.reward_malicious:
                ok = False
                break
    elapsed = time.perf_counter() - started
    ok = ok and elapsed <= 60
    _report("C5 cascade monotonicity (20 fixtures, all orders)", ok, elapsed, f"{orders_checked} orders")


def test_c6_contract_conservation_exact():
    started = time.perf_counter()
    rng = random.Random(derive_seed(ACCEPTANCE_SEED, "contract"))
    violations = 0
    for _ in range(10_000):
        session = random_contract_session(rng)
        summary = settlement_summary(session.final_state)
        if (
            summary.total_payouts + summary.total_burned + summary.residual_to_magnate
            != summary.magnate_deposit + summary.total_deposits
        ):
            violations += 1
    elapsed = time.perf_counter() - started
    _report(
        "C6 contract conservation (10000 sequences)",
        violations == 0,
        elapsed,
        f"{violations} violations",
    )


def test_c7_commitment_risk_free_without_order():
    started = time.perf_counter()
    rng = random.Random(derive_seed(ACCEPTANCE_SEED, "risk-free"))
    runs = 0
    exact_refunds = 0
    for _ in range(3000):
        session = random_contract_session(rng, force_no_trigger=True)
        runs += 1
        if all(
            session.final_state.settlements[node][1] == deposit
            for node, deposit in session.deposits.items()
        ):
            exact_refunds += 1
    elapsed = time.perf_counter() - started
    _report(
        "C7 risk-free commitment (3000 no-order runs)",
        exact_refunds == runs,
        elapsed,
        f"{exact_refunds}/{runs} exact refunds",
    )


def _pow_success_rate(minions, confirmations, horizon, runs, label):
    hits = 0
    for i in range(runs):
        config = SimConfig(
            powers=P3_POWERS,
            minions=frozenset(minions),
            consensus=Consensus.POW_LONGEST_CHAIN,
            confirmations=confirmations,
            horizon_slots=horizon,
            rng_seed=derive_seed(ACCEPTANCE_SEED, label, i),
        )
        if run_attack(config).success:
            hits += 1
    return hits, runs


def test_c8_pow_race_agrees_with_gamblers_ruin():
    started = time.perf_counter()
    # majority minions (share 3/4), k = 3: prediction is certain catch-up
    hits, runs = _pow_success_rate({0, 1}, 3, 10_000, 1000, "pow-majority")
    majority_rate = hits / runs
    prediction = float(catch_up_probability(Fraction(3, 4), 4))
    majority_ok = abs(majority_rate - prediction) <= 0.02

    # minority minion (share 1/4), k = 2: the fork closes a deficit of
    # k + 1 = 3 with probability (1/4 / 3/4)^3 = 1/27. The hit count must lie
    # in the two-sided exact-binomial range that a correct race leaves with
    # probability 1e-6; the 2498-slot race horizon lowers the true rate by
    # far less than that range resolves. A deficit of k (1/9) or a fork that
    # never wins (0) falls outside it.
    minority_p = catch_up_probability(Fraction(1, 4), 3)
    lo, hi = binomial_acceptance_range(1000, minority_p, Fraction(1, 10**6))
    minority_hits, _ = _pow_success_rate({2}, 2, 2500, 1000, "pow-minority")
    minority_ok = lo <= minority_hits <= hi

    elapsed = time.perf_counter() - started
    ok = majority_ok and minority_ok and elapsed <= 120
    _report(
        "C8 PoW fork-race oracle agreement",
        ok,
        elapsed,
        f"majority {majority_rate:.3f} vs {prediction:.3f}, "
        f"minority {minority_hits}/1000 in [{lo}, {hi}]",
    )


def test_c9_pos_censorship_in_successful_attacks():
    started = time.perf_counter()
    successes = 0
    proofs_on_chain = 0
    offender_gaps = 0
    for i in range(100):
        config = SimConfig(
            powers=P3_POWERS,
            minions=frozenset({0, 1}),
            consensus=Consensus.POS_SLASHING,
            confirmations=3,
            horizon_slots=10_000,
            rng_seed=derive_seed(ACCEPTANCE_SEED, "pos", i),
        )
        result = run_attack(config)
        if not result.success:
            continue
        successes += 1
        proofs_on_chain += sum(result.double_signs.values()) - result.slashing_proofs_censored
        # every fork block is a double-sign, so counts must be positive for
        # every minion that produced on the fork and cover the whole fork
        if sum(result.double_signs.values()) != result.fork_length or any(
            c <= 0 for c in result.double_signs.values()
        ):
            offender_gaps += 1
    elapsed = time.perf_counter() - started
    ok = successes == 100 and proofs_on_chain == 0 and offender_gaps == 0
    _report(
        "C9 PoS censorship (100 successful runs)",
        ok,
        elapsed,
        f"{successes} successes, {proofs_on_chain} proofs landed",
    )


def test_c10_full_scenario_suite_reproducible(tmp_path):
    started = time.perf_counter()
    scenario = load_scenario(REPO_ROOT / "scenarios" / "p3.json")
    run_scenario(scenario, output_dir=tmp_path / "first")
    run_scenario(scenario, output_dir=tmp_path / "second")
    first = sorted((tmp_path / "first").iterdir())
    second = sorted((tmp_path / "second").iterdir())
    names_match = [p.name for p in first] == [p.name for p in second]
    bytes_match = names_match and all(
        a.read_bytes() == b.read_bytes() for a, b in zip(first, second)
    )
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in first}
    elapsed = time.perf_counter() - started
    _report(
        "C10 reproducibility (byte-identical reports, pinned p3 bytes)",
        bytes_match and digests == P3_ARTIFACT_SHA256,
        elapsed,
        f"{len(first)} artifacts compared",
    )


def test_long_race_scenario_bytes_pinned(tmp_path):
    scenario = load_scenario(REPO_ROOT / "scenarios" / "long_race.json")
    run_scenario(scenario, output_dir=tmp_path)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert digests == LONG_RACE_ARTIFACT_SHA256
    chain_sim = json.loads((tmp_path / "report.json").read_text())["tasks"][0]["result"]
    # the first run is a lost race over the whole horizon
    assert chain_sim["first_run"]["success"] is False
    assert chain_sim["first_run"]["slots_elapsed"] == scenario.sim.horizon_slots == 4000
