"""Tests for the record types: result records are NamedTuples, and the
configs that callers rebuild with `dataclasses.replace` stay dataclasses."""

import dataclasses
from pathlib import Path

import pytest

from briberysim import (
    AttackResult,
    Consensus,
    load_scenario,
    run_attack,
    run_attack_detailed,
    run_scenario,
    verify_theorem,
)
from briberysim.scenario import _seeded_runs
from briberysim.seeding import derive_seed

P3 = Path(__file__).resolve().parent.parent / "scenarios" / "p3.json"


def test_records_compare_equal_to_tuples_of_their_fields():
    report = verify_theorem("T1", 5, 3)
    assert report == ("T1", 3, True, None)
    assert report._replace(instances_tested=4) == ("T1", 4, True, None)


def test_attack_result_default_double_signs_is_read_only():
    result = AttackResult(True, 4, 4, 3, {0: 4}, Consensus.POW_LONGEST_CHAIN)
    assert result.double_signs == {} and result.slashing_proofs_censored == 0
    with pytest.raises(TypeError):
        result.double_signs[0] = 1


def test_sim_config_replace_sets_the_seed_a_run_reads():
    # minion node 2 holds 1/4: within 60 slots some races are won, some lost
    config = dataclasses.replace(load_scenario(P3).sim_config(0), minions={2}, horizon_slots=60)
    seeds = [derive_seed(42, "sim-run", 0, run) for run in range(40)]
    copies = [dataclasses.replace(config, rng_seed=seed) for seed in seeds]
    assert [copy.rng_seed for copy in copies] == seeds
    assert all(copy.minions == frozenset({2}) for copy in copies)
    runs = [run_attack_detailed(copy) for copy in copies]
    assert [run.result for run in runs] == [run_attack(copy) for copy in copies]
    # a scenario's runs pass each seed beside the one config, as replace sets it
    first, counts = _seeded_runs(config, 42, 0, len(seeds))
    assert first == runs[0]
    assert counts["successes"] == sum(run.result.success for run in runs)
    assert 0 < counts["successes"] < len(seeds)


def test_scenario_replace_runs_only_the_tasks_given(tmp_path):
    scenario = load_scenario(P3)
    for task in scenario.tasks:
        copy = dataclasses.replace(scenario, tasks=(task,))
        report = run_scenario(copy, tmp_path / task.kind)
        assert [t.kind for t in report.tasks] == [task.kind]
        assert report.all_passed
