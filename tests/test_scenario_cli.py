"""Tests for scenario loading, the batch runner, and the CLI."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from briberysim import ScenarioError, load_scenario, run_scenario
from briberysim.cli import main
from briberysim.scenario import TABLE_ARTIFACT_KINDS, report_json

REPO_ROOT = Path(__file__).resolve().parent.parent
REPO_SCENARIOS = REPO_ROOT / "scenarios"

P3_PARAMS = {
    "powers": ["2/5", "7/20", "1/4"],
    "t": "1/2",
    "r_h": ["2", "2", "2"],
    "r_d": ["-1", "-1", "-1"],
    "r_m": ["5", "5", "5"],
    "r_dp": ["-3", "-3", "-3"],
}

# 13 nodes: one more than a dominance scan enumerates
THIRTEEN_NODE_PARAMS = {
    "powers": ["1/13"] * 13,
    "t": "1/2",
    "r_h": ["2"] * 13,
    "r_d": ["-1"] * 13,
    "r_m": ["5"] * 13,
    "r_dp": ["-3"] * 13,
}

P3_SIM = {
    "powers": ["2/5", "7/20", "1/4"],
    "minions": [0, 1],
    "consensus": "pow_longest_chain",
    "confirmations": 3,
    "horizon_slots": 2000,
}


def write_scenario(path: Path, **overrides) -> Path:
    """Write a scenario file; an override of None drops that section."""
    doc = {
        "schema_version": 1,
        "name": "test-scenario",
        "seed": 7,
        "params": P3_PARAMS,
        "sim": P3_SIM,
        "tasks": [],
    }
    doc.update(overrides)
    doc = {key: value for key, value in doc.items() if value is not None}
    file = path / "scenario.json"
    file.write_text(json.dumps(doc), encoding="utf-8")
    return file


class TestLoadScenario:
    def test_repo_fixture_loads(self):
        scenario = load_scenario(REPO_SCENARIOS / "p3.json")
        assert scenario.name == "p3-baseline"
        assert scenario.params.n == 3
        assert len(scenario.tasks) == 9

    def test_unnormalized_powers_name_assumption_1(self, tmp_path):
        params = dict(P3_PARAMS, powers=["1/2", "49/100"], r_h=["2", "2"], r_d=["-1", "-1"],
                      r_m=["5", "5"], r_dp=["-3", "-3"], t="3/5")
        file = write_scenario(tmp_path, params=params)
        with pytest.raises(ScenarioError, match="Assumption 1"):
            load_scenario(file)

    def test_missing_t_field_named(self, tmp_path):
        params = {k: v for k, v in P3_PARAMS.items() if k != "t"}
        file = write_scenario(tmp_path, params=params)
        with pytest.raises(ScenarioError, match="missing field 't'"):
            load_scenario(file)

    def test_low_threshold_names_assumption_5(self, tmp_path):
        file = write_scenario(tmp_path, params=dict(P3_PARAMS, t="2/5"))
        with pytest.raises(ScenarioError, match="Assumption 5"):
            load_scenario(file)

    def test_unknown_task_kind(self, tmp_path):
        file = write_scenario(tmp_path, tasks=[{"kind": "frobnicate"}])
        with pytest.raises(ScenarioError, match="frobnicate"):
            load_scenario(file)

    def test_cascade_requires_order(self, tmp_path):
        file = write_scenario(tmp_path, tasks=[{"kind": "cascade"}])
        with pytest.raises(ScenarioError, match="order"):
            load_scenario(file)

    def test_contract_trace_requires_existing_file(self, tmp_path):
        file = write_scenario(tmp_path, tasks=[{"kind": "contract_trace", "events": "nope.jsonl"}])
        with pytest.raises(ScenarioError, match="not found"):
            load_scenario(file)

    def test_dominance_node_cap_checked_at_load(self, tmp_path):
        file = write_scenario(
            tmp_path,
            params=THIRTEEN_NODE_PARAMS,
            tasks=[{"kind": "deposit_bound"}, {"kind": "dominance"}],
        )
        message = r"tasks\[1\] \(dominance\): n = 13 exceeds the enumeration limit 12$"
        with pytest.raises(ScenarioError, match=message):
            load_scenario(file)

    def test_boolean_seed_rejected(self, tmp_path):
        file = write_scenario(tmp_path, seed=True)
        with pytest.raises(ScenarioError, match="'seed'"):
            load_scenario(file)

    def test_bad_schema_version(self, tmp_path):
        file = write_scenario(tmp_path, schema_version=2)
        with pytest.raises(ScenarioError, match="schema_version"):
            load_scenario(file)

    def test_decimal_numbers_parse_exactly(self, tmp_path):
        file = write_scenario(tmp_path, params=dict(P3_PARAMS, t=0.55))
        scenario = load_scenario(file)
        assert scenario.params.threshold_t == Fraction(11, 20)


class TestRunScenario:
    def test_passing_verifications_exit_zero(self, tmp_path):
        file = write_scenario(
            tmp_path,
            tasks=[
                {"kind": "verify_t1", "instances": 50},
                {"kind": "verify_t4", "instances": 50},
            ],
        )
        report = run_scenario(load_scenario(file))
        assert report.all_passed and report.exit_code == 0
        assert [t.passed for t in report.tasks] == [True, True]

    def test_corrupted_generator_fails_and_exits_nonzero(self, tmp_path):
        file = write_scenario(
            tmp_path,
            tasks=[
                {
                    "kind": "verify_t1",
                    "instances": 100,
                    "mutation": "deviant_reward_above_honest",
                }
            ],
        )
        report = run_scenario(load_scenario(file))
        assert not report.all_passed and report.exit_code == 1

    def test_empty_task_list(self, tmp_path):
        file = write_scenario(tmp_path, tasks=[])
        report = run_scenario(load_scenario(file))
        assert report.tasks == [] and report.exit_code == 0

    def test_reports_are_byte_identical_across_runs(self, tmp_path):
        file = write_scenario(
            tmp_path,
            tasks=[
                {"kind": "verify_t1", "instances": 30},
                {"kind": "cascade", "order": [2, 1, 0]},
                {"kind": "deposit_bound"},
                {"kind": "chain_sim", "runs": 20},
            ],
        )
        scenario = load_scenario(file)
        run_scenario(scenario, output_dir=tmp_path / "a")
        run_scenario(scenario, output_dir=tmp_path / "b")
        a = (tmp_path / "a" / "report.json").read_bytes()
        b = (tmp_path / "b" / "report.json").read_bytes()
        assert a == b

    def test_seed_override_changes_report(self, tmp_path):
        file = write_scenario(tmp_path, tasks=[{"kind": "chain_sim", "runs": 5}])
        scenario = load_scenario(file)
        base = run_scenario(scenario)
        overridden = run_scenario(scenario, seed=8)
        assert base.seed == 7 and overridden.seed == 8
        assert report_json(base) != report_json(overridden)

    def test_wall_time_not_serialized(self, tmp_path):
        file = write_scenario(tmp_path, tasks=[])
        report = run_scenario(load_scenario(file))
        assert "wall" not in report_json(report)


class TestSweep:
    def test_success_frequency_monotone_in_share(self, tmp_path):
        file = write_scenario(
            tmp_path,
            tasks=[
                {
                    "kind": "sweep",
                    "grid": {"minion_share": ["1/4", "11/20", "3/4"]},
                    "runs_per_cell": 60,
                    "horizon_slots": 1200,
                }
            ],
        )
        report = run_scenario(load_scenario(file))
        rows = report.tasks[0].payload["rows"]
        rates = [Fraction(r["success_rate"]) for r in rows]
        assert rates == sorted(rates)
        assert all(r["valid"] for r in rows)

    def test_low_threshold_cell_rejected_with_assumption_5(self, tmp_path):
        file = write_scenario(
            tmp_path,
            tasks=[
                {
                    "kind": "sweep",
                    "grid": {"minion_share": ["3/4"], "t": ["2/5"]},
                    "runs_per_cell": 5,
                }
            ],
        )
        report = run_scenario(load_scenario(file))
        row = report.tasks[0].payload["rows"][0]
        assert row["valid"] is False
        assert "Assumption 5" in row["violation"]

    def test_single_cell_matches_direct_chain_sim(self, tmp_path):
        # the sweep synthesizes a 4-node network; a chain_sim task on the
        # same network and seed stream must produce the same frequency
        share = Fraction(3, 5)
        sim = dict(
            P3_SIM,
            powers=["3/10", "3/10", "1/5", "1/5"],
            minions=[0, 1],
            horizon_slots=800,
        )
        file = write_scenario(
            tmp_path,
            sim=sim,
            tasks=[
                {"kind": "chain_sim", "runs": 40},
                {
                    "kind": "sweep",
                    "grid": {"minion_share": ["3/5"], "d_m": ["9"]},
                    "runs_per_cell": 40,
                    "horizon_slots": 800,
                },
            ],
        )
        report = run_scenario(load_scenario(file))
        direct = report.tasks[0].payload
        cell = report.tasks[1].payload["rows"][0]
        assert direct["successes"] == cell["successes"]
        assert direct["success_rate"] == cell["success_rate"]

    def test_cell_cap_enforced(self, tmp_path):
        file = write_scenario(
            tmp_path,
            tasks=[
                {
                    "kind": "sweep",
                    "grid": {"minion_share": ["1/2", "3/5"], "confirmations": [1, 2]},
                    "max_cells": 3,
                }
            ],
        )
        with pytest.raises(ScenarioError, match="cap"):
            run_scenario(load_scenario(file))

    def test_derived_columns(self, tmp_path):
        file = write_scenario(
            tmp_path,
            tasks=[
                {
                    "kind": "sweep",
                    "grid": {"minion_share": ["3/4"], "d_m": ["9"]},
                    "runs_per_cell": 5,
                    "horizon_slots": 400,
                }
            ],
        )
        report = run_scenario(load_scenario(file))
        row = report.tasks[0].payload["rows"][0]
        # powers (3/8, 3/8, 1/8, 1/8): r_m = 2 + p*9, bound = max(r_m) + 3
        assert row["r_m_min"] == "25/8"
        assert row["r_m_max"] == "43/8"
        assert row["deposit_bound"] == "67/8"


def assert_csv_stdout_matches_artifacts(stdout: str, out: Path) -> int:
    """`--format csv` prints one CSV table per task (CRLF rows, tables joined
    by a newline); each table task's block must be its artifact's bytes."""
    blocks = [block + "\r\n" for block in stdout.removesuffix("\r\n").split("\r\n\n")]
    tasks = json.loads((out / "report.json").read_text())["tasks"]
    assert len(blocks) == len(tasks)
    compared = 0
    for block, task in zip(blocks, tasks):
        if task["kind"] in TABLE_ARTIFACT_KINDS:
            name = f"{task['kind']}_{task['index']}.csv"
            assert task["artifacts"] == [name]
            assert block.encode("utf-8") == (out / name).read_bytes()
            compared += 1
    return compared


class TestCli:
    def test_csv_stdout_matches_artifacts_for_p3(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["verify", str(REPO_SCENARIOS / "p3.json"), "--out", str(out), "--format", "csv"]) == 0
        assert assert_csv_stdout_matches_artifacts(capsys.readouterr().out, out) == 3

    def test_csv_stdout_matches_artifact_for_all_invalid_sweep(self, tmp_path, capsys):
        file = write_scenario(
            tmp_path, tasks=[{"kind": "sweep", "grid": {"minion_share": ["1", "0"]}}]
        )
        out = tmp_path / "out"
        assert main(["sweep", str(file), "--out", str(out), "--format", "csv"]) == 0
        stdout = capsys.readouterr().out
        assert assert_csv_stdout_matches_artifacts(stdout, out) == 1
        assert stdout.splitlines()[0].count(",") == 13  # all 14 sweep columns

    def test_verify_repo_scenario(self, tmp_path, capsys):
        small = write_scenario(
            tmp_path, tasks=[{"kind": "verify_t4", "instances": 40}, {"kind": "dominance"}]
        )
        code = main(["verify", str(small), "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "report.json").exists()
        assert "PASS" in capsys.readouterr().out

    def test_verify_exit_nonzero_on_failure(self, tmp_path, capsys):
        file = write_scenario(
            tmp_path,
            tasks=[{"kind": "verify_t1", "instances": 60, "mutation": "deviant_reward_above_honest"}],
        )
        assert main(["verify", str(file)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_cascade_with_order_flag(self, tmp_path, capsys):
        file = write_scenario(tmp_path)
        assert main(["cascade", str(file), "--order", "2,1,0", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert "step,deviating_set,payoff_0,payoff_1,payoff_2,monotone" in out
        assert "2,1;2,-3,5,5,True" in out

    def test_contract_trace_subcommand(self, capsys):
        events = REPO_SCENARIOS / "p3_contract_events.jsonl"
        assert main(["contract-trace", str(events), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        settlement = payload["tasks"][0]["result"]["settlement"]
        assert settlement["payouts"] == {"0": "63/5", "1": "243/20"}
        assert settlement["residual_to_magnate"] == "9/4"

    def test_chain_sim_subcommand(self, tmp_path, capsys):
        file = write_scenario(tmp_path, tasks=[{"kind": "chain_sim", "runs": 3}])
        assert main(["chain-sim", str(file), "--runs", "5", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["tasks"][0]["result"]["runs"] == 5

    def test_chain_sim_trace_artifact(self, tmp_path):
        file = write_scenario(tmp_path, tasks=[{"kind": "chain_sim", "runs": 1}])
        out = tmp_path / "out"
        assert main(["chain-sim", str(file), "--trace", "--out", str(out)]) == 0
        trace = (out / "chain_trace_0.csv").read_text()
        assert trace.splitlines()[0] == "slot,producer,chain,height,event"

    def test_sweep_subcommand_requires_sweep_task(self, tmp_path, capsys):
        file = write_scenario(tmp_path, tasks=[])
        assert main(["sweep", str(file)]) == 2
        assert "no sweep task" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "task, field",
        [
            ({"kind": "chain_sim", "runs": 0}, "'runs'"),
            ({"kind": "chain_sim", "runs": "5"}, "'runs'"),
            ({"kind": "sweep", "grid": {}, "runs_per_cell": 0}, "'runs_per_cell'"),
            ({"kind": "sweep", "grid": {}, "runs_per_cell": True}, "'runs_per_cell'"),
            ({"kind": "sweep", "grid": {}, "consensus": "pos"}, "'consensus'"),
            ({"kind": "sweep", "grid": {}, "horizon_slots": "abc"}, "'horizon_slots'"),
            ({"kind": "sweep", "grid": {}, "horizon_slots": True}, "'horizon_slots'"),
            ({"kind": "sweep", "grid": {}, "max_cells": "abc"}, "'max_cells'"),
            ({"kind": "sweep", "grid": {"confirmations": ["x"]}}, "grid.confirmations"),
            ({"kind": "sweep", "grid": {"t": ["1/2", "3/5"]}, "max_cells": 1}, "'max_cells'"),
            ({"kind": "sweep", "grid": {}, "r_h": 3}, "'r_h'"),
            ({"kind": "verify_t1", "instances": "5"}, "'instances'"),
            ({"kind": "verify_t1", "instance": 5}, "'instance'"),
            ({"kind": "verify_t1", "n_range": [3]}, "'n_range'"),
            ({"kind": "verify_t1", "mutation": "typo"}, "'mutation'"),
            ({"kind": "chain_sim", "trace": "no"}, "'trace'"),
            ({"kind": "cascade", "order": [True, 0]}, "'order'"),
            ({"kind": "cascade", "order": [0, 5]}, "not a permutation"),
            ({"kind": "dominance"}, "n = 13 exceeds the enumeration limit 12"),
        ],
    )
    def test_bad_run_options_exit_2_without_traceback(self, tmp_path, task, field):
        # a dominance task has no options; what it rejects is the node count
        params = THIRTEEN_NODE_PARAMS if task["kind"] == "dominance" else P3_PARAMS
        file = write_scenario(tmp_path, params=params, tasks=[task])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-m", "briberysim.cli", "verify", str(file)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 2
        assert f"tasks[0] ({task['kind']})" in proc.stderr and field in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_contract_trace_error_names_task_and_file(self, tmp_path, capsys):
        init = (REPO_SCENARIOS / "p3_contract_events.jsonl").read_text().splitlines()[0]
        commit = json.dumps({"event": "commit", "node": 0, "deposit": "9"})
        (tmp_path / "short.jsonl").write_text(f"{init}\n{commit}\n", encoding="utf-8")
        file = write_scenario(
            tmp_path,
            tasks=[{"kind": "deposit_bound"}, {"kind": "contract_trace", "events": "short.jsonl"}],
        )
        expected = "error: tasks[1] (contract_trace): short.jsonl: unsettled minions remain: [0]"
        assert main(["verify", str(file)]) == 2
        assert expected in capsys.readouterr().err
        assert main(["contract-trace", str(tmp_path / "short.jsonl")]) == 2
        assert expected.replace("tasks[1]", "tasks[0]") in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, dropped, kind, message",
        [
            (["cascade", "{scenario}", "--order", "0,5"], None, "cascade", "not a permutation"),
            (["cascade", "{scenario}", "--order", "0,1"], "params", "cascade", "no 'params'"),
            (["chain-sim", "{scenario}"], "sim", "chain_sim", "no 'sim'"),
            (["chain-sim", "{scenario}", "--runs", "0"], None, "chain_sim", "'runs': must be >= 1"),
            (["contract-trace", "{dir}/nope.jsonl"], None, "contract_trace", "not found"),
        ],
        ids=["cascade-bad-order", "cascade-no-params", "chain-sim-no-sim", "chain-sim-runs-0",
             "contract-trace-missing-file"],
    )
    def test_subcommand_errors_name_the_task(self, tmp_path, capsys, argv, dropped, kind, message):
        # subcommands check the tasks they build as load_scenario checks a file's
        file = write_scenario(tmp_path, **({dropped: None} if dropped else {}))
        argv = [arg.format(scenario=file, dir=tmp_path) for arg in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"error: tasks[0] ({kind}): " in err and message in err
        assert "Traceback" not in err

    def test_missing_scenario_file_exits_2(self, capsys):
        assert main(["verify", "does-not-exist.json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_seed_flag_echoed_in_report(self, tmp_path, capsys):
        file = write_scenario(tmp_path, tasks=[])
        assert main(["verify", str(file), "--seed", "123", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["seed"] == 123
