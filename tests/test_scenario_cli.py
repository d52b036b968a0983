"""Tests for scenario loading, the batch runner, and the CLI."""

import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import briberysim.scenario as scenario_module
from briberysim import (
    Consensus,
    PowerDistribution,
    ScenarioError,
    SimConfig,
    load_scenario,
    run_attack_detailed,
    run_scenario,
)
from briberysim.cli import main
from briberysim.rational import decode_json
from briberysim.scenario import TABLE_ARTIFACT_KINDS, TASK_KINDS, TASK_OPTIONS, report_json
from briberysim.seeding import derive_seed

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


def count_calls(monkeypatch, name: str, calls: list, tag=None) -> None:
    """Record `(tag(), name)` in `calls` on each call of `briberysim.scenario.<name>`."""
    original = getattr(scenario_module, name)

    def counted(*args, **kwargs):
        calls.append((tag() if tag else None, name))
        return original(*args, **kwargs)

    monkeypatch.setattr(scenario_module, name, counted)


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

    def test_non_string_output_dir_rejected(self, tmp_path):
        file = write_scenario(tmp_path, output_dir=5)
        with pytest.raises(ScenarioError, match="'output_dir' must be a path string"):
            load_scenario(file)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"tasks": None, "task": [{"kind": "deposit_bound"}]}, "unknown top-level key 'task'"),
            ({"output_directory": "out"}, "unknown top-level key 'output_directory'"),
            ({"tasks": {}}, "'tasks' must be an array"),
        ],
        ids=["task", "output_directory", "tasks-object"],
    )
    def test_bad_top_level_exits_2_naming_the_key(self, tmp_path, capsys, overrides, message):
        file = write_scenario(tmp_path, **overrides)
        assert main(["verify", str(file)]) == 2
        err = capsys.readouterr().err
        assert f"error: scenario {file}: {message}" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "old, new, key",
        [
            ('"seed": 42,', '"seed": 99, "seed": 42,', "seed"),
            ('"t": "1/2",', '"t": "3/4", "t": "1/2",', "t"),
        ],
        ids=["seed", "params-t"],
    )
    def test_repeated_key_exits_2_naming_it(self, tmp_path, capsys, old, new, key):
        # the p3 file runs (exit 0) unless the repeated key is rejected
        text = (REPO_SCENARIOS / "p3.json").read_text(encoding="utf-8")
        assert text.count(old) == 1
        file = tmp_path / "p3.json"
        file.write_text(text.replace(old, new), encoding="utf-8")
        events = "p3_contract_events.jsonl"
        (tmp_path / events).write_bytes((REPO_SCENARIOS / events).read_bytes())
        assert main(["verify", str(file)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: scenario {file}: invalid JSON: duplicate key '{key}'\n"

    @pytest.mark.parametrize(
        "task, message",
        [
            ({"kind": "sweep", "grid": {}, "r_h": ["2"]},
             "tasks[0] (sweep): options: unknown field 'r_h'; fields: ['grid', 'runs_per_cell', "
             "'horizon_slots', 'consensus', 'max_cells']"),
            ({"kind": "dominance", "order": [0, 1, 2]},
             "tasks[0] (dominance): options: unknown field 'order'; fields: []"),
            ({"kind": "sweep", "grid": {"t": ["1/2"], "x": ["1"]}},
             "tasks[0] (sweep): 'grid': unknown field 'x'; fields: ['d_m', 'minion_share', "
             "'confirmations', 't']"),
            ({"kind": "sweep"}, "tasks[0] (sweep): 'grid': expected an object"),
            ({"kind": "sweep", "grid": [["1/2"]]}, "tasks[0] (sweep): 'grid': expected an object"),
        ],
        ids=["unknown-option", "no-options", "unknown-axis", "no-grid", "grid-array"],
    )
    def test_option_and_grid_error_texts_pinned(self, tmp_path, capsys, task, message):
        file = write_scenario(tmp_path, tasks=[task])
        with pytest.raises(ScenarioError) as caught:
            load_scenario(file)
        assert str(caught.value) == message
        assert main(["verify", str(file)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"tasks": [{"kind": "dominance"}, {"kind": "sweep", "grid": {}, "consensus": "pow"}]},
             "tasks[1] (sweep): 'consensus': 'pow' is not one of "
             "['pow_longest_chain', 'pos_slashing']"),
            ({"sim": dict(P3_SIM, consensus="pow")},
             "scenario {file}: sim.consensus: 'pow' is not one of "
             "['pow_longest_chain', 'pos_slashing']"),
        ],
        ids=["sweep", "sim"],
    )
    def test_unknown_consensus_exits_2_naming_its_field(self, tmp_path, capsys, overrides, message):
        file = write_scenario(tmp_path, **overrides)
        assert main(["verify", str(file)]) == 2
        assert capsys.readouterr().err == f"error: {message.format(file=file)}\n"

    @pytest.mark.parametrize(
        "section, key",
        [("sim", "threshold"), ("params", "rdp")],
        ids=["sim-threshold", "params-rdp"],
    )
    def test_unknown_section_field_exits_2_naming_it(self, tmp_path, capsys, section, key):
        # under PoS a misspelt "threshold_t" would otherwise run at the default t = 1/2
        base = dict(P3_SIM, consensus="pos_slashing") if section == "sim" else P3_PARAMS
        file = write_scenario(tmp_path, **{section: dict(base, **{key: "3/4"})})
        assert main(["verify", str(file)]) == 2
        err = capsys.readouterr().err
        assert f"error: scenario {file}: {section}: unknown field '{key}'; fields: [" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (None, "top level must be an object"),
            ({"extra": 1}, "unknown top-level key 'extra'; keys: ['schema_version', 'name', "
                           "'seed', 'params', 'sim', 'tasks', 'output_dir']"),
            ({"schema_version": 2}, "schema_version must be 1, got 2"),
            ({"name": None}, "missing string field 'name'"),
            ({"seed": "7"}, "missing integer field 'seed'"),
            ({"params": {k: v for k, v in P3_PARAMS.items() if k != "t"}},
             "params: missing field 't'"),
            ({"params": dict(P3_PARAMS, t="2/5")},
             "params violate assumptions: Assumption 5: t = 2/5 < 1/2; "
             "Assumption 5: v_0 = 2/5 >= t = 2/5"),
            ({"output_dir": 5}, "'output_dir' must be a path string"),
            ({"sim": dict(P3_SIM, confirmations=0)}, "sim config: confirmations must be >= 1"),
            ({"tasks": {}}, "'tasks' must be an array"),
            ({"tasks": [{"runs": 1}]}, "tasks[0] needs a 'kind' field"),
            ({"tasks": [{"kind": "deposit_bound"}, {"kind": "frobnicate"}]},
             "tasks[1].kind 'frobnicate' not one of ('verify_t1', 'verify_t3', 'verify_t4', "
             "'dominance', 'cascade', 'deposit_bound', 'contract_trace', 'chain_sim', 'sweep')"),
        ],
        ids=["not-an-object", "unknown-key", "schema_version", "name", "seed", "params-parse",
             "params-assumption", "output_dir", "sim", "tasks-not-array", "task-no-kind",
             "unknown-kind"],
    )
    def test_file_level_error_texts_pinned(self, tmp_path, capsys, overrides, message):
        if overrides is None:
            file = tmp_path / "scenario.json"
            file.write_text("[]", encoding="utf-8")
        else:
            file = write_scenario(tmp_path, **overrides)
        with pytest.raises(ScenarioError) as caught:
            load_scenario(file)
        assert str(caught.value) == f"scenario {file}: {message}"
        assert main(["verify", str(file)]) == 2
        assert capsys.readouterr().err == f"error: scenario {file}: {message}\n"

    @pytest.mark.parametrize(
        "minions, message",
        [
            ([0, 5], "sim.minions[1]: 5 is not a node index (3 nodes)"),
            ([1, 3], "sim.minions[1]: 3 is not a node index (3 nodes)"),
            ([-1], "sim.minions[0]: -1 is not a node index (3 nodes)"),
            ([0, 0], "sim.minions[1]: node 0 is listed twice"),
            ([2, 1, 2], "sim.minions[2]: node 2 is listed twice"),
        ],
        ids=["past-n", "at-n", "negative", "repeated", "repeated-later"],
    )
    def test_bad_minion_exits_2_naming_the_entry(self, tmp_path, capsys, minions, message):
        # a repeated minion is named, not merged into the minion set
        file = write_scenario(tmp_path, sim=dict(P3_SIM, minions=minions))
        assert main(["verify", str(file)]) == 2
        assert capsys.readouterr().err == f"error: scenario {file}: {message}\n"

    def test_bad_schema_version(self, tmp_path):
        file = write_scenario(tmp_path, schema_version=2)
        with pytest.raises(ScenarioError, match="schema_version"):
            load_scenario(file)

    def test_invalid_json_exits_2_naming_the_line(self, tmp_path, capsys):
        file = tmp_path / "broken.json"
        file.write_text('{\n  "schema_version": 1,\n  "name": \n}\n', encoding="utf-8")
        assert main(["verify", str(file)]) == 2
        err = capsys.readouterr().err
        assert f"error: scenario {file}: invalid JSON at line 4: " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "content, message",
        [
            (b"[" * 100_000, "invalid JSON: maximum recursion depth exceeded"),
            (b"\xff\xfe{}", "invalid JSON: 'utf-8' codec can't decode byte 0xff in position 0"),
        ],
        ids=["nested-too-deeply", "not-utf-8"],
    )
    def test_undecodable_file_exits_2_naming_it(self, tmp_path, capsys, content, message):
        file = tmp_path / "scenario.json"
        file.write_bytes(content)
        with pytest.raises(ScenarioError, match=f"^scenario {re.escape(str(file))}: "):
            load_scenario(file)
        assert main(["verify", str(file)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: scenario {file}: {message}") and "Traceback" not in err

    def test_options_parsed_once_at_load(self, monkeypatch):
        # every option parse and the event-log replay run once per task, while
        # the scenario loads; the runner only reads what they returned
        calls, phase = [], ["load"]
        for name in ("_verify_options", "_chain_sim_options", "_sweep_options", "replay_events"):
            count_calls(monkeypatch, name, calls, tag=lambda: phase[0])
        scenario = load_scenario(REPO_SCENARIOS / "p3.json")
        phase[0] = "run"
        assert run_scenario(scenario).all_passed
        assert Counter(calls) == {
            ("load", "_verify_options"): 3,
            ("load", "_chain_sim_options"): 1,
            ("load", "_sweep_options"): 1,
            ("load", "replay_events"): 1,
        }

    def test_verify_task_defaults(self, tmp_path):
        file = write_scenario(tmp_path, tasks=[{"kind": kind} for kind in ("verify_t1", "verify_t3")])
        assert [task.args for task in load_scenario(file).tasks] == [
            (1000, (3, 8), None),
            (500, (3, 8), None),
        ]

    def test_decimal_numbers_parse_exactly(self, tmp_path):
        file = write_scenario(tmp_path, params=dict(P3_PARAMS, t=0.55))
        scenario = load_scenario(file)
        assert scenario.params.threshold_t == Fraction(11, 20)

    def test_exponents_within_bound_parse_exactly(self, tmp_path):
        assert decode_json("[1e999, 1E-999, 1e+0999, 25e-0000001]") == [
            10**999, Fraction(1, 10**999), 10**999, Fraction(5, 2)
        ]
        file = write_scenario(tmp_path, params=dict(P3_PARAMS, t="T"))
        text = file.read_text(encoding="utf-8")
        file.write_text(text.replace('"T"', "5000e-0004"), encoding="utf-8")
        assert load_scenario(file).params.threshold_t == Fraction(1, 2)

    @pytest.mark.parametrize(
        "number, shown",
        [
            ("1e1000000", "1e1000000"),
            ("5E-1000", "5E-1000"),
            ("1e" + "9" * 30, "1e" + "9" * 18 + "..."),
        ],
        ids=["e1000000", "e-1000", "exponent-of-30-digits"],
    )
    def test_huge_exponent_exits_2_naming_the_file(self, tmp_path, capsys, number, shown):
        # Fraction would build 10**exponent whole: a third of a second for
        # 1e1000000, and a 30-digit exponent would never finish
        file = write_scenario(tmp_path, params=dict(P3_PARAMS, t="T"))
        file.write_text(file.read_text(encoding="utf-8").replace('"T"', number), encoding="utf-8")
        assert main(["verify", str(file)]) == 2
        message = f"invalid JSON: number {shown} has a decimal exponent outside -999..999"
        assert capsys.readouterr().err == f"error: scenario {file}: {message}\n"

    def test_huge_exponent_in_a_rational_string_exits_2_at_once(self, tmp_path):
        # the string form is bounded as the number form is: Fraction("1e10000000")
        # would build the integer 10**10000000 before any check; the time limit
        # keeps a regression from hanging the suite
        file = write_scenario(tmp_path, params=dict(P3_PARAMS, t="1e10000000"))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        done = subprocess.run(
            [sys.executable, "-m", "briberysim.cli", "verify", str(file)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 2
        message = "params.t: rational string '1e10000000' has a decimal exponent outside -999..999"
        assert done.stderr == f"error: scenario {file}: {message}\n"

    @pytest.mark.parametrize("number, shown", [("1.5", "3/2"), ("1e3", "1000")], ids=["1.5", "1e3"])
    def test_integer_option_written_as_decimal_text_pinned(self, tmp_path, capsys, number, shown):
        file = write_scenario(tmp_path, tasks=[{"kind": "verify_t1", "instances": "N"}])
        file.write_text(file.read_text(encoding="utf-8").replace('"N"', number), encoding="utf-8")
        assert main(["verify", str(file)]) == 2
        message = f"'instances': expected an integer, got {shown}, not written as an integer"
        assert capsys.readouterr().err == f"error: tasks[0] (verify_t1): {message}\n"


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

    def test_output_dir_relative_to_scenario_file(self, tmp_path, monkeypatch):
        # a scenario's output_dir resolves against the scenario file, as a
        # contract_trace 'events' path does; --out against the current directory
        (tmp_path / "sc").mkdir()
        file = write_scenario(tmp_path / "sc", output_dir="o").rename(tmp_path / "sc" / "s.json")
        (tmp_path / "cwd").mkdir()
        monkeypatch.chdir(tmp_path / "cwd")
        assert main(["verify", "../sc/s.json"]) == 0
        assert (tmp_path / "sc" / "o" / "report.json").is_file()
        assert not (tmp_path / "cwd" / "o").exists()
        assert main(["verify", "../sc/s.json", "--out", "x"]) == 0
        assert (tmp_path / "cwd" / "x" / "report.json").is_file()

    def test_out_naming_a_file_exits_2_before_any_task(self, tmp_path, capsys, monkeypatch):
        calls = []
        count_calls(monkeypatch, "verify_theorem", calls)
        file = write_scenario(tmp_path, tasks=[{"kind": "verify_t1", "instances": 5}])
        (tmp_path / "taken").write_text("", encoding="utf-8")
        assert main(["verify", str(file), "--out", str(tmp_path / "taken")]) == 2
        err = capsys.readouterr().err
        assert "error: " in err and "taken" in err and "Traceback" not in err
        assert calls == []

    def test_scenario_trace_task_needs_an_output_directory(self, tmp_path, capsys, monkeypatch):
        file = write_scenario(
            tmp_path, tasks=[{"kind": "deposit_bound"}, {"kind": "chain_sim", "trace": True}]
        )
        (tmp_path / "cwd").mkdir()
        monkeypatch.chdir(tmp_path / "cwd")
        assert main(["verify", str(file)]) == 2
        captured = capsys.readouterr()
        assert "error: tasks[1] (chain_sim): 'trace' needs an output directory" in captured.err
        assert "chain_trace_<i>.csv" in captured.err and "Traceback" not in captured.err
        assert captured.out == "" and list((tmp_path / "cwd").iterdir()) == []
        assert main(["verify", str(file), "--out", "o"]) == 0
        assert (tmp_path / "cwd" / "o" / "chain_trace_1.csv").is_file()

    def test_contract_trace_csv_lists_burned_deposits(self, tmp_path):
        lines = (REPO_SCENARIOS / "p3_contract_events.jsonl").read_text().splitlines()
        # node 1 executes honest against the malicious order: its deposit burns
        lines[4] = json.dumps(
            {
                "event": "oracle_report",
                "attack_successful": True,
                "executed_protocol": {"0": "malicious", "1": "honest"},
            }
        )
        (tmp_path / "burn.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
        file = write_scenario(tmp_path, tasks=[{"kind": "contract_trace", "events": "burn.jsonl"}])
        report = run_scenario(load_scenario(file), output_dir=tmp_path / "out")
        assert report.all_passed
        assert (tmp_path / "out" / "contract_trace_0.csv").read_text().splitlines() == [
            "node,kind,amount",
            "0,payout,63/5",
            "1,burned,9",
            "magnate,residual,27/5",
        ]

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

    def test_cell_cap_checked_before_any_cell_is_built(self, tmp_path):
        # 25 values on each axis make 390,625 cells: building them first would
        # take tens of MB, and a grid of a few KB could ask for any number
        values = [f"{i}/26" for i in range(1, 26)]
        grid = {"d_m": values, "minion_share": values, "confirmations": list(range(1, 26)), "t": values}
        file = write_scenario(tmp_path, tasks=[{"kind": "sweep", "grid": grid}])
        tracemalloc.start()
        try:
            with pytest.raises(ScenarioError) as raised:
                load_scenario(file)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert str(raised.value).endswith("sweep has 390625 cells, exceeding the cap 'max_cells' = 512")
        assert peak < 2_000_000

    def test_cell_c_draws_from_sim_run_stream_c(self, tmp_path):
        # four identical cells whose races are undecided: each row counts the
        # successes of runs seeded derive_seed(seed, "sim-run", c, r), and the
        # rows differ, so no cell may read another cell's stream
        runs, horizon = 20, 300
        sweep = {
            "kind": "sweep",
            "grid": {"minion_share": ["1/4"] * 4, "confirmations": [1]},
            "runs_per_cell": runs,
            "horizon_slots": horizon,
        }
        scenario = load_scenario(write_scenario(tmp_path, tasks=[sweep]))
        rows = run_scenario(scenario).tasks[0].payload["rows"]
        eighth = Fraction(1, 8)
        config = SimConfig(
            powers=PowerDistribution((eighth, eighth, 3 * eighth, 3 * eighth)),
            minions=frozenset({0, 1}),
            consensus=Consensus.POW_LONGEST_CHAIN,
            confirmations=1,
            horizon_slots=horizon,
            rng_seed=0,
        )
        direct = [
            sum(
                run_attack_detailed(
                    replace(config, rng_seed=derive_seed(scenario.seed, "sim-run", cell, run))
                ).result.success
                for run in range(runs)
            )
            for cell in range(4)
        ]
        assert [row["successes"] for row in rows] == direct
        assert len(set(direct)) == 4

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

    @pytest.mark.parametrize(
        "scenario, digest",
        [
            (None, "034926267f2708e465791f2f0d132e86c7f1b62f7ea05e951ca32c1b17128084"),
            # a minority fork that loses: 2500 slots, canonical and fork rows interleaved
            ({"minions": [2], "confirmations": 6, "horizon_slots": 2500},
             "1cb53ee63d4183a7c1026c0a54a0240a30313120ca54a20fde8b2d155088c665"),
        ],
        ids=["p3", "minority-2500"],
    )
    def test_chain_sim_trace_bytes_pinned(self, tmp_path, scenario, digest):
        if scenario is None:
            file = REPO_SCENARIOS / "p3.json"
        else:
            sim = dict(P3_SIM, **scenario)
            file = write_scenario(tmp_path, sim=sim, tasks=[{"kind": "chain_sim", "runs": 1}])
        out = tmp_path / "out"
        assert main(["chain-sim", str(file), "--trace", "--out", str(out)]) == 0
        assert hashlib.sha256((out / "chain_trace_0.csv").read_bytes()).hexdigest() == digest

    def test_chain_sim_trace_needs_an_output_directory(self, tmp_path, capsys, monkeypatch):
        file = write_scenario(tmp_path, tasks=[{"kind": "chain_sim", "runs": 1}])
        (tmp_path / "cwd").mkdir()
        monkeypatch.chdir(tmp_path / "cwd")
        assert main(["chain-sim", str(file), "--trace"]) == 2
        err = capsys.readouterr().err
        assert "error: tasks[0] (chain_sim): 'trace' needs an output directory" in err
        assert "chain_trace_<i>.csv" in err
        assert "Traceback" not in err
        assert list((tmp_path / "cwd").iterdir()) == []
        # the scenario's own output_dir is one
        file = write_scenario(tmp_path, tasks=[{"kind": "chain_sim", "runs": 1}], output_dir="o")
        assert main(["chain-sim", str(file), "--trace"]) == 0
        assert (tmp_path / "o" / "chain_trace_0.csv").is_file()

    @pytest.mark.parametrize("command", ["sweep", "cascade", "chain-sim"])
    def test_subcommands_run_the_tasks_load_parsed(self, monkeypatch, capsys, command):
        # each option parse and the event-log replay run once per task of the
        # file, at load; a subcommand parses no task it takes from the file again
        calls = []
        for name in ("_verify_options", "_validate_order", "_chain_sim_options",
                     "_sweep_options", "replay_events"):
            count_calls(monkeypatch, name, calls)
        assert main([command, str(REPO_SCENARIOS / "p3.json")]) == 0
        assert Counter(name for _, name in calls) == {
            "_verify_options": 3,
            "_validate_order": 1,
            "_chain_sim_options": 1,
            "_sweep_options": 1,
            "replay_events": 1,
        }

    @pytest.mark.parametrize("command", ["verify", "sweep", "cascade", "chain-sim"])
    def test_file_verify_rejects_is_rejected_by_every_subcommand(self, tmp_path, capsys, command):
        file = write_scenario(
            tmp_path,
            sim=dict(P3_SIM, threshold_t="3/2"),
            tasks=[
                {"kind": "cascade", "order": [2, 1, 0]},
                {"kind": "chain_sim", "runs": 2},
                {"kind": "sweep", "grid": {}, "runs_per_cell": 2, "horizon_slots": 50},
            ],
        )
        assert main([command, str(file)]) == 2
        err = capsys.readouterr().err
        assert "sim.threshold_t: 3/2 not in (0, 1)" in err and "Traceback" not in err

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

    @pytest.mark.parametrize("n_range", [5, [3]], ids=["number", "one-entry"])
    def test_n_range_not_a_pair_exits_2_naming_it(self, tmp_path, capsys, n_range):
        file = write_scenario(tmp_path, tasks=[{"kind": "verify_t1", "n_range": n_range}])
        assert main(["verify", str(file)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: tasks[0] (verify_t1): 'n_range': expected [n_min, n_max], got {n_range!r}\n"

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

    def test_contract_trace_nested_too_deeply_exits_2_naming_the_line(self, tmp_path, capsys):
        (tmp_path / "deep.jsonl").write_text('{"event": ' + "[" * 100_000 + "\n", encoding="utf-8")
        assert main(["contract-trace", str(tmp_path / "deep.jsonl")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            "error: tasks[0] (contract_trace): deep.jsonl: event log line 1: invalid JSON: "
        )
        assert "Traceback" not in err

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

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["cascade", "{scenario}"], "error: scenario has no cascade task; pass --order"),
            (["cascade", "{scenario}", "--order", "1,x"],
             "error: --order must be comma-separated integers, got '1,x'"),
        ],
        ids=["cascade-no-task-no-order", "cascade-order-not-integers"],
    )
    def test_cascade_order_flag_errors_exit_2(self, tmp_path, capsys, argv, message):
        file = write_scenario(tmp_path, tasks=[{"kind": "deposit_bound"}])
        assert main([arg.format(scenario=file) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    def test_missing_scenario_file_exits_2(self, capsys):
        assert main(["verify", "does-not-exist.json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_seed_flag_echoed_in_report(self, tmp_path, capsys):
        file = write_scenario(tmp_path, tasks=[])
        assert main(["verify", str(file), "--seed", "123", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["seed"] == 123


class TestTaskTable:
    """A task kind is one `TASKS` entry: a kind added there, with no other
    edit, loads, runs, writes its artifact and fails as the built-in kinds do."""

    @pytest.fixture(autouse=True)
    def echo_kind(self, monkeypatch):
        kind = scenario_module.TaskKind(
            options=("word",),
            needs="params",
            parse=lambda scenario, opts: (str(opts.get("word", "hello")),),
            run=lambda scenario, task, index, seed, out: (True, {"word": task.args[0], "n": scenario.params.n}),
            table=lambda payload: [["word", "n"], [payload["word"], payload["n"]]],
            artifact=True,
        )
        monkeypatch.setitem(scenario_module.TASKS, "echo", kind)

    def test_runs_with_its_artifact_and_report_entry(self, tmp_path):
        file = write_scenario(tmp_path, tasks=[{"kind": "echo", "word": "hi"}])
        out = tmp_path / "out"
        assert main(["verify", str(file), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["tasks"] == [
            {"kind": "echo", "index": 0, "passed": True, "artifacts": ["echo_0.csv"],
             "result": {"word": "hi", "n": 3}}
        ]
        assert (out / "echo_0.csv").read_bytes() == b"word,n\r\nhi,3\r\n"

    def test_csv_format_prints_its_table(self, tmp_path, capsys):
        file = write_scenario(tmp_path, tasks=[{"kind": "echo"}])
        assert main(["verify", str(file), "--format", "csv"]) == 0
        assert capsys.readouterr().out == "word,n\r\nhello,3\r\n"

    def test_unknown_option_exits_2_naming_it(self, tmp_path, capsys):
        file = write_scenario(tmp_path, tasks=[{"kind": "echo", "words": "hi"}])
        assert main(["verify", str(file)]) == 2
        err = capsys.readouterr().err
        assert err == "error: tasks[0] (echo): options: unknown field 'words'; fields: ['word']\n"

    def test_missing_section_exits_2_as_for_a_built_in_kind(self, tmp_path, capsys):
        errors = []
        for kind in ("echo", "dominance"):
            file = write_scenario(tmp_path, params=None, tasks=[{"kind": kind}])
            assert main(["verify", str(file)]) == 2
            errors.append(capsys.readouterr().err.replace(kind, "<kind>"))
        assert errors == ["error: tasks[0] (<kind>): scenario has no 'params' section\n"] * 2


def outside_parentheses(text: str) -> str:
    """`text` without its parenthesized parts, nested ones included."""
    depth, kept = 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0:
            kept.append(ch)
    return "".join(kept)


def test_readme_options_table_matches_task_options():
    # each row of the README's per-kind options table names, outside its
    # parenthesized notes, exactly the options the loader accepts
    lines = (REPO_ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("| kind | options |") + 2
    documented = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        kinds, options = (cell.strip() for cell in line.strip("|").split("|"))
        names = set(re.findall(r"`([^`]+)`", outside_parentheses(options)))
        for kind in re.findall(r"`([^`]+)`", kinds):
            assert kind not in documented, kind
            documented[kind] = names
    assert set(documented) == set(TASK_KINDS)
    for kind in TASK_KINDS:
        assert documented[kind] == set(TASK_OPTIONS[kind]), kind
