"""Tests of the benchmark itself: exact counters, output checks that can fail,
metric names against BENCHMARK.json.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402
from briberysim import (  # noqa: E402
    ContractError,
    SettlementOutcome,
    Variant,
    all_commit,
    all_honest,
    is_strict_nash,
    replay_events,
    run_attack,
)
from tracing import NullTracer, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_race_counters_equal_simulated_work(tmp_path):
    race = workloads.Race(3, ROOT, tmp_path)
    results = [run_attack(config) for _, _, configs, _ in race.slices for config in configs]
    assert [(r.success, r.slots_elapsed) for r in results] == race.reference
    assert race.counters["slots"] == sum(r.slots_elapsed for r in results)
    assert race.counters["successes"] == sum(r.success for r in results)


def test_claims_profile_counter_equals_strict_nash_work(tmp_path):
    claims = workloads.Claims(4, ROOT, tmp_path)
    checked = 0
    for theorem, profile_of in (
        ("T1", lambda n: all_honest(n, Variant.NO_COLLUSION)),
        ("T4", all_commit),
        ("T3", lambda n: all_honest(n, Variant.COLLUSION)),
    ):
        for index in range(workloads.CLAIM_INSTANCES[theorem]):
            params = claims._instance(theorem, index)
            checked += is_strict_nash(params, profile_of(params.n)).profiles_checked
    assert claims.counters["profiles_checked"] == checked


def test_ledger_event_counter_equals_lines_replayed(tmp_path):
    ledger = workloads.Ledger(5, ROOT, tmp_path)
    consumed = sum(len(life.lines) for life in ledger.accepted)
    for lines, fault_line in ledger.rejected:
        fed = []
        try:
            replay_events(fed.append(line) or line for line in lines)
        except (ContractError, ValueError):
            pass
        assert len(fed) == fault_line
        consumed += len(fed)
    assert ledger.counters["events_replayed"] == consumed


def test_corrupted_p3_digest_fails_the_output_check(tmp_path):
    p3 = workloads.P3(0, ROOT, tmp_path, expected_sha256="0" * 64)
    result = p3.run_round(NullTracer())
    assert (result.ops, result.failed) == (1, 1)


def test_corrupted_race_digest_fails_the_output_check(tmp_path):
    race = workloads.Race(6, ROOT, tmp_path)
    assert race.run_round(NullTracer()).failed == 0
    race.reference_digest = "0" * 64
    assert race.run_round(NullTracer()).failed == 1


def test_wrong_expected_settlement_fails_the_output_check(tmp_path):
    ledger = workloads.Ledger(7, ROOT, tmp_path)
    life = ledger.accepted[0]
    node, outcome = life.outcomes[0]
    wrong = SettlementOutcome.PAID if outcome is SettlementOutcome.PENDING else SettlementOutcome.PENDING
    ledger.accepted[0] = dataclasses.replace(life, outcomes=((node, wrong),) + life.outcomes[1:])
    assert ledger.run_round(NullTracer()).failed == 1


def test_every_fault_kind_is_rejected():
    rng = random.Random(8)
    for fault in workloads.FAULTS:
        lines, _ = workloads.make_rejected(rng, fault)
        try:
            replay_events(lines)
        except (ContractError, ValueError):
            continue
        raise AssertionError(f"{fault} log was accepted")


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    with tracer.op("outer"):
        tracer.call("child", sum, range(1000))
    (_, o_start, o_end, o_parent, op_id), (_, c_start, c_end, c_parent, c_op) = tracer.spans
    assert o_parent is None and c_parent == 0 and c_op == op_id
    times = tracer.self_times()
    assert times["child"] == (1, c_end - c_start)
    assert times["op.outer"] == (1, (o_end - o_start) - (c_end - c_start))


def run_bench(cwd: Path, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ledger", "--seed", "9",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_printed_metrics_match_benchmark_json():
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        done = run_bench(ROOT, trace)
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        declared = {m["name"]: m["unit"] for m in SPEC[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = run_bench(tmp_path, 0)
    assert done.returncode != 0
    assert done.stdout == ""
