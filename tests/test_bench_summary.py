"""Tests for tools/bench_summary.py: results grouped by source tree, each
metric's median and IQR per workload."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_summary.py"
spec = importlib.util.spec_from_file_location("bench_summary", TOOL)
bench_summary = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_summary)

MACHINE = {"cpu_model": "test", "nproc": 2, "python": "3.11.7", "platform": "test"}


def write_result(folder: Path, source: str, seed: int, wall: float, correct: bool = True) -> None:
    folder.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": "p3",
        "seed": seed,
        "seconds": 36,
        "trace": 0,
        "machine": MACHINE,
        "git_commit": "c0ffee",
        "source_sha256": source,
        "result": {"correct": correct, "metrics": {"wall_s": {"value": wall, "unit": "s"}}},
    }
    (folder / f"result_p3_seed{seed}_trace0.json").write_text(json.dumps(record), encoding="utf-8")


def test_groups_by_source_and_summarizes_each_metric(tmp_path):
    for seed, wall in enumerate([0.4, 0.1, 0.3, 0.2, 0.5], start=1):
        write_result(tmp_path / "parent", "aa" * 32, seed, wall)
    write_result(tmp_path / "change", "bb" * 32, 1, 0.05, correct=False)
    out = tmp_path / "bench.json"
    argv = ["--out", str(out), "--label", "aa=parent", str(tmp_path / "parent"), str(tmp_path / "change")]
    assert bench_summary.main(argv) == 0
    summary = json.loads(out.read_text(encoding="utf-8"))
    assert summary["machine"] == MACHINE
    parent, change = summary["sources"]["aa" * 32], summary["sources"]["bb" * 32]
    assert (parent["label"], change["label"]) == ("parent", None)
    wall = parent["workloads"]["p3"]["metrics"]["wall_s"]
    assert (wall["median"], wall["q1"], wall["q3"], wall["runs"]) == (0.3, 0.2, 0.4, 5)
    assert abs(wall["iqr"] - 0.2) < 1e-12 and wall["by_seed"]["2/trace0"] == 0.1
    assert parent["workloads"]["p3"]["all_correct"] is True
    single = change["workloads"]["p3"]
    assert single["all_correct"] is False
    assert (single["metrics"]["wall_s"]["median"], single["metrics"]["wall_s"]["iqr"]) == (0.05, 0)


def test_a_run_given_twice_or_no_results_exit_2(tmp_path, capsys):
    write_result(tmp_path / "a", "aa" * 32, 1, 0.1)
    write_result(tmp_path / "b", "aa" * 32, 1, 0.2)
    out = tmp_path / "bench.json"
    assert bench_summary.main(["--out", str(out), str(tmp_path / "a"), str(tmp_path / "b")]) == 2
    assert "a second p3 run of 1/trace0" in capsys.readouterr().err
    (tmp_path / "empty").mkdir()
    assert bench_summary.main(["--out", str(out), str(tmp_path / "empty")]) == 2
    assert "no result_*.json" in capsys.readouterr().err
    assert not out.exists()
