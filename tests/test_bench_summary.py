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


def write_result(
    folder: Path,
    source: str,
    seed: int,
    wall: float,
    correct: bool = True,
    extra: dict | None = None,
) -> None:
    folder.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": "p3",
        "seed": seed,
        "seconds": 36,
        "trace": 0,
        "machine": MACHINE,
        "git_commit": "c0ffee",
        "source_sha256": source,
        "result": {
            "correct": correct,
            "metrics": {"wall_s": {"value": wall, "unit": "s"}, **(extra or {})},
        },
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


def test_parent_and_change_paired_by_seed(tmp_path):
    benchmark = tmp_path / "BENCHMARK.json"
    benchmark.write_text(json.dumps({
        "end_to_end": [{"name": "wall_s", "better": "lower"}],
        "per_layer": [{"name": "work_per_s", "better": "higher"}],
    }), encoding="utf-8")
    parent_walls = [0.4, 0.1, 0.3, 0.2, 0.5]
    change_walls = [0.2, 0.1, 0.6, 0.1]  # seeds 1-4: better, tied, worse, better
    # "hits" is 0 on every parent run, so it has no ratio
    for folder, digest, walls, hits in (
        ("parent", "aa" * 32, parent_walls, 0),
        ("change", "bb" * 32, change_walls, 1),
    ):
        for seed, wall in enumerate(walls, start=1):
            extra = {
                "work_per_s": {"value": 1 / wall, "unit": "1/s"},
                "hits": {"value": hits, "unit": ""},
            }
            write_result(tmp_path / folder, digest, seed, wall, extra=extra)
    records = bench_summary.load_results([tmp_path / "parent", tmp_path / "change"])
    labels = {"aa": "parent", "bb": "change"}
    paired = bench_summary.summarize(records, labels, benchmark)["paired"]["p3"]
    # only the 4 seeds both ran are paired; ratios 0.5, 1, 2, 0.5
    assert paired["wall_s"] == {
        "better": "lower", "pairs": 4, "change_better": 2, "ties": 1, "median_ratio": 0.75,
    }
    work = paired["work_per_s"]
    assert (work["better"], work["change_better"], work["ties"]) == ("higher", 2, 1)
    assert abs(work["median_ratio"] - 1.5) < 1e-12
    # a metric the benchmark declares no direction for has no count, and a
    # parent value of 0 gives no ratio
    assert paired["hits"] == {
        "better": None, "pairs": 4, "change_better": None, "ties": 0, "median_ratio": None,
    }


def test_pairing_needs_both_labels_once(tmp_path, capsys):
    write_result(tmp_path / "parent", "aa" * 32, 1, 0.1)
    write_result(tmp_path / "change", "bb" * 32, 1, 0.2)
    records = bench_summary.load_results([tmp_path / "parent", tmp_path / "change"])
    # one label alone pairs nothing, so no benchmark is read
    missing = tmp_path / "no_benchmark.json"
    assert "paired" not in bench_summary.summarize(records, {"aa": "parent"}, missing)
    twice = ["--label", "aa=parent", "--label", "bb=parent"]
    folders = [str(tmp_path / "parent"), str(tmp_path / "change")]
    assert bench_summary.main(["--out", str(tmp_path / "twice.json"), *twice, *folders]) == 2
    assert "two sources are labelled 'parent'" in capsys.readouterr().err
