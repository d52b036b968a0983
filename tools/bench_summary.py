"""Summarize perfbench result files: each metric's median and IQR per source tree and workload.

    python tools/bench_summary.py --out BENCH.json DIR_OR_FILE [DIR_OR_FILE ...]
    python tools/bench_summary.py --out BENCH.json --label 0123abcd=parent --label 4567ef89=change

Each input is a `result_*.json` file that `perfbench/run.py` writes, or a
directory holding such files (`.perfbench_out/` by default). Results are
grouped by `source_sha256`, the digest of the `src/` tree that ran, so the
runs of two checkouts stay apart even when neither has a git commit of its
own. `--label PREFIX=NAME` names the group whose digest starts with PREFIX.

For every group and workload the output gives each metric's median, first
and third quartiles (inclusive method), IQR, run count and value by seed,
so a reader can pair runs by seed. It also records the machine (the one
every result names, or each distinct one), the runs' seconds, and whether
every run was correct. When one group is labelled `parent` and another
`change`, `paired` gives, for each workload and metric both ran, the runs
paired by seed: how many pairs the change is better in (lower or higher, as
`BENCHMARK.json` declares the metric; null when it declares none), how many
tie, and the median change/parent ratio. Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRED_LABELS = ("parent", "change")


def load_results(inputs: list[Path]) -> list[dict]:
    """Every result record named by `inputs`, files and directories alike."""
    records = []
    for path in inputs:
        files = sorted(path.glob("result_*.json")) if path.is_dir() else [path]
        for file in files:
            record = json.loads(file.read_text(encoding="utf-8"))
            record["_file"] = str(file)
            records.append(record)
    return records


def spread(values: list[float]) -> dict:
    """Median, quartiles and IQR of `values` (a single value is its own quartiles)."""
    q1, median, q3 = (
        statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    )
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "runs": len(values)}


def directions(benchmark: Path) -> dict[str, str]:
    """Each metric's `better` direction ("lower" or "higher"), as the benchmark declares it."""
    spec = json.loads(benchmark.read_text(encoding="utf-8"))
    metrics = spec.get("end_to_end", []) + spec.get("per_layer", [])
    return {metric["name"]: metric["better"] for metric in metrics}


def paired(parent: dict, change: dict, better: dict[str, str]) -> dict:
    """Per workload and metric of both groups, over the seeds both ran: the
    pair count, the pairs the change is better or tied in, and the median
    change/parent ratio (over the pairs whose parent value is not 0)."""
    out: dict[str, dict] = {}
    for workload, base in parent["workloads"].items():
        other = change["workloads"].get(workload, {"metrics": {}})["metrics"]
        for name, entry in base["metrics"].items():
            if name not in other:
                continue
            pairs = [
                (value, other[name]["by_seed"][key])
                for key, value in entry["by_seed"].items()
                if key in other[name]["by_seed"]
            ]
            if not pairs:
                continue
            direction = better.get(name)
            wins = None
            if direction is not None:
                sign = 1 if direction == "higher" else -1
                wins = sum(sign * (new - old) > 0 for old, new in pairs)
            ratios = [new / old for old, new in pairs if old]
            out.setdefault(workload, {})[name] = {
                "better": direction,
                "pairs": len(pairs),
                "change_better": wins,
                "ties": sum(new == old for old, new in pairs),
                "median_ratio": statistics.median(ratios) if ratios else None,
            }
    return out


def summarize(
    records: list[dict], labels: dict[str, str], benchmark: Path = ROOT / "BENCHMARK.json"
) -> dict:
    machines = []
    groups: dict[str, dict] = {}
    for record in records:
        if record["machine"] not in machines:
            machines.append(record["machine"])
        digest = record["source_sha256"]
        label = next((name for prefix, name in labels.items() if digest.startswith(prefix)), None)
        group = groups.setdefault(digest, {"label": label, "git_commits": [], "workloads": {}})
        if record.get("git_commit") not in group["git_commits"]:
            group["git_commits"].append(record.get("git_commit"))
        workload = group["workloads"].setdefault(
            record["workload"], {"seconds": [], "all_correct": True, "metrics": {}}
        )
        if record["seconds"] not in workload["seconds"]:
            workload["seconds"].append(record["seconds"])
        workload["all_correct"] &= record["result"]["correct"]
        for name, metric in record["result"]["metrics"].items():
            entry = workload["metrics"].setdefault(name, {"unit": metric["unit"], "by_seed": {}})
            key = f"{record['seed']}/trace{record['trace']}"
            if key in entry["by_seed"]:
                raise ValueError(f"{record['_file']}: a second {record['workload']} run of {key}")
            entry["by_seed"][key] = metric["value"]
    labelled: dict[str, dict] = {}
    for group in groups.values():
        for workload in group["workloads"].values():
            for entry in workload["metrics"].values():
                entry.update(spread(list(entry["by_seed"].values())))
        if group["label"] in PAIRED_LABELS:
            if group["label"] in labelled:
                raise ValueError(f"two sources are labelled {group['label']!r}")
            labelled[group["label"]] = group
    summary = {"machine": machines[0] if len(machines) == 1 else machines, "sources": groups}
    if len(labelled) == len(PAIRED_LABELS):
        better = directions(benchmark)
        summary["paired"] = paired(labelled["parent"], labelled["change"], better)
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("inputs", nargs="*", type=Path, default=[ROOT / ".perfbench_out"])
    parser.add_argument("--out", type=Path, required=True, help="the summary JSON to write")
    parser.add_argument("--label", action="append", default=[], metavar="PREFIX=NAME",
                        help="name the source whose sha256 starts with PREFIX")
    args = parser.parse_args(argv)
    labels = {}
    for item in args.label:
        prefix, sep, name = item.partition("=")
        if not sep or not prefix or not name:
            parser.error(f"--label {item!r}: expected PREFIX=NAME")
        labels[prefix] = name
    try:
        records = load_results(args.inputs)
        if not records:
            raise ValueError(f"no result_*.json among {[str(p) for p in args.inputs]}")
        summary = summarize(records, labels)
    except (OSError, ValueError, KeyError) as exc:
        print(f"bench_summary: {exc}", file=sys.stderr)
        return 2
    args.out.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
