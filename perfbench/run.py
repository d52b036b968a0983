"""briberysim benchmark: one workload, one seed, every metric, checked outputs.

    python3 perfbench/run.py --workload claims --seed 1 --seconds 20 --trace 0

Load comes from this one process and thread: a closed loop with a single
caller and no think time, each round starting when the previous one returns.
After one warm-up round, rounds of the workload's fixed work repeat for
--seconds (at least MIN_ROUNDS of them). With --trace 0 it prints the
end-to-end metrics, with --trace 1 the per-layer ones: that run alternates
untraced and traced rounds of the workload for the tracing overhead, then
runs one traced round and the layer probes of every workload, so every
layer is measured on every traced run. The last stdout line is the result
object; the line before it and .perfbench_out/ hold counters, machine and
provenance. Metric names and units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from tracing import NullTracer, Tracer

ROOT = Path(__file__).resolve().parent.parent
MIN_ROUNDS = 3
SETUP_REPEATS = 7


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("claims", "race", "ledger", "p3"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def measure_setup(workload: str) -> list[float]:
    """Seconds from a fresh interpreter to ready: import (and load p3), in children.

    One warm-up child fills the bytecode cache, which users do not pay for
    on every run; the rest are timed.
    """
    code = "import sys, time\nt = time.perf_counter()\nsys.path.insert(0, 'src')\nimport briberysim\n"
    if workload == "p3":
        code += "briberysim.load_scenario('scenarios/p3.json')\n"
    code += "print(repr(time.perf_counter() - t))\n"
    samples = []
    for _ in range(SETUP_REPEATS + 1):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                              text=True, timeout=60, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples[1:]


def timing_summary(samples: list[float]) -> dict:
    """Median, and the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    summary = {"samples": n, "median": statistics.median(samples)}
    q = 100 * (n - 10) // n
    if q > 50:
        summary[f"p{q}"] = statistics.quantiles(samples, n=100)[q - 1]
    return summary


def upper_quartile(samples: list[float]) -> float:
    """Round time that three rounds in four beat.

    On a shared host, rounds of identical work run up to twice as fast in
    episodes when the neighbours are idle; the median moves with how much of
    a run such episodes cover, while the upper quartile stays on the
    ordinary speed, so runs agree more closely.
    """
    return statistics.quantiles(samples, n=4, method="inclusive")[2]


def timed_round(workload, tracer):
    started = perf_counter()
    result = workload.run_round(tracer)
    return perf_counter() - started, result


class Tally:
    """Operations attempted and failed over the whole run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def add(self, result):
        self.attempted += result.ops
        self.failed += result.failed
        self.notes.extend(result.notes[: 5 - len(self.notes)])
        return result


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over src/ file paths and bytes, for checkouts without .git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def run_untraced(workload, seconds: int, tally: Tally) -> list[tuple[float, object]]:
    null = NullTracer()
    tally.add(workload.run_round(null))  # warm-up, not timed
    rounds = []
    deadline = perf_counter() + seconds
    walls = []
    # stop before a round that would likely end past the deadline
    while len(walls) < MIN_ROUNDS or perf_counter() + statistics.median(walls) <= deadline:
        wall, result = timed_round(workload, null)
        walls.append(wall)
        rounds.append((wall, tally.add(result)))
    return rounds


def run_traced(workload, seconds: int, tally: Tally, tracer) -> tuple[list, list]:
    """Untraced and traced rounds in pairs, alternating which runs first."""
    null = NullTracer()
    tally.add(workload.run_round(null))  # warm-up, not timed
    plain, traced = [], []
    deadline = perf_counter() + seconds
    while len(plain) < MIN_ROUNDS or perf_counter() < deadline:
        order = ((null, plain), (tracer, traced))
        for tr, walls in order if len(plain) % 2 == 0 else order[::-1]:
            wall, result = timed_round(workload, tr)
            tally.add(result)
            walls.append(wall)
    return plain, traced


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "briberysim" / "__init__.py").is_file() or not (
        ROOT / "scenarios" / "p3.json"
    ).is_file():
        print(f"perfbench: no briberysim source tree (src/briberysim, scenarios/p3.json) "
              f"under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import briberysim

    if Path(briberysim.__file__).resolve().parent != ROOT / "src" / "briberysim":
        print(f"perfbench: imported briberysim from {briberysim.__file__}, not the checkout",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS  # imports briberysim from src/

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)

    tally = Tally()
    workload = WORKLOADS[args.workload](args.seed, ROOT, out)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "load": "closed loop, 1 process, 1 thread, 1 caller, no think time",
        "counters_per_round": workload.counters,
    }
    if args.trace:
        tracer = Tracer()
        plain, traced = run_traced(workload, args.seconds, tally, tracer)
        overhead = statistics.median(traced) / statistics.median(plain)
        all_workloads = {args.workload: workload}
        for name, cls in WORKLOADS.items():
            if name != args.workload:
                all_workloads[name] = cls(args.seed, ROOT, out)
                tally.add(all_workloads[name].run_round(tracer))
        for each in all_workloads.values():
            tally.add(each.probe(tracer))
        self_times = tracer.self_times()
        values = {"trace.overhead_ratio": overhead}
        for each in all_workloads.values():
            values.update(each.layer_metrics(self_times))
        tracer.write_jsonl(out / f"spans_{args.workload}_seed{args.seed}.jsonl")
        record.update(tracing_overhead=overhead - 1, untraced_round_s=timing_summary(plain),
                      traced_round_s=timing_summary(traced), spans=len(tracer.spans))
    else:
        setup = measure_setup(args.workload)
        rounds = run_untraced(workload, args.seconds, tally)
        walls = [wall for wall, _ in rounds]
        busy = [wall if r.busy_s is None else r.busy_s for wall, r in rounds]
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": upper_quartile(walls),
            "work_per_s": workload.work / upper_quartile(busy),
            "peak_rss_mb": peak_rss_mb(),
        }
        record.update(setup_s=timing_summary(setup), round_s=timing_summary(walls), round_walls=walls,
                      **{f"{workload.unit}_per_s": values["work_per_s"]})
    if set(values) != {m["name"] for m in declared}:
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json")

    record.update(
        ops_total=tally.attempted,
        ops_failed=tally.failed,
        ops_failed_ratio=tally.failed / tally.attempted,
        failures=tally.notes,
        peak_rss_mb=peak_rss_mb(),
    )
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    record["result"] = result
    (out / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )
    print("perfbench " + json.dumps({k: v for k, v in record.items() if k != "result"}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
