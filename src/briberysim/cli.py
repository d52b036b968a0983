"""Command-line front-end.

Subcommands wrap the scenario runner for batch use:

    briberysim verify <scenario.json>            run every task in the scenario
    briberysim cascade <scenario.json> --order 2,1,0
    briberysim contract-trace <events.jsonl>     replay a contract event log
    briberysim chain-sim <scenario.json>         run the scenario's chain sim
    briberysim sweep <scenario.json>             run the scenario's sweep task

Exit status is 0 when every verification task passed, 1 when one failed,
and 2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .contract import ContractError
from .scenario import (
    RunReport,
    Scenario,
    ScenarioError,
    TaskSpec,
    load_scenario,
    report_json,
    run_scenario,
    table_csv,
    with_tasks,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="briberysim",
        description="Verify collusion-game claims and simulate double-spend attacks.",
    )
    parser.add_argument("--version", action="version", version=f"briberysim {__version__}")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    common.add_argument("--out", type=Path, default=None, help="output directory for reports")
    common.add_argument(
        "--format",
        choices=("json", "csv", "summary"),
        default="summary",
        help="stdout format (default: one summary line per task)",
    )

    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", parents=[common], help="run all scenario tasks")
    p_verify.add_argument("scenario", type=Path)
    p_verify.set_defaults(func=cmd_verify)

    p_cascade = sub.add_parser(
        "cascade", parents=[common], help="trace one deviation order on the scenario params"
    )
    p_cascade.add_argument("scenario", type=Path)
    p_cascade.add_argument(
        "--order", type=str, default=None, help="comma-separated node indices, e.g. 2,1,0"
    )
    p_cascade.set_defaults(func=cmd_cascade)

    p_trace = sub.add_parser(
        "contract-trace", parents=[common], help="replay a JSONL contract event log"
    )
    p_trace.add_argument("events", type=Path)
    p_trace.set_defaults(func=cmd_contract_trace)

    p_sim = sub.add_parser("chain-sim", parents=[common], help="run attack simulations")
    p_sim.add_argument("scenario", type=Path)
    p_sim.add_argument("--runs", type=int, default=None, help="override the number of seeded runs")
    p_sim.add_argument("--trace", action="store_true", help="write a per-slot CSV trace")
    p_sim.set_defaults(func=cmd_chain_sim)

    p_sweep = sub.add_parser("sweep", parents=[common], help="run the scenario's sweep grid")
    p_sweep.add_argument("scenario", type=Path)
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def _emit(report: RunReport, args) -> int:
    if args.format == "json":
        sys.stdout.write(report_json(report))
    elif args.format == "csv":
        sys.stdout.write("\n".join(table_csv(task) for task in report.tasks))
    else:
        print(f"scenario {report.scenario_name}  seed {report.seed}  tool {report.tool_version}")
        for task in report.tasks:
            status = "PASS" if task.passed else "FAIL" if task.passed is False else "done"
            print(f"  [{task.index:2d}] {task.kind:<16} {status}")
        print(f"  wall time: {report.wall_time_s:.2f}s")
    return report.exit_code


def cmd_verify(args) -> int:
    scenario = load_scenario(args.scenario)
    report = run_scenario(scenario, output_dir=args.out, seed=args.seed)
    return _emit(report, args)


def cmd_cascade(args) -> int:
    scenario = load_scenario(args.scenario)
    if args.order is not None:
        try:
            order = [int(part) for part in args.order.split(",") if part.strip() != ""]
        except ValueError:
            raise ScenarioError(f"--order must be comma-separated integers, got {args.order!r}")
        tasks = (TaskSpec("cascade", {"order": order}),)
    else:
        tasks = tuple(t for t in scenario.tasks if t.kind == "cascade")
        if not tasks:
            raise ScenarioError("scenario has no cascade task; pass --order")
    scenario = with_tasks(scenario, tasks)
    report = run_scenario(scenario, output_dir=args.out, seed=args.seed)
    return _emit(report, args)


def cmd_contract_trace(args) -> int:
    events = args.events
    scenario = Scenario(
        name=f"contract-trace:{events.name}",
        seed=args.seed if args.seed is not None else 0,
        params=None,
        sim=None,
        tasks=(),
        output_dir=None,
        base_dir=events.parent,
    )
    scenario = with_tasks(scenario, (TaskSpec("contract_trace", {"events": events.name}),))
    report = run_scenario(scenario, output_dir=args.out, seed=args.seed)
    return _emit(report, args)


def cmd_chain_sim(args) -> int:
    scenario = load_scenario(args.scenario)
    tasks = tuple(t for t in scenario.tasks if t.kind == "chain_sim")
    if not tasks:
        tasks = (TaskSpec("chain_sim", {"runs": 1}),)
    if args.runs is not None or args.trace:
        patched = []
        for task in tasks:
            options = dict(task.options)
            if args.runs is not None:
                options["runs"] = args.runs
            if args.trace:
                options["trace"] = True
            patched.append(TaskSpec("chain_sim", options))
        tasks = tuple(patched)
    scenario = with_tasks(scenario, tasks)
    report = run_scenario(scenario, output_dir=args.out, seed=args.seed)
    return _emit(report, args)


def cmd_sweep(args) -> int:
    scenario = load_scenario(args.scenario)
    tasks = tuple(t for t in scenario.tasks if t.kind == "sweep")
    if not tasks:
        raise ScenarioError("scenario has no sweep task")
    scenario = with_tasks(scenario, tasks)
    report = run_scenario(scenario, output_dir=args.out, seed=args.seed)
    return _emit(report, args)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, ContractError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
