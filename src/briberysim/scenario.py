"""Scenario loading and batch execution.

A scenario is a JSON file bundling game parameters and/or a chain-sim
config with an ordered task list. Tasks either verify a claim (theorem
checks, dominance, cascade monotonicity, deposit bound) or produce data
(contract trace replay, chain simulations, parameter sweeps). Reports are
machine-readable: one JSON report per run plus per-task CSV artifacts.

Reproducibility contract: every random draw derives from the scenario seed
and a task/run/cell index path, frequencies are reported as exact
count/total rationals, and the serialized report contains no timestamps,
so rerunning a scenario yields a byte-identical report.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path

from . import __version__
from .chainsim import (
    Consensus,
    SimConfig,
    run_attack,
    run_attack_detailed,
    sim_config_from_payload,
    trace_to_csv,
)
from .contract import ContractError, replay_events
from .equilibrium import (
    MUTATIONS,
    _check_enumeration_limit,
    _check_t2,
    _validate_order,
    _validate_verifier_args,
    check_weak_dominance_game1,
    deposit_bound,
    deposit_bound_attained,
    find_deviation_cascade,
    verify_deposit_bound,
    verify_theorem,
)
from .games import (
    GameParams,
    PowerDistribution,
    params_from_json_dict,
    validate_params,
)
from .rational import format_rational, parse_bool, parse_int, parse_rational
from .seeding import derive_seed

SCHEMA_VERSION = 1

# the options each task kind accepts; any other key is a load error
TASK_OPTIONS = {
    "verify_t1": ("instances", "n_range", "mutation"),
    "verify_t3": ("instances", "n_range", "mutation"),
    "verify_t4": ("instances", "n_range", "mutation"),
    "dominance": (),
    "cascade": ("order",),
    "deposit_bound": (),
    "contract_trace": ("events",),
    "chain_sim": ("runs", "trace"),
    "sweep": ("grid", "runs_per_cell", "horizon_slots", "consensus", "max_cells"),
}
TASK_KINDS = tuple(TASK_OPTIONS)
SWEEP_AXES = ("d_m", "minion_share", "confirmations", "t")

DEFAULT_INSTANCES = {"verify_t1": 1000, "verify_t3": 500, "verify_t4": 1000}
DEFAULT_SWEEP_CELL_CAP = 512

# tasks whose table is also written as a `<kind>_<index>.csv` artifact
TABLE_ARTIFACT_KINDS = ("cascade", "contract_trace", "sweep")

SWEEP_COLUMNS = (
    "cell",
    "d_m",
    "minion_share",
    "confirmations",
    "t",
    "valid",
    "violation",
    "runs",
    "successes",
    "success_rate",
    "success_rate_decimal",
    "r_m_min",
    "r_m_max",
    "deposit_bound",
)


class ScenarioError(ValueError):
    """A scenario file failed to parse or validate."""


@dataclass(frozen=True)
class TaskSpec:
    kind: str
    options: dict


@dataclass(frozen=True)
class Scenario:
    name: str
    seed: int
    params: GameParams | None
    sim: SimConfig | None  # the 'sim' section, parsed once at load
    tasks: tuple[TaskSpec, ...]
    output_dir: str | None
    base_dir: Path

    def sim_config(self, rng_seed: int) -> SimConfig:
        return replace(self.sim, rng_seed=rng_seed)


def load_scenario(path: str | Path) -> Scenario:
    """Load and fully validate a scenario file.

    Parse errors name the offending field; game parameters are validated
    against the model assumptions and any violation is a load error.
    """
    path = Path(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            # parse_float receives the raw text, so 0.55 becomes exactly 11/20
            doc = json.load(fh, parse_float=Fraction)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario {path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ScenarioError(f"scenario {path}: top level must be an object")

    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ScenarioError(
            f"scenario {path}: schema_version must be {SCHEMA_VERSION}, got {version!r}"
        )
    if "name" not in doc or not isinstance(doc["name"], str):
        raise ScenarioError(f"scenario {path}: missing string field 'name'")
    if not isinstance(doc.get("seed"), int) or isinstance(doc["seed"], bool):
        raise ScenarioError(f"scenario {path}: missing integer field 'seed'")

    params = None
    if "params" in doc:
        try:
            params = params_from_json_dict(doc["params"], "params")
        except ValueError as exc:
            raise ScenarioError(f"scenario {path}: {exc}") from exc
        violations = validate_params(params)
        if violations:
            raise ScenarioError(
                f"scenario {path}: params violate assumptions: "
                + "; ".join(str(v) for v in violations)
            )

    sim = None
    if "sim" in doc:
        try:
            sim = sim_config_from_payload(doc["sim"], "sim")
        except ValueError as exc:
            raise ScenarioError(f"scenario {path}: {exc}") from exc

    raw_tasks = doc.get("tasks", [])
    if not isinstance(raw_tasks, list):
        raise ScenarioError(f"scenario {path}: 'tasks' must be an array")
    tasks: list[TaskSpec] = []
    for index, entry in enumerate(raw_tasks):
        if not isinstance(entry, dict) or "kind" not in entry:
            raise ScenarioError(f"scenario {path}: tasks[{index}] needs a 'kind' field")
        kind = entry["kind"]
        if kind not in TASK_KINDS:
            raise ScenarioError(
                f"scenario {path}: tasks[{index}].kind {kind!r} not one of {TASK_KINDS}"
            )
        options = {k: v for k, v in entry.items() if k != "kind"}
        tasks.append(TaskSpec(kind=kind, options=options))

    scenario = Scenario(
        name=doc["name"],
        seed=doc["seed"],
        params=params,
        sim=sim,
        tasks=(),
        output_dir=doc.get("output_dir"),
        base_dir=path.parent,
    )
    return with_tasks(scenario, tuple(tasks))


def with_tasks(scenario: Scenario, tasks: tuple[TaskSpec, ...]) -> Scenario:
    """`scenario` running `tasks` in place of its own.

    Every task is checked here, the tasks of a scenario file and those a
    CLI subcommand builds alike, so a bad one fails as `tasks[i] (<kind>)`
    before any task runs.
    """
    scenario = replace(scenario, tasks=tasks)
    for index, task in enumerate(tasks):
        try:
            _check_options(scenario, task)
        except ValueError as exc:
            raise ScenarioError(f"tasks[{index}] ({task.kind}): {exc}") from None
    return scenario


def _check_options(scenario: Scenario, task: TaskSpec) -> None:
    opts = task.options
    known = TASK_OPTIONS[task.kind]
    unknown = sorted(set(opts) - set(known))
    if unknown:
        raise ValueError(f"unknown option {unknown[0]!r}; options: {list(known)}")
    if task.kind in ("dominance", "cascade", "deposit_bound") and scenario.params is None:
        raise ValueError("scenario has no 'params' section")
    if task.kind == "chain_sim" and scenario.sim is None:
        raise ValueError("scenario has no 'sim' section")
    if task.kind in DEFAULT_INSTANCES:
        _verify_options(task)
    elif task.kind == "dominance":
        _check_enumeration_limit(scenario.params.n)
    elif task.kind == "cascade":
        order = opts.get("order")
        if not isinstance(order, list):
            raise ValueError("'order' must be an array of node indices")
        _validate_order([parse_int(node, "'order'") for node in order], scenario.params.n)
    elif task.kind == "contract_trace":
        events = opts.get("events")
        if not isinstance(events, str):
            raise ValueError("'events' must be a path string")
        if not (scenario.base_dir / events).exists():
            raise ValueError(f"events file not found: {events}")
    elif task.kind == "chain_sim":
        _chain_sim_options(opts)
    elif task.kind == "sweep":
        _sweep_options(opts)


def _verify_options(task: TaskSpec) -> tuple[int, tuple[int, int], str | None]:
    """`instances`, `n_range` and `mutation` of a verify_t* task."""
    opts = task.options
    instances = parse_int(opts.get("instances", DEFAULT_INSTANCES[task.kind]), "'instances'")
    n_range = opts.get("n_range", [3, 8])
    if not isinstance(n_range, list) or len(n_range) != 2:
        raise ValueError(f"'n_range': expected [n_min, n_max], got {n_range!r}")
    n_range = tuple(parse_int(n, "'n_range'") for n in n_range)
    _validate_verifier_args(instances, n_range)
    mutation = opts.get("mutation")
    if mutation is not None and mutation not in MUTATIONS:
        raise ValueError(f"'mutation' {mutation!r} is not one of {list(MUTATIONS)}")
    return instances, n_range, mutation


def _chain_sim_options(opts: dict) -> tuple[int, bool]:
    """`runs` and `trace` of a chain_sim task."""
    runs = parse_int(opts.get("runs", 1), "'runs'", minimum=1)
    return runs, parse_bool(opts.get("trace", False), "'trace'")


def _sweep_options(opts: dict) -> tuple[list[tuple], int, int, Consensus]:
    """The cells (d_m, minion_share, confirmations, t) and run settings of a sweep."""
    grid = opts.get("grid")
    if not isinstance(grid, dict):
        raise ValueError("'grid' must be an object of axis arrays")
    unknown = sorted(set(grid) - set(SWEEP_AXES))
    if unknown:
        raise ValueError(f"unknown grid axis {unknown[0]!r}; axes: {list(SWEEP_AXES)}")

    def axis(key: str, default: list, parse) -> list:
        values = grid.get(key, default)
        if not isinstance(values, list) or not values:
            raise ValueError(f"sweep grid axis '{key}' must be a non-empty array")
        return [parse(v, f"grid.{key}") for v in values]

    cells = list(
        itertools.product(
            axis("d_m", ["9"], parse_rational),
            axis("minion_share", ["3/4"], parse_rational),
            axis("confirmations", [3], lambda v, field: parse_int(v, field, minimum=1)),
            axis("t", ["1/2"], parse_rational),
        )
    )
    cap = parse_int(opts.get("max_cells", DEFAULT_SWEEP_CELL_CAP), "'max_cells'", minimum=1)
    if len(cells) > cap:
        raise ValueError(f"sweep has {len(cells)} cells, exceeding the cap 'max_cells' = {cap}")
    runs_per_cell = parse_int(opts.get("runs_per_cell", 100), "'runs_per_cell'", minimum=1)
    horizon = parse_int(opts.get("horizon_slots", 2000), "'horizon_slots'", minimum=1)
    consensus = opts.get("consensus", Consensus.POW_LONGEST_CHAIN.value)
    values = [c.value for c in Consensus]
    if consensus not in values:
        raise ValueError(f"'consensus' {consensus!r} is not one of {values}")
    return cells, runs_per_cell, horizon, Consensus(consensus)


@dataclass(frozen=True)
class TaskResult:
    kind: str
    index: int
    passed: bool | None  # None: informational task, no pass/fail meaning
    payload: dict
    artifacts: tuple[str, ...] = ()

    def to_payload(self) -> dict:
        return {
            "kind": self.kind,
            "index": self.index,
            "passed": self.passed,
            "artifacts": list(self.artifacts),
            "result": self.payload,
        }


@dataclass
class RunReport:
    scenario_name: str
    seed: int
    tool_version: str
    tasks: list[TaskResult] = field(default_factory=list)
    wall_time_s: float = 0.0  # console-only; kept out of the serialized payload

    @property
    def all_passed(self) -> bool:
        return all(t.passed is not False for t in self.tasks)

    @property
    def exit_code(self) -> int:
        return 0 if self.all_passed else 1

    def to_payload(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "scenario": self.scenario_name,
            "seed": self.seed,
            "tool_version": self.tool_version,
            "all_passed": self.all_passed,
            "tasks": [t.to_payload() for t in self.tasks],
        }


def report_json(report: RunReport) -> str:
    return json.dumps(report.to_payload(), indent=2, sort_keys=True) + "\n"


def table_csv(task: TaskResult) -> str:
    """Render one task's table as CSV text from its report payload.

    This is both the `<kind>_<index>.csv` artifact of the table tasks and
    what `--format csv` prints for every task.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    result = task.payload
    if task.kind == "cascade":
        n = len(result["initial_payoffs"])
        writer.writerow(["step", "deviating_set", *[f"payoff_{i}" for i in range(n)], "monotone"])
        writer.writerow([0, "", *result["initial_payoffs"], True])
        for step in result["steps"]:
            writer.writerow(
                [
                    step["step"],
                    ";".join(str(i) for i in step["deviating_set"]),
                    *step["payoffs"],
                    step["deviator_monotone"],
                ]
            )
    elif task.kind == "contract_trace":
        settlement = result["settlement"]
        writer.writerow(["node", "kind", "amount"])
        for node, amount in settlement["payouts"].items():
            writer.writerow([node, "payout", amount])
        for node, amount in settlement["burned_deposits"].items():
            writer.writerow([node, "burned", amount])
        writer.writerow(["magnate", "residual", settlement["residual_to_magnate"]])
    elif task.kind == "sweep":
        writer.writerow(SWEEP_COLUMNS)
        for row in result["rows"]:
            writer.writerow([row.get(column, "") for column in SWEEP_COLUMNS])
    elif task.kind == "chain_sim":
        writer.writerow(["runs", "successes", "success_rate", "success_rate_decimal"])
        writer.writerow(
            [result["runs"], result["successes"], result["success_rate"], result["success_rate_decimal"]]
        )
    else:
        writer.writerow(["kind", "index", "passed"])
        writer.writerow([task.kind, task.index, task.passed])
    return buffer.getvalue()


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def run_scenario(
    scenario: Scenario,
    output_dir: str | Path | None = None,
    seed: int | None = None,
) -> RunReport:
    """Execute the scenario's tasks in declared order and write artifacts.

    `seed` overrides the scenario seed. Task failures are results (reflected
    in the report and the exit code), not exceptions; only I/O and malformed
    inputs raise.
    """
    seed = scenario.seed if seed is None else seed
    out = Path(output_dir) if output_dir is not None else (
        Path(scenario.output_dir) if scenario.output_dir else None
    )
    report = RunReport(scenario_name=scenario.name, seed=seed, tool_version=__version__)
    started = time.perf_counter()
    for index, task in enumerate(scenario.tasks):
        result = _run_task(scenario, task, index, seed, out)
        if out is not None and task.kind in TABLE_ARTIFACT_KINDS:
            name = f"{task.kind}_{index}.csv"
            _write(out / name, table_csv(result))
            result = replace(result, artifacts=(*result.artifacts, name))
        report.tasks.append(result)
    report.wall_time_s = time.perf_counter() - started
    if out is not None:
        _write(out / "report.json", report_json(report))
    return report


def _run_task(
    scenario: Scenario, task: TaskSpec, index: int, seed: int, out: Path | None
) -> TaskResult:
    task_seed = derive_seed(seed, "task", index)
    opts = task.options
    params = scenario.params  # not None for the tasks that read it (_check_options)

    if task.kind in ("verify_t1", "verify_t3", "verify_t4"):
        theorem = task.kind.removeprefix("verify_").upper()
        instances, n_range, mutation = _verify_options(task)
        verification = verify_theorem(theorem, task_seed, instances, n_range, mutation=mutation)
        return TaskResult(task.kind, index, verification.all_passed, verification.to_payload())

    if task.kind == "dominance":
        dominance = check_weak_dominance_game1(params)
        return TaskResult(task.kind, index, dominance.weakly_dominates, dominance.to_payload())

    if task.kind == "cascade":
        trace = find_deviation_cascade(params, tuple(opts["order"]))
        return TaskResult(task.kind, index, trace.all_monotone, trace.to_payload())

    if task.kind == "deposit_bound":
        bound = deposit_bound(params)
        payload = {
            "deposit_bound": format_rational(bound),
            "bound_is_exclusive": True,
            "bound_attained": deposit_bound_attained(params),
            "check_above_bound": verify_deposit_bound(params, bound + 1).to_payload(),
            "check_at_bound": verify_deposit_bound(params, bound).to_payload(),
        }
        return TaskResult(task.kind, index, _check_t2(params) is None, payload)

    if task.kind == "contract_trace":
        events_path = scenario.base_dir / opts["events"]
        try:
            with open(events_path, "r", encoding="utf-8") as fh:
                replay = replay_events(fh)
            summary = replay.summary()
        except (ValueError, ContractError) as exc:
            raise ScenarioError(f"tasks[{index}] (contract_trace): {opts['events']}: {exc}") from None
        payload = {
            "events": opts["events"],
            "final_phase": replay.final_state.phase.value,
            "final_order": replay.final_state.order.value,
            "settlement": summary.to_payload(),
        }
        return TaskResult(task.kind, index, summary.conservation_holds(), payload)

    if task.kind == "chain_sim":
        runs, trace = _chain_sim_options(opts)
        # stream 0 of the sim-run seed space; sweep cell c uses stream c, so a
        # single-cell sweep reproduces a direct chain_sim task exactly
        cfg_index = 0
        successes = 0
        first_payload = None
        artifacts: list[str] = []
        for run_index in range(runs):
            config = scenario.sim_config(derive_seed(seed, "sim-run", cfg_index, run_index))
            detail = run_attack_detailed(config, record_trace=trace and run_index == 0)
            if detail.result.success:
                successes += 1
            if run_index == 0:
                first_payload = detail.result.to_payload()
                if trace and out is not None:
                    buffer = io.StringIO()
                    trace_to_csv(detail.trace, buffer)
                    name = f"chain_trace_{index}.csv"
                    _write(out / name, buffer.getvalue())
                    artifacts.append(name)
        payload = {
            "runs": runs,
            "successes": successes,
            "success_rate": format_rational(Fraction(successes, runs)),
            "success_rate_decimal": f"{successes / runs:.6f}",
            "first_run": first_payload,
        }
        return TaskResult(task.kind, index, None, payload, tuple(artifacts))

    if task.kind == "sweep":
        return _run_sweep(scenario, task, index, seed)

    raise ScenarioError(f"unknown task kind {task.kind!r}")


def _run_sweep(scenario: Scenario, task: TaskSpec, index: int, seed: int) -> TaskResult:
    """Parameter sweep over bribe pool, minion share, confirmations, threshold.

    Each cell synthesizes a 4-node network (two minions and two honest
    nodes splitting their sides evenly, so no single node reaches the
    threshold for any share in (0, 1)) with rewards r_h = 2, r_d = -1,
    r_dp = -3 and r_m = r_h + v_i * d_m, runs seeded attack simulations,
    and derives the bribed reward vector and deposit bound. Cells whose
    derived parameters violate an assumption are recorded as rejected rows.
    """
    cells, runs_per_cell, horizon, consensus = _sweep_options(task.options)
    rows: list[dict] = []
    for cell_index, (d_m, share, conf, t) in enumerate(cells):
        row: dict = {
            "cell": cell_index,
            "d_m": format_rational(d_m),
            "minion_share": format_rational(share),
            "confirmations": conf,
            "t": format_rational(t),
        }
        if not 0 < share < 1:
            row.update(valid=False, violation=f"minion share {format_rational(share)} not in (0, 1)")
            rows.append(row)
            continue
        powers = PowerDistribution((share / 2, share / 2, (1 - share) / 2, (1 - share) / 2))
        candidate = GameParams(
            powers=powers,
            threshold_t=t,
            reward_honest=(2,) * 4,
            reward_deviant_vs_honest=(-1,) * 4,
            reward_malicious=tuple(2 + p * d_m for p in powers),
            reward_deviant_vs_malicious=(-3,) * 4,
        )
        violations = validate_params(candidate)
        if violations:
            row.update(valid=False, violation="; ".join(str(v) for v in violations))
            rows.append(row)
            continue
        config = SimConfig(
            powers=powers,
            minions=frozenset({0, 1}),
            consensus=consensus,
            confirmations=conf,
            horizon_slots=horizon,
            rng_seed=0,  # replaced per run
            threshold_t=t,
        )
        successes = 0
        for run_index in range(runs_per_cell):
            run_seed = derive_seed(seed, "sim-run", cell_index, run_index)
            if run_attack(replace(config, rng_seed=run_seed)).success:
                successes += 1
        row.update(
            valid=True,
            violation="",
            runs=runs_per_cell,
            successes=successes,
            success_rate=format_rational(Fraction(successes, runs_per_cell)),
            success_rate_decimal=f"{successes / runs_per_cell:.6f}",
            r_m_min=format_rational(min(candidate.reward_malicious)),
            r_m_max=format_rational(max(candidate.reward_malicious)),
            deposit_bound=format_rational(deposit_bound(candidate)),
        )
        rows.append(row)

    payload = {"cells": len(cells), "runs_per_cell": runs_per_cell, "rows": rows}
    return TaskResult("sweep", index, None, payload)
