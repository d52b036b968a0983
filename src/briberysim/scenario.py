"""Scenario loading and batch execution.

A scenario is a JSON file bundling game parameters and/or a chain-sim
config with an ordered task list. Tasks either verify a claim (theorem
checks, dominance, cascade monotonicity, deposit bound) or produce data
(contract trace replay, chain simulations, parameter sweeps). Reports are
machine-readable: one JSON report per run plus per-task CSV artifacts.

Each task is parsed once, at load (`with_tasks`), into the arguments its run
takes; a `contract_trace` event log is replayed then, so a malformed option
or event line fails before any task runs.

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
import math
import random
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterable, NamedTuple

from . import __version__
from .chainsim import (
    TRACE_COLUMNS,
    Consensus,
    SimConfig,
    _race,
    parse_consensus,
    sim_config_from_payload,
)
from .contract import replay_events
from .equilibrium import (
    MUTATIONS,
    _N_RANGE,
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
from .rational import check_fields, decode_json, format_rational, parse_bool, parse_int, parse_rational
from .seeding import derive_seed, derived_seeds

SCHEMA_VERSION = 1
# the top-level keys of a scenario file; any other key is a load error
SCENARIO_KEYS = ("schema_version", "name", "seed", "params", "sim", "tasks", "output_dir")
SWEEP_AXES = ("d_m", "minion_share", "confirmations", "t")
DEFAULT_SWEEP_CELL_CAP = 512

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
    args: tuple | None = None  # the options parsed into what the run takes; set by `with_tasks`


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
    against the model assumptions and any violation is a load error. Errors
    name the file, except a task's own, which `with_tasks` names by task.
    The file is decoded by `decode_json`, so a repeated key is an error.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    try:
        scenario = _scenario_from_doc(decode_json(data), path.parent)
    except ValueError as exc:
        raise ScenarioError(f"scenario {path}: {exc}") from exc
    return with_tasks(scenario, scenario.tasks)


def _scenario_from_doc(doc: object, base_dir: Path) -> Scenario:
    """The scenario a decoded file holds, its tasks not yet parsed."""
    if not isinstance(doc, dict):
        raise ValueError("top level must be an object")
    unknown = [key for key in doc if key not in SCENARIO_KEYS]
    if unknown:
        raise ValueError(f"unknown top-level key {unknown[0]!r}; keys: {list(SCENARIO_KEYS)}")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"schema_version must be {SCHEMA_VERSION}, got {version!r}")
    if not isinstance(doc.get("name"), str):
        raise ValueError("missing string field 'name'")
    if not isinstance(doc.get("seed"), int) or isinstance(doc["seed"], bool):
        raise ValueError("missing integer field 'seed'")

    params = params_from_json_dict(doc["params"], "params") if "params" in doc else None
    if params is not None and (violations := validate_params(params)):
        raise ValueError("params violate assumptions: " + "; ".join(map(str, violations)))

    output_dir = doc.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        raise ValueError("'output_dir' must be a path string")

    sim = sim_config_from_payload(doc["sim"], "sim") if "sim" in doc else None

    raw_tasks = doc.get("tasks", [])
    if not isinstance(raw_tasks, list):
        raise ValueError("'tasks' must be an array")
    tasks: list[TaskSpec] = []
    for index, entry in enumerate(raw_tasks):
        if not isinstance(entry, dict) or "kind" not in entry:
            raise ValueError(f"tasks[{index}] needs a 'kind' field")
        kind = entry["kind"]
        if not isinstance(kind, str) or kind not in TASKS:
            raise ValueError(f"tasks[{index}].kind {kind!r} not one of {tuple(TASKS)}")
        tasks.append(TaskSpec(kind=kind, options={k: v for k, v in entry.items() if k != "kind"}))

    return Scenario(
        name=doc["name"],
        seed=doc["seed"],
        params=params,
        sim=sim,
        tasks=tuple(tasks),
        output_dir=output_dir,
        base_dir=base_dir,
    )


def with_tasks(scenario: Scenario, tasks: tuple[TaskSpec, ...]) -> Scenario:
    """`scenario` running `tasks` in place of its own; each with no `args` yet is parsed.

    This is the only reader of task options, for the tasks of a scenario
    file and those a CLI subcommand builds alike. A `contract_trace` task's
    event log is replayed and settled here. A bad option or event line
    fails as `tasks[i] (<kind>): ...` before any task runs.
    """
    parsed = []
    for index, task in enumerate(tasks):
        try:
            args = _parse_task(scenario, task) if task.args is None else task.args
        except ValueError as exc:
            raise ScenarioError(f"tasks[{index}] ({task.kind}): {exc}") from None
        parsed.append(replace(task, args=args))
    return replace(scenario, tasks=tuple(parsed))


def _parse_task(scenario: Scenario, task: TaskSpec) -> tuple:
    """The arguments `task`'s run takes, parsed from its options."""
    entry = TASKS[task.kind]
    check_fields(task.options, (), entry.options, "options")
    if entry.needs is not None and getattr(scenario, entry.needs) is None:
        raise ValueError(f"scenario has no {entry.needs!r} section")
    return entry.parse(scenario, task.options)


def _verify_options(opts: dict, default_instances: int) -> tuple[int, tuple[int, int], str | None]:
    """`instances`, `n_range` and `mutation` of a verify_t* task."""
    instances = parse_int(opts.get("instances", default_instances), "'instances'")
    n_range = opts.get("n_range", list(_N_RANGE))
    if not isinstance(n_range, list) or len(n_range) != 2:
        raise ValueError(f"'n_range': expected [n_min, n_max], got {n_range!r}")
    n_range = tuple(parse_int(n, "'n_range'") for n in n_range)
    _validate_verifier_args(instances, n_range)
    mutation = opts.get("mutation")
    if mutation is not None and mutation not in MUTATIONS:
        raise ValueError(f"'mutation' {mutation!r} is not one of {list(MUTATIONS)}")
    return instances, n_range, mutation


def _dominance_options(scenario: Scenario, opts: dict) -> tuple:
    """No arguments, as the scan reads the scenario's params: checks that they are few enough."""
    _check_enumeration_limit(scenario.params.n)
    return ()


def _cascade_options(scenario: Scenario, opts: dict) -> tuple[list[int]]:
    """The deviation `order` of a cascade task, over the scenario's nodes."""
    order = opts.get("order")
    if not isinstance(order, list):
        raise ValueError("'order' must be an array of node indices")
    return (_validate_order([parse_int(node, "'order'") for node in order], scenario.params.n),)


def _contract_trace_options(scenario: Scenario, opts: dict) -> tuple[bool, dict]:
    """A contract_trace task's verdict and payload: its `events` log replayed and settled."""
    events = opts.get("events")
    if not isinstance(events, str):
        raise ValueError("'events' must be a path string")
    try:
        with open(scenario.base_dir / events, "r", encoding="utf-8") as fh:
            replay = replay_events(fh)
        summary = replay.summary()
    except FileNotFoundError:
        raise ValueError(f"events file not found: {events}") from None
    except (OSError, ValueError) as exc:
        raise ValueError(f"{events}: {exc}") from None
    return summary.conservation_holds(), {
        "events": events,
        "final_phase": replay.final_state.phase.value,
        "final_order": replay.final_state.order.value,
        "settlement": summary.to_payload(),
    }


def _chain_sim_options(opts: dict) -> tuple[int, bool]:
    """`runs` and `trace` of a chain_sim task."""
    runs = parse_int(opts.get("runs", 1), "'runs'", minimum=1)
    return runs, parse_bool(opts.get("trace", False), "'trace'")


def _sweep_options(opts: dict) -> tuple[list[tuple], int, int, Consensus]:
    """The cells (d_m, minion_share, confirmations, t) and run settings of a sweep."""
    grid = opts.get("grid")
    check_fields(grid, (), SWEEP_AXES, "'grid'")

    def axis(key: str, default: list, parse) -> list:
        values = grid.get(key, default)
        if not isinstance(values, list) or not values:
            raise ValueError(f"sweep grid axis '{key}' must be a non-empty array")
        return [parse(v, f"grid.{key}") for v in values]

    axes = (
        axis("d_m", ["9"], parse_rational),
        axis("minion_share", ["3/4"], parse_rational),
        axis("confirmations", [3], lambda v, field: parse_int(v, field, minimum=1)),
        axis("t", ["1/2"], parse_rational),
    )
    cap = parse_int(opts.get("max_cells", DEFAULT_SWEEP_CELL_CAP), "'max_cells'", minimum=1)
    size = math.prod(len(values) for values in axes)  # checked before any cell is built
    if size > cap:
        raise ValueError(f"sweep has {size} cells, exceeding the cap 'max_cells' = {cap}")
    cells = list(itertools.product(*axes))
    runs_per_cell = parse_int(opts.get("runs_per_cell", 100), "'runs_per_cell'", minimum=1)
    horizon = parse_int(opts.get("horizon_slots", 2000), "'horizon_slots'", minimum=1)
    consensus = parse_consensus(opts.get("consensus", Consensus.POW_LONGEST_CHAIN), "'consensus'")
    return cells, runs_per_cell, horizon, consensus


class TaskResult(NamedTuple):
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
    table = TASKS[task.kind].table
    if table is None:
        return _csv_text([["kind", "index", "passed"], [task.kind, task.index, task.passed]])
    return _csv_text(table(task.payload))


def _csv_text(rows: Iterable) -> str:
    buffer = io.StringIO()
    csv.writer(buffer).writerows(rows)
    return buffer.getvalue()


def _write(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def run_scenario(
    scenario: Scenario,
    output_dir: str | Path | None = None,
    seed: int | None = None,
) -> RunReport:
    """Execute the scenario's tasks in declared order and write artifacts.

    `seed` overrides the scenario seed, and `output_dir` (relative to the
    current directory) the scenario's own `output_dir` (relative to the
    scenario file). Task failures are results (reflected in the report and
    the exit code), not exceptions. Inputs were parsed by `with_tasks`; what
    still raises, before the first task, is a traced `chain_sim` task with
    no output directory, and after that only I/O.
    """
    seed = scenario.seed if seed is None else seed
    out = Path(output_dir) if output_dir is not None else (
        scenario.base_dir / scenario.output_dir if scenario.output_dir else None
    )
    for index, task in enumerate(scenario.tasks):
        if out is None and task.kind == "chain_sim" and task.args[1]:  # (runs, trace)
            raise ScenarioError(
                f"tasks[{index}] (chain_sim): 'trace' needs an output directory: the trace is "
                "written only as chain_trace_<i>.csv under --out (or the scenario's output_dir)"
            )
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    report = RunReport(scenario_name=scenario.name, seed=seed, tool_version=__version__)
    started = time.perf_counter()
    for index, task in enumerate(scenario.tasks):
        entry = TASKS[task.kind]
        result = TaskResult(task.kind, index, *entry.run(scenario, task, index, seed, out))
        if out is not None and entry.artifact:
            name = f"{task.kind}_{index}.csv"
            _write(out / name, table_csv(result))
            result = result._replace(artifacts=(*result.artifacts, name))
        report.tasks.append(result)
    report.wall_time_s = time.perf_counter() - started
    if out is not None:
        _write(out / "report.json", report_json(report))
    return report


def _run_verify(scenario: Scenario, task: TaskSpec, index: int, seed: int, out: Path | None):
    instances, n_range, mutation = task.args
    theorem = task.kind.removeprefix("verify_").upper()
    task_seed = derive_seed(seed, "task", index)
    verification = verify_theorem(theorem, task_seed, instances, n_range, mutation=mutation)
    return verification.all_passed, verification.to_payload()


def _run_dominance(scenario: Scenario, task: TaskSpec, index: int, seed: int, out: Path | None):
    dominance = check_weak_dominance_game1(scenario.params)
    return dominance.weakly_dominates, dominance.to_payload()


def _run_cascade(scenario: Scenario, task: TaskSpec, index: int, seed: int, out: Path | None):
    trace = find_deviation_cascade(scenario.params, *task.args)
    return trace.all_monotone, trace.to_payload()


def _run_deposit_bound(scenario: Scenario, task: TaskSpec, index: int, seed: int, out: Path | None):
    params = scenario.params
    bound = deposit_bound(params)
    payload = {
        "deposit_bound": format_rational(bound),
        "bound_is_exclusive": True,
        "bound_attained": deposit_bound_attained(params),
        "check_above_bound": verify_deposit_bound(params, bound + 1).to_payload(),
        "check_at_bound": verify_deposit_bound(params, bound).to_payload(),
    }
    return _check_t2(params) is None, payload


def _run_chain_sim(scenario: Scenario, task: TaskSpec, index: int, seed: int, out: Path | None):
    runs, trace = task.args
    first, payload = _seeded_runs(scenario.sim, seed, 0, runs, trace)
    payload["first_run"] = first.result.to_payload()
    if not trace:
        return None, payload
    name = f"chain_trace_{index}.csv"
    _write(out / name, _csv_text([TRACE_COLUMNS, *first.trace]))  # run_scenario checked that `out` is set
    return None, payload, (name,)


def _seeded_runs(config: SimConfig, seed: int, stream: int, runs: int, trace: bool = False):
    """The first of `runs` runs of `config` (traced if `trace`), and the runs'
    `runs`, `successes`, `success_rate` and `success_rate_decimal` fields.

    Runs draw from stream `stream` of the sim-run seed space: a chain_sim task
    is stream 0 and sweep cell c stream c, so a one-cell sweep reproduces it.
    Each run is `config` with its own seed for `rng_seed`; the config is not
    rebuilt per run, as the race takes the seeded generator beside it. One
    generator serves every run, reseeded through the C seed before each; a
    reseed replaces the whole state, so a run reads what a fresh
    `random.Random(run_seed)` would.
    """
    rng = random.Random(0)  # reseeded before each run
    reseed = super(random.Random, rng).seed  # the C seed that `Random.seed` hands an int to
    successes = 0
    for run_index, run_seed in zip(range(runs), derived_seeds(seed, "sim-run", stream)):
        reseed(run_seed)
        detail = _race(config, rng, trace and run_index == 0)
        if run_index == 0:
            first = detail
        successes += detail.result.success
    return first, {
        "runs": runs,
        "successes": successes,
        "success_rate": format_rational(Fraction(successes, runs)),
        "success_rate_decimal": f"{successes / runs:.6f}",
    }


def _run_sweep(scenario: Scenario, task: TaskSpec, index: int, seed: int, out: Path | None):
    """Parameter sweep over bribe pool, minion share, confirmations, threshold.

    Each cell synthesizes a 4-node network (two minions and two honest
    nodes splitting their sides evenly, so no single node reaches the
    threshold for any share in (0, 1)) with rewards r_h = 2, r_d = -1,
    r_dp = -3 and r_m = r_h + v_i * d_m, runs seeded attack simulations,
    and derives the bribed reward vector and deposit bound. Cells whose
    derived parameters violate an assumption are recorded as rejected rows.
    """
    cells, runs_per_cell, horizon, consensus = task.args
    rows: list[dict] = []
    for cell_index, (d_m, share, conf, t) in enumerate(cells):
        row: dict = {
            "cell": cell_index,
            "d_m": format_rational(d_m),
            "minion_share": format_rational(share),
            "confirmations": conf,
            "t": format_rational(t),
        }
        rows.append(row)
        if not 0 < share < 1:
            row.update(valid=False, violation=f"minion share {format_rational(share)} not in (0, 1)")
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
            continue
        config = SimConfig(
            powers=powers,
            minions=frozenset({0, 1}),
            consensus=consensus,
            confirmations=conf,
            horizon_slots=horizon,
            rng_seed=0,  # each run passes its own seed to the race
            threshold_t=t,
        )
        _, counts = _seeded_runs(config, seed, cell_index, runs_per_cell)
        row.update(
            valid=True,
            violation="",
            **counts,
            r_m_min=format_rational(min(candidate.reward_malicious)),
            r_m_max=format_rational(max(candidate.reward_malicious)),
            deposit_bound=format_rational(deposit_bound(candidate)),
        )

    return None, {"cells": len(cells), "runs_per_cell": runs_per_cell, "rows": rows}


def _cascade_table(result: dict):
    n = len(result["initial_payoffs"])
    yield ["step", "deviating_set", *[f"payoff_{i}" for i in range(n)], "monotone"]
    yield [0, "", *result["initial_payoffs"], True]
    for step in result["steps"]:
        deviating = ";".join(str(i) for i in step["deviating_set"])
        yield [step["step"], deviating, *step["payoffs"], step["deviator_monotone"]]


def _contract_trace_table(result: dict):
    settlement = result["settlement"]
    yield ["node", "kind", "amount"]
    for node, amount in settlement["payouts"].items():
        yield [node, "payout", amount]
    for node, amount in settlement["burned_deposits"].items():
        yield [node, "burned", amount]
    yield ["magnate", "residual", settlement["residual_to_magnate"]]


def _chain_sim_table(result: dict):
    columns = ("runs", "successes", "success_rate", "success_rate_decimal")
    return [columns, [result[column] for column in columns]]


def _sweep_table(result: dict):
    return [SWEEP_COLUMNS, *([row.get(column, "") for column in SWEEP_COLUMNS] for row in result["rows"])]


class TaskKind(NamedTuple):
    """All there is to one task kind, so that adding a kind is adding one `TASKS` entry."""

    options: tuple[str, ...]  # the option keys it accepts; any other is a load error
    needs: str | None  # the scenario section it reads, "params" or "sim", or None
    parse: Callable[[Scenario, dict], tuple]  # (scenario, options) -> the `TaskSpec.args` of its run
    run: Callable[..., tuple]  # (scenario, task, index, seed, out) -> passed, payload[, artifacts]
    table: Callable[[dict], Iterable] | None = None  # payload -> CSV rows; None: `kind,index,passed`
    artifact: bool = False  # write the table as `<kind>_<index>.csv` under the output directory


_VERIFY_OPTIONS = ("instances", "n_range", "mutation")
_SWEEP_OPTIONS = ("grid", "runs_per_cell", "horizon_slots", "consensus", "max_cells")
# Entries call the option parsers and `replay_events` by their module names, so
# a test that patches one of those names sees every call.
TASKS = {
    "verify_t1": TaskKind(_VERIFY_OPTIONS, None, lambda _, opts: _verify_options(opts, 1000), _run_verify),
    "verify_t3": TaskKind(_VERIFY_OPTIONS, None, lambda _, opts: _verify_options(opts, 500), _run_verify),
    "verify_t4": TaskKind(_VERIFY_OPTIONS, None, lambda _, opts: _verify_options(opts, 1000), _run_verify),
    "dominance": TaskKind((), "params", _dominance_options, _run_dominance),
    "cascade": TaskKind(("order",), "params", _cascade_options, _run_cascade, _cascade_table, artifact=True),
    "deposit_bound": TaskKind((), "params", lambda _, opts: (), _run_deposit_bound),
    "contract_trace": TaskKind(("events",), None, _contract_trace_options,
                               lambda scenario, task, *_: task.args, _contract_trace_table, artifact=True),
    "chain_sim": TaskKind(("runs", "trace"), "sim", lambda _, opts: _chain_sim_options(opts),
                          _run_chain_sim, _chain_sim_table),
    "sweep": TaskKind(_SWEEP_OPTIONS, None, lambda _, opts: _sweep_options(opts),
                      _run_sweep, _sweep_table, artifact=True),
}
TASK_OPTIONS = {kind: entry.options for kind, entry in TASKS.items()}
TASK_KINDS = tuple(TASKS)
TABLE_ARTIFACT_KINDS = tuple(kind for kind, entry in TASKS.items() if entry.artifact)
