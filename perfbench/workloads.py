"""The four benchmark workloads: seeded inputs, one timed round, output checks.

Every workload object builds its inputs and its reference outputs in the
constructor (not timed), then `run_round(tracer)` does the workload's fixed
work once and checks every output. `probe(tracer)` makes the extra calls a
traced run needs to split a layer's time finer than the round does, and
`layer_metrics(self_times)` turns span self times and exact counters into
the per-layer metrics. Nothing here imports the repository's tests: the
generators are the benchmark's own.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import subprocess
import sys
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from briberysim import (
    Consensus,
    ContractError,
    Phase,
    SettlementOutcome,
    Strategy,
    Variant,
    all_commit,
    all_honest,
    check_weak_dominance_game1,
    is_strict_nash,
    load_scenario,
    payoff_vector,
    random_game_params,
    replay_events,
    run_attack,
    run_attack_detailed,
    run_scenario,
    settlement_summary,
    utility,
    verify_deposit_theorem,
    verify_theorem,
)
from briberysim.equilibrium import ENUMERATION_LIMIT, MUTATION_DEVIANT_REWARD_ABOVE_HONEST
from briberysim.scenario import report_json
from briberysim.seeding import derive_seed

# sha256 of the report.json that `briberysim verify scenarios/p3.json` writes
# at the commit that introduced this benchmark; a report byte change fails p3.
P3_REPORT_SHA256 = "48fa9dd37fc04b3d69e6fd2651afde6aa7554cddbcac692357a5c80ead232aca"

MAX_FAILURE_NOTES = 5


@dataclass
class RoundResult:
    ops: int = 0
    failed: int = 0
    busy_s: float | None = None   # time spent on the work units, when not the whole round
    notes: list[str] = field(default_factory=list)


def run_op(result: RoundResult, tracer, name: str, action) -> None:
    """Run one operation; it fails if it raises or its output check is False."""
    result.ops += 1
    with tracer.op(name):
        try:
            ok, detail = action(), "output check failed"
        except Exception as exc:  # any raise is a failed operation, not a crash
            ok, detail = False, f"raised {exc!r}"
    if not ok:
        result.failed += 1
        if len(result.notes) < MAX_FAILURE_NOTES:
            result.notes.append(f"{name}: {detail}")


def _per_call(self_times, name: str, scale: float, units_per_call: float = 1.0) -> float:
    calls, ns = self_times[name]
    return ns * scale / (calls * units_per_call)


# --- claims ----------------------------------------------------------------

CLAIM_INSTANCES = {"T1": 1000, "T2": 1000, "T3": 500, "T4": 1000}
MUTATION_INSTANCES = 100
N_RANGE = (3, 8)
PROBE_INSTANCES = 300


class Claims:
    """T1-T4 over random instances, a mutation slice, one n = 12 dominance scan."""

    unit = "instances"

    def __init__(self, seed: int, root: Path, out: Path):
        self.seeds = {th: derive_seed(seed, "claims", th) for th in CLAIM_INSTANCES}
        self.mutation_seed = derive_seed(seed, "claims", "mutation")
        self.dominance_params = random_game_params(
            random.Random(derive_seed(seed, "claims", "dominance")),
            (ENUMERATION_LIMIT, ENUMERATION_LIMIT),
        )
        sizes = {
            th: [self._instance(th, i).n for i in range(count)]
            for th, count in CLAIM_INSTANCES.items()
            if th != "T2"
        }
        n = self.dominance_params.n
        # T1/T4 instances are strict, so is_strict_nash flips every node (n + 1
        # profiles); in T3 all-honest breaks even at the first flip (2 profiles).
        self.counters = {
            "instances": sum(CLAIM_INSTANCES.values()),
            "profiles_checked": sum(k + 1 for k in sizes["T1"] + sizes["T4"])
            + 2 * len(sizes["T3"]),
            "t3_subsets": sum(2**k - 1 for k in sizes["T3"]),
            "dominance_profiles": n * 2 ** (n - 1),
        }
        self.work = self.counters["instances"]
        self.reject_instances: int | None = None
        self.probe_profiles = 0

    def _instance(self, theorem: str, index: int):
        rng = random.Random(derive_seed(self.seeds[theorem], "instance", index))
        return random_game_params(rng, N_RANGE)

    def run_round(self, tr) -> RoundResult:
        res = RoundResult(busy_s=0.0)
        for th, count in CLAIM_INSTANCES.items():
            if th == "T2":
                fn, args = verify_deposit_theorem, (self.seeds[th], count, N_RANGE)
                span = "equilibrium.verify_deposit_theorem"
            else:
                fn, args = verify_theorem, (th, self.seeds[th], count, N_RANGE)
                span = f"equilibrium.verify_theorem.{th}"

            def verify(span=span, fn=fn, args=args, count=count):
                report = tr.call(span, fn, *args)
                return report.all_passed and report.instances_tested == count

            started = perf_counter()
            run_op(res, tr, f"claims.{th}", verify)
            res.busy_s += perf_counter() - started

        def mutation():
            report = tr.call(
                "equilibrium.verify_theorem.mutation", verify_theorem, "T1", self.mutation_seed,
                MUTATION_INSTANCES, N_RANGE, mutation=MUTATION_DEVIANT_REWARD_ABOVE_HONEST,
            )
            if self.reject_instances is None:
                self.reject_instances = report.instances_tested
            return not report.all_passed and report.instances_tested == self.reject_instances

        def dominance():
            report = tr.call(
                "equilibrium.check_weak_dominance_game1", check_weak_dominance_game1,
                self.dominance_params,
            )
            n = self.dominance_params.n
            return (
                report.weakly_dominates
                and all(d.never_worse for d in report.per_node)
                and n * report.opponent_profiles_checked == self.counters["dominance_profiles"]
            )

        run_op(res, tr, "claims.mutation", mutation)
        run_op(res, tr, "claims.dominance", dominance)
        return res

    def probe(self, tr) -> RoundResult:
        """Generator, payoff and strict-Nash calls on the first T1 instances."""
        res = RoundResult()
        self.probe_profiles = 0
        for index in range(PROBE_INSTANCES):

            def instance(index=index):
                seed = tr.call("seeding.derive_seed", derive_seed, self.seeds["T1"], "instance", index)
                params = tr.call(
                    "equilibrium.random_game_params", random_game_params, random.Random(seed), N_RANGE
                )
                honest = all_honest(params.n, Variant.NO_COLLUSION)
                tr.call("games.payoff_vector", payoff_vector, params, honest)
                for node in range(params.n):
                    flipped = honest.with_choice(node, Strategy.MALICIOUS)
                    tr.call("games.utility", utility, params, flipped, node)
                strict = True
                for profile in (honest, all_commit(params.n)):
                    report = tr.call("equilibrium.is_strict_nash", is_strict_nash, params, profile)
                    self.probe_profiles += report.profiles_checked
                    strict = strict and report.is_strict_nash
                return strict

            run_op(res, tr, "claims.probe", instance)
        return res

    def layer_metrics(self, st) -> dict:
        t3 = CLAIM_INSTANCES["T3"]
        calls_t3, ns_t3 = st["equilibrium.verify_theorem.T3"]
        return {
            "equilibrium.random_game_params_us": _per_call(st, "equilibrium.random_game_params", 1e-3),
            "games.payoff_vector_us": _per_call(st, "games.payoff_vector", 1e-3),
            "games.utility_us": _per_call(st, "games.utility", 1e-3),
            "equilibrium.is_strict_nash_us": _per_call(st, "equilibrium.is_strict_nash", 1e-3),
            "equilibrium.profiles_checked": self.probe_profiles,
            "equilibrium.verify_t1_us": _per_call(
                st, "equilibrium.verify_theorem.T1", 1e-3, CLAIM_INSTANCES["T1"]),
            "equilibrium.verify_t2_us": _per_call(
                st, "equilibrium.verify_deposit_theorem", 1e-3, CLAIM_INSTANCES["T2"]),
            "equilibrium.verify_t3_us": _per_call(st, "equilibrium.verify_theorem.T3", 1e-3, t3),
            "equilibrium.verify_t4_us": _per_call(
                st, "equilibrium.verify_theorem.T4", 1e-3, CLAIM_INSTANCES["T4"]),
            "equilibrium.t3_subsets_scanned": self.counters["t3_subsets"],
            "equilibrium.t3_ns_per_subset": ns_t3 / (calls_t3 * self.counters["t3_subsets"]),
            "equilibrium.dominance_s_n12": _per_call(
                st, "equilibrium.check_weak_dominance_game1", 1e-9),
            "equilibrium.dominance_profiles": self.counters["dominance_profiles"],
            "equilibrium.reject_instances": self.reject_instances,
            "seeding.derive_seed_us": _per_call(st, "seeding.derive_seed", 1e-3),
        }


# --- race ------------------------------------------------------------------

# (slice, runs per round, changes to the p3 sim section); the p3 minions
# {0, 1} hold 3/4 of the power, node 2 alone holds 1/4.
LONG_RACE = {"minions": frozenset({2}), "confirmations": 6, "horizon_slots": 2500}
RACE_SLICES = (
    ("short", 300, {}),                                   # majority PoW, wins in ~10 slots
    ("long", 40, LONG_RACE),                              # minority PoW, runs out the horizon
    ("pos", 300, {"consensus": Consensus.POS_SLASHING}),  # majority PoS with slashing
    ("traced", 8, LONG_RACE),                             # block tree and per-slot trace kept
)


def race_reference(config) -> tuple[bool, int]:
    """Counter-only model of one fork race on the same random draws as chainsim.

    The payment lands at height 1, so its confirmations equal the honest
    height; the fork is rooted at genesis and wins once strictly longer
    (deposit-slashing also needs minion power above t and k endorsed slots).
    """
    rng = random.Random(config.rng_seed)
    bounds, acc = [], Fraction(0)
    for power in config.powers:
        acc += power
        bounds.append(float(acc))
    bounds[-1] = 1.0
    last = len(bounds) - 1
    k = config.confirmations
    pow_race = config.consensus is Consensus.POW_LONGEST_CHAIN
    finalizes = sum(config.powers[i] for i in config.minions) > config.threshold_t
    honest = fork = 0
    trigger = None
    for slot in range(config.horizon_slots):
        producer = min(bisect_right(bounds, rng.random()), last)
        if trigger is None:
            honest += 1
            if honest >= k:
                trigger = slot
            continue
        if producer in config.minions:
            fork += 1
        else:
            honest += 1
        if fork > honest and (pow_race or (finalizes and slot - trigger >= k)):
            return True, slot + 1
    return False, config.horizon_slots


def race_digest(pairs) -> str:
    text = ";".join(f"{int(success)},{slots}" for success, slots in pairs)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


class Race:
    """run_attack on the p3 network: short, long, PoS and traced runs."""

    unit = "slots"

    def __init__(self, seed: int, root: Path, out: Path):
        base = load_scenario(root / "scenarios" / "p3.json").sim_config(0)
        self.slices = []
        for name, runs, changes in RACE_SLICES:
            configs = [
                dataclasses.replace(base, rng_seed=derive_seed(seed, "race", name, i), **changes)
                for i in range(runs)
            ]
            span = f"chainsim.run_attack.{name}"
            if name == "traced":
                span = "chainsim.run_attack_detailed.traced"
            self.slices.append((name, span, configs, [race_reference(c) for c in configs]))
        self.reference = [pair for *_, pairs in self.slices for pair in pairs]
        self.reference_digest = race_digest(self.reference)
        self.counters = {
            "runs": len(self.reference),
            "slots": sum(slots for _, slots in self.reference),
            "successes": sum(success for success, _ in self.reference),
        }
        self.work = self.counters["slots"]

    def run_round(self, tr) -> RoundResult:
        res = RoundResult()
        observed = []
        for name, span, configs, reference in self.slices:
            for config, expected in zip(configs, reference):

                def race(name=name, span=span, config=config, expected=expected):
                    if name == "traced":
                        run = tr.call(span, run_attack_detailed, config, record_trace=True)
                        result = run.result
                        traced_ok = len(run.trace) == result.slots_elapsed
                    else:
                        result = tr.call(span, run_attack, config)
                        traced_ok = True
                    pair = (result.success, result.slots_elapsed)
                    observed.append(pair)
                    return traced_ok and pair == expected

                run_op(res, tr, f"race.{name}", race)
        run_op(res, tr, "race.digest", lambda: race_digest(observed) == self.reference_digest)
        return res

    def probe(self, tr) -> RoundResult:
        return RoundResult()

    def layer_metrics(self, st) -> dict:
        metrics = {}
        for name, span, _, reference in self.slices:
            if name == "short":
                metrics["chainsim.short_us_per_run"] = _per_call(st, span, 1e-3)
            else:
                slots_per_run = sum(slots for _, slots in reference) / len(reference)
                metrics[f"chainsim.{name}_us_per_slot"] = _per_call(st, span, 1e-3, slots_per_run)
        metrics["chainsim.slots_simulated"] = self.counters["slots"]
        metrics["chainsim.successes"] = self.counters["successes"]
        return metrics


# --- ledger ----------------------------------------------------------------

LEDGER_ACCEPTED = 400
LEDGER_REJECTED = 100
THRESHOLDS = (Fraction(1, 2), Fraction(11, 20), Fraction(3, 5), Fraction(2, 3), Fraction(3, 4))
FAULTS = (
    "double_commit",
    "commit_after_order",
    "distribute_before_oracle",
    "commit_after_expiration",
    "clock_regress",
    "double_distribute",
    "invalid_json",
)


def _event(**fields) -> str:
    return json.dumps(fields)


@dataclass(frozen=True)
class Lifecycle:
    """One contract event log and the settlement it must produce."""

    lines: tuple[str, ...]
    outcomes: tuple[tuple[int, SettlementOutcome], ...]
    payouts: dict
    burned: dict
    residual: Fraction
    ordered: bool
    minions: tuple[int, ...]
    outsiders: tuple[int, ...]
    expiration: int
    commits_end: int  # index of the first line after the last commit


def make_lifecycle(rng: random.Random) -> Lifecycle:
    """Commits up to the order (or short of it), one oracle report, settlements.

    Covers 2-6 nodes, clock advances, paid, refunded and burned settlements,
    and a premature settlement request that records nothing (PENDING).
    """
    n = rng.randint(2, 6)
    weights = [rng.randint(1, 20) for _ in range(n)]
    powers = [Fraction(w, sum(weights)) for w in weights]
    t = rng.choice(THRESHOLDS)
    expiration = rng.randint(10, 100)
    d_m = Fraction(rng.randint(1, 50))
    lines = [
        _event(event="init", expiration_time=expiration, magnate_deposit=str(d_m),
               malicious_protocol_id="double-spend", threshold_t=str(t),
               powers=[str(p) for p in powers])
    ]
    clock = 0
    deposits: dict[int, Fraction] = {}
    power = Fraction(0)
    order = rng.sample(range(n), n)
    for node in order[: rng.randint(1, n)]:
        if rng.random() < 0.3:
            clock = rng.randint(clock, expiration - 1)
            lines.append(_event(event="advance_clock", to=clock))
        deposit = Fraction(rng.randint(1, 40), rng.choice((1, 2, 4)))
        lines.append(_event(event="commit", node=node, deposit=str(deposit)))
        deposits[node] = deposit
        power += powers[node]
        if power > t:  # the order is issued; later commits would be rejected
            break
    ordered = power > t
    commits_end = len(lines)
    minions = tuple(deposits)
    success = ordered and rng.random() < 0.7
    executed = {i: ("malicious" if ordered and rng.random() < 0.8 else "honest") for i in minions}
    lines.append(_event(event="oracle_report", attack_successful=success,
                        executed_protocol={str(i): p for i, p in executed.items()}))

    def outcome(i):
        if ordered and executed[i] == "honest":
            return SettlementOutcome.BURNED
        if success and executed[i] == "malicious":
            return SettlementOutcome.PAID
        if not success and clock > expiration:
            return SettlementOutcome.REFUNDED
        return SettlementOutcome.PENDING

    outcomes = []
    early = [i for i in minions if outcome(i) is SettlementOutcome.PENDING]
    if early and rng.random() < 0.5:
        lines.append(_event(event="distribute", node=early[0]))
        outcomes.append((early[0], SettlementOutcome.PENDING))
    # refunds need the clock past expiration; paid and burned settle at any time
    clock = rng.randint(clock if success else expiration + 1, expiration + 20)
    lines.append(_event(event="advance_clock", to=clock))
    payouts, burned = {}, {}
    for i in rng.sample(minions, len(minions)):
        lines.append(_event(event="distribute", node=i))
        result = outcome(i)
        outcomes.append((i, result))
        if result is SettlementOutcome.PAID:
            payouts[i] = powers[i] * d_m + deposits[i]
        elif result is SettlementOutcome.REFUNDED:
            payouts[i] = deposits[i]
        else:
            burned[i] = deposits[i]
    paid_power = sum((powers[i] for i, o in outcomes if o is SettlementOutcome.PAID), Fraction(0))
    return Lifecycle(
        lines=tuple(lines),
        outcomes=tuple(outcomes),
        payouts=payouts,
        burned=burned,
        residual=d_m * (1 - paid_power),
        ordered=ordered,
        minions=minions,
        outsiders=tuple(i for i in range(n) if i not in deposits),
        expiration=expiration,
        commits_end=commits_end,
    )


def make_rejected(rng: random.Random, fault: str) -> tuple[tuple[str, ...], int]:
    """A log that must be rejected, and the 1-based line number of its fault."""
    while True:
        life = make_lifecycle(rng)
        if fault == "commit_after_order" and not (life.ordered and life.outsiders):
            continue
        if fault == "commit_after_expiration" and life.ordered:
            continue
        break
    lines = list(life.lines)
    end = life.commits_end
    if fault == "double_commit":
        at = next(i for i, line in enumerate(lines) if '"commit"' in line)
        inserted = [lines[at]]
        at += 1
    elif fault == "commit_after_order":
        at, inserted = end, [_event(event="commit", node=life.outsiders[0], deposit="1")]
    elif fault == "distribute_before_oracle":
        at, inserted = end, [_event(event="distribute", node=life.minions[0])]
    elif fault == "commit_after_expiration":
        at = end
        inserted = [_event(event="advance_clock", to=life.expiration),
                    _event(event="commit", node=life.outsiders[0], deposit="1")]
    elif fault == "clock_regress":
        at, inserted = rng.randint(1, len(lines)), [_event(event="advance_clock", to=-1)]
    elif fault == "double_distribute":
        at, inserted = len(lines), [lines[-1]]
    else:  # invalid_json
        at, inserted = rng.randint(1, len(lines)), ['{"event": "commit", "node": ']
    lines[at:at] = inserted
    return tuple(lines), at + len(inserted)


class Ledger:
    """Replay of seed-generated contract logs, accepted and rejected."""

    unit = "events"

    def __init__(self, seed: int, root: Path, out: Path):
        rng = random.Random(derive_seed(seed, "ledger"))
        self.accepted = [make_lifecycle(rng) for _ in range(LEDGER_ACCEPTED)]
        self.rejected = [make_rejected(rng, FAULTS[i % len(FAULTS)]) for i in range(LEDGER_REJECTED)]
        accepted_events = sum(len(life.lines) for life in self.accepted)
        self.counters = {
            "logs": LEDGER_ACCEPTED + LEDGER_REJECTED,
            "logs_rejected": LEDGER_REJECTED,
            "events_replayed": accepted_events + sum(at for _, at in self.rejected),
        }
        self.work = self.counters["events_replayed"]

    def run_round(self, tr) -> RoundResult:
        res = RoundResult()
        for life in self.accepted:

            def accepted(life=life):
                replay = tr.call("contract.replay_events", replay_events, life.lines)
                summary = tr.call("contract.settlement_summary", settlement_summary, replay.final_state)
                return (
                    replay.outcomes == life.outcomes
                    and replay.final_state.phase is Phase.SETTLED
                    and summary.payouts == life.payouts
                    and summary.burned_deposits == life.burned
                    and summary.residual_to_magnate == life.residual
                    and summary.conservation_holds()
                )

            run_op(res, tr, "ledger.accepted", accepted)
        for lines, _ in self.rejected:

            def rejected(lines=lines):
                try:
                    tr.call("contract.replay_events.rejected", replay_events, lines)
                except (ContractError, ValueError):
                    return True
                return False

            run_op(res, tr, "ledger.rejected", rejected)
        return res

    def probe(self, tr) -> RoundResult:
        return RoundResult()

    def layer_metrics(self, st) -> dict:
        calls, accepted_ns = st["contract.replay_events"]
        _, rejected_ns = st["contract.replay_events.rejected"]
        rounds = calls / LEDGER_ACCEPTED
        return {
            "contract.replay_us_per_event": (accepted_ns + rejected_ns) * 1e-3
            / (rounds * self.counters["events_replayed"]),
            "contract.settlement_summary_us": _per_call(st, "contract.settlement_summary", 1e-3),
            "contract.events_replayed": self.counters["events_replayed"],
            "contract.logs_rejected": self.counters["logs_rejected"],
        }


# --- p3 --------------------------------------------------------------------

ARTIFACT_TASKS = ("cascade", "contract_trace")  # tasks whose only real cost is writing a CSV


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class P3:
    """scenarios/p3.json end to end: load, run with an output directory, serialize.

    The scenario runs under its own seed so that its report can be compared
    byte for byte with the pinned digest; the workload seed changes nothing.
    """

    unit = "tasks"

    def __init__(self, seed: int, root: Path, out: Path, expected_sha256: str = P3_REPORT_SHA256):
        self.root = root
        self.path = root / "scenarios" / "p3.json"
        self.out = out
        self.expected_sha256 = expected_sha256
        self.counters = {"tasks": len(load_scenario(self.path).tasks)}
        self.work = self.counters["tasks"]

    def run_round(self, tr) -> RoundResult:
        res = RoundResult()
        out = self.out / "p3"

        def scenario_run():
            scenario = tr.call("scenario.load_scenario", load_scenario, self.path)
            report = tr.call("scenario.run_scenario", run_scenario, scenario, out)
            text = tr.call("scenario.report_json", report_json, report)
            written = (out / "report.json").read_bytes()
            return (
                report.all_passed
                and sha256_hex(text.encode("utf-8")) == self.expected_sha256
                and sha256_hex(written) == self.expected_sha256
            )

        run_op(res, tr, "p3.scenario", scenario_run)
        return res

    def probe(self, tr) -> RoundResult:
        """Each task alone, as the cli subcommands run it; artifacts; the cli process."""
        res = RoundResult()
        scenario = load_scenario(self.path)
        for task in scenario.tasks:

            def single(task=task):
                copy = dataclasses.replace(scenario, tasks=(task,))
                report = tr.call(f"scenario.task.{task.kind}", run_scenario, copy, self.out / "task")
                return report.all_passed

            run_op(res, tr, f"p3.task.{task.kind}", single)

        def artifacts():
            copy = dataclasses.replace(
                scenario, tasks=tuple(t for t in scenario.tasks if t.kind in ARTIFACT_TASKS)
            )
            report = tr.call("scenario.artifacts", run_scenario, copy, self.out / "artifacts")
            names = [name for task in report.tasks for name in task.artifacts]
            return len(names) == len(ARTIFACT_TASKS) and all(
                (self.out / "artifacts" / name).is_file() for name in names
            )

        def cli():
            out = self.out / "cli"
            command = [sys.executable, "-m", "briberysim.cli", "verify", "scenarios/p3.json",
                       "--out", str(out)]
            env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
            done = tr.call("cli.verify_process", subprocess.run, command, cwd=self.root, env=env,
                           capture_output=True, timeout=120)
            return done.returncode == 0 and (
                sha256_hex((out / "report.json").read_bytes()) == self.expected_sha256
            )

        run_op(res, tr, "p3.artifacts", artifacts)
        run_op(res, tr, "p3.cli", cli)
        return res

    def layer_metrics(self, st) -> dict:
        metrics = {
            "scenario.load_scenario_ms": _per_call(st, "scenario.load_scenario", 1e-6),
            "scenario.report_json_ms": _per_call(st, "scenario.report_json", 1e-6),
            "scenario.artifacts_ms": _per_call(st, "scenario.artifacts", 1e-6),
            "cli.verify_process_s": _per_call(st, "cli.verify_process", 1e-9),
        }
        for name in sorted(st):
            if name.startswith("scenario.task."):
                kind = name.removeprefix("scenario.task.")
                metrics[f"scenario.task_s.{kind}"] = _per_call(st, name, 1e-9)
        return metrics


WORKLOADS = {"claims": Claims, "race": Race, "ledger": Ledger, "p3": P3}
