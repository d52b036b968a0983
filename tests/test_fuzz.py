"""Fuzz the scenario loader, the task runner and the event-log replay.

Each example changes one field of the P3 scenario (its tasks swapped for
cheap ones) or one line of the P3 contract event log and runs `verify` on
it with a fresh output directory. Whatever the input, the exit code is 0,
1 or 2, no exception escapes, and the exit code is 1 exactly when some task
reports `passed: false`. Exit 2 leaves the output directory absent or
empty: inputs are parsed, and the event log replayed, before any task runs.
"""

import contextlib
import copy
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from briberysim.cli import main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
EVENT_LINES = [
    json.loads(line)
    for line in (SCENARIOS / "p3_contract_events.jsonl").read_text(encoding="utf-8").splitlines()
]

# the cascade task writes an artifact before the contract_trace task runs
CHEAP_TASKS = [
    {"kind": "verify_t1", "instances": 3, "mutation": None},
    {"kind": "verify_t3", "instances": 3},
    {"kind": "verify_t4", "instances": 3},
    {"kind": "dominance"},
    {"kind": "cascade", "order": [2, 1, 0]},
    {"kind": "deposit_bound"},
    {"kind": "contract_trace", "events": "events.jsonl"},
    {"kind": "chain_sim", "runs": 2},
    {"kind": "sweep", "grid": {"minion_share": ["1/4", "3/4"]}, "runs_per_cell": 2, "horizon_slots": 50},
]
SCENARIO = dict(json.loads((SCENARIOS / "p3.json").read_text(encoding="utf-8")), tasks=CHEAP_TASKS)

DELETE = object()

# small numbers only, so that no mutated count makes an example slow
VALUES = st.one_of(
    st.just(DELETE),
    st.none(),
    st.booleans(),
    st.integers(min_value=-2, max_value=12),
    st.text(max_size=3),
    st.sampled_from(
        ["1/2", "3/4", "-1", "1/0", "honest", "malicious", "deviant_reward_above_honest"]
    ),
    st.lists(st.integers(min_value=-1, max_value=9), max_size=3),
    st.dictionaries(st.sampled_from(["0", "1", "x"]), st.sampled_from(["honest", "malicious", 1])),
)


def paths(node, prefix=()):
    """Every place in a JSON document, plus one new key in each object."""
    yield prefix
    if isinstance(node, dict):
        yield prefix + ("extra",)
        children = node.items()
    else:
        children = enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from paths(child, prefix + (key,))


def mutated(doc, path, value):
    if not path:
        return {} if value is DELETE else value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        if path[-1] != "extra":
            del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def run_cli(argv) -> tuple[int, str]:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, stdout.getvalue()


def assert_exit_contract(code: int, stdout: str, out: Path) -> None:
    assert code in (0, 1, 2)
    if code == 2:
        assert not out.exists() or not any(out.iterdir())
    else:
        failed = any(task["passed"] is False for task in json.loads(stdout)["tasks"])
        assert (code == 1) == failed


def verify_keeps_exit_contract(directory: Path, scenario: dict) -> None:
    path = directory / "scenario.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    out = Path(tempfile.mkdtemp(dir=directory)) / "out"
    try:
        code, stdout = run_cli(["verify", str(path), "--out", str(out), "--format", "json"])
        assert_exit_contract(code, stdout, out)
    finally:
        shutil.rmtree(out.parent)


def write_events(directory: Path, events) -> None:
    text = "".join(json.dumps(event) + "\n" for event in events)
    (directory / "events.jsonl").write_text(text, encoding="utf-8")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")



@settings(max_examples=300)
@given(path=st.sampled_from(list(paths(SCENARIO))), value=VALUES)
@example(path=("tasks", 0, "mutation"), value="deviant_reward_above_honest")  # exit 1
def test_mutated_scenario_keeps_exit_contract(workdir, path, value):
    write_events(workdir, EVENT_LINES)
    verify_keeps_exit_contract(workdir, mutated(SCENARIO, path, value))


@settings(max_examples=150)
@given(data=st.data(), index=st.integers(min_value=0, max_value=len(EVENT_LINES) - 1))
def test_mutated_event_line_keeps_exit_contract(workdir, data, index):
    path = data.draw(st.sampled_from(list(paths(EVENT_LINES[index]))))
    events = list(EVENT_LINES)
    events[index] = mutated(EVENT_LINES[index], path, data.draw(VALUES))
    write_events(workdir, events)
    verify_keeps_exit_contract(workdir, SCENARIO)
