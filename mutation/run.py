"""Mutation gate: check that the test suite can fail where it claims to.

Each entry of `mutation/mutants.json` names a file under `src/briberysim/`,
a text that occurs exactly once in it, its replacement, and what the suite
must do with the result:

    killed      the suite fails (or hangs past the time limit);
    equivalent  the suite passes, since the change cannot alter behaviour,
                for the reason the entry gives.

For each mutant, one at a time, the runner copies `src/`, `tests/`,
`scenarios/`, `tools/` (a test runs `bench_summary.py`), `pyproject.toml`
and `README.md` (a test checks its options table) to a temporary
directory, applies the one replacement there and runs
`python -m pytest -x -q -p no:cacheprovider tests`.
The unmutated copy is run first and must pass, so a broken suite cannot
pass for a killed mutant. Stdlib only:

    python mutation/run.py

Exit status: 0 if every mutant ends as declared, 1 if one does not (a
killed mutant survives, an equivalent one is killed, or the unmutated suite
fails), 2 if the list is malformed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = Path(__file__).resolve().parent / "mutants.json"
COPIED_DIRS = ("src", "tests", "scenarios", "tools")
COPIED_FILES = ("pyproject.toml", "README.md")
PYTEST = ("-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests")
TIMEOUT_S = 600  # a mutant still running after this long counts as killed
FIELDS = {"id", "file", "text", "replacement", "expect", "reason"}
EXPECTED = ("killed", "equivalent")


def load_mutants(path: Path = MUTANTS) -> list[dict]:
    """The mutant list, checked: every field present, ids unique, and each
    text found exactly once in its file under src/briberysim/."""
    mutants = json.loads(path.read_text(encoding="utf-8"))
    seen = set()
    for index, mutant in enumerate(mutants):
        if not isinstance(mutant, dict) or set(mutant) != FIELDS:
            raise ValueError(f"mutant {index}: expected exactly the fields {sorted(FIELDS)}")
        where = f"mutant {index} ({mutant['id']})"
        if mutant["id"] in seen:
            raise ValueError(f"{where}: repeated id")
        seen.add(mutant["id"])
        if mutant["expect"] not in EXPECTED:
            raise ValueError(f"{where}: expect must be one of {list(EXPECTED)}")
        if not mutant["file"].startswith("src/briberysim/"):
            raise ValueError(f"{where}: {mutant['file']} is not under src/briberysim/")
        source = (ROOT / mutant["file"]).read_text(encoding="utf-8")
        found = source.count(mutant["text"])
        if found != 1:
            raise ValueError(f"{where}: its text occurs {found} times in {mutant['file']}, not once")
        if mutant["replacement"] == mutant["text"]:
            raise ValueError(f"{where}: the replacement equals the text")
    return mutants


def run_suite(mutant: dict | None) -> tuple[bool, str]:
    """Run the suite on a fresh copy, mutated if a mutant is given: (passed, output tail)."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        work = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
        for name in COPIED_DIRS:
            shutil.copytree(ROOT / name, work / name, ignore=ignore)
        for name in COPIED_FILES:
            shutil.copy2(ROOT / name, work / name)
        if mutant is not None:
            target = work / mutant["file"]
            source = target.read_text(encoding="utf-8")
            target.write_text(source.replace(mutant["text"], mutant["replacement"]), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        try:
            done = subprocess.run(
                [sys.executable, *PYTEST], cwd=work, env=env, capture_output=True,
                text=True, timeout=TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return False, f"timed out after {TIMEOUT_S} s"
        tail = "\n".join((done.stdout + done.stderr).strip().splitlines()[-15:])
        return done.returncode == 0, tail


def main() -> int:
    try:
        mutants = load_mutants()
    except (OSError, ValueError) as exc:
        print(f"mutation/run.py: {exc}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    passed, tail = run_suite(None)
    label = "passes" if passed else "FAILS"
    print(f"{label:<10} {time.perf_counter() - start:6.1f}s  unmutated suite", flush=True)
    if not passed:
        print(tail)
        return 1
    wrong = []
    for mutant in mutants:
        start = time.perf_counter()
        passed, tail = run_suite(mutant)
        outcome = "equivalent" if passed else "killed"
        ok = outcome == mutant["expect"]
        label = outcome if ok else ("SURVIVED" if passed else "KILLED")
        print(f"{label:<10} {time.perf_counter() - start:6.1f}s  {mutant['id']}", flush=True)
        if not ok:
            print(tail)
            wrong.append(mutant["id"])
    print(f"{len(mutants) - len(wrong)} of {len(mutants)} mutants ended as declared")
    if wrong:
        print(f"not as declared: {', '.join(wrong)}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
