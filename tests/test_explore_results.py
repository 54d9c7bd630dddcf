"""Pins the results of `explore`: the number of distinct states, the terminal
counts and the deadlock cycles for every runnable corpus program, and for the
two ill-typed programs that run when linked without the checker.

States are deduplicated by their digest, so these numbers hold any digest
scheme to the same partition of states. Regenerate the data file only when a
change to the step rules or the scheduler is intended:

    PYTHONPATH=src python tests/test_explore_results.py
"""

from __future__ import annotations

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from reglock.interp import explore  # noqa: E402
from reglock.parser import parse_program  # noqa: E402
from reglock.typecheck import check_program, link_bodies  # noqa: E402
from conftest import RUNNABLE, corpus_text  # noqa: E402

DATA = pathlib.Path(__file__).resolve().parent / "data" / "explore_results.json"
UNCHECKED = ["deadlock_forced.rgn", "race_unlocked.rgn"]


def explore_result(name: str) -> dict:
    program = parse_program(corpus_text(name))
    if name in UNCHECKED:
        main_expr = link_bodies(program)
    else:
        main_expr = check_program(program).typed.linked_main()
    report = explore(main_expr, force=True)
    return {"states": report.states,
            "terminals": dict(sorted(report.terminals.items())),
            "deadlock_cycles": report.deadlock_cycles}


def test_explore_results_are_pinned():
    pinned = json.loads(DATA.read_text())
    assert sorted(pinned) == sorted(RUNNABLE + UNCHECKED)
    for name in RUNNABLE + UNCHECKED:
        assert explore_result(name) == pinned[name], name


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    rows = [f" {json.dumps(name)}: {json.dumps(explore_result(name))}"
            for name in RUNNABLE + UNCHECKED]
    DATA.write_text("{\n" + ",\n".join(rows) + "\n}\n")
