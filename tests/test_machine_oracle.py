"""The machine against the substituting oracle in `subst_machine.py`.

Both run the same program under the same seed.  After every step they must
agree on the thread that stepped, its rule and the state digest; at the end,
on the terminal and the store.  `explore` must reach the same states,
terminals and deadlock cycles.
"""

from __future__ import annotations

import pytest

import subst_machine
from reglock.interp import config_digest, explore, run_seeded
from reglock.parser import parse_program, pretty
from reglock.typecheck import check_program, link_bodies
from conftest import (COMPUTED_HANDLE, DEAD_HANDLE, INLINED_PURITY, POLY_CELL, RUNNABLE,
                      SHADOWED_SPAWN, SPLIT_THEN_WHOLE, TWICE, corpus_text, lock_tree,
                      paired_long_seq)

FIXTURES = {"shadowed_spawn": SHADOWED_SPAWN, "dead_handle": DEAD_HANDLE,
            "inlined_purity": INLINED_PURITY, "split_then_whole": SPLIT_THEN_WHOLE,
            "twice": TWICE, "poly_cell": POLY_CELL, "computed_handle": COMPUTED_HANDLE,
            **{f"lock_tree_{d}": lock_tree(d) for d in (2, 3, 4)},
            "long_seq_30": paired_long_seq(30)}


def main_of(name: str):
    text = FIXTURES.get(name) or corpus_text(name)
    result = check_program(parse_program(text))
    assert result.ok, [d.render() for d in result.diagnostics]
    return link_bodies(result.typed.program)


def assert_same_run(main, seed: int) -> None:
    oracle_steps: list[tuple] = []
    oracle = subst_machine.run_seeded(main, seed, each=lambda c: oracle_steps.append(
        subst_machine.config_digest(c)))
    trace = run_seeded(main, seed, record=lambda c: {"digest": config_digest(c)})
    ours = [(s.tid, s.rule, s.record["digest"]) for s in trace.steps]
    theirs = [(s.tid, s.rule, d) for s, d in zip(oracle.steps, oracle_steps)]
    for i, (a, b) in enumerate(zip(ours, theirs)):
        assert a == b, f"seed {seed}, step {i}"
    assert len(ours) == len(theirs)
    assert (trace.terminal.kind, trace.terminal.detail) == (oracle.terminal.kind,
                                                           oracle.terminal.detail)
    assert trace.config.store.to_json(pretty) == oracle.config.store.to_json(pretty)


@pytest.mark.parametrize("name", RUNNABLE)
def test_corpus_runs_agree(name):
    main = main_of(name)
    for seed in range(20):
        assert_same_run(main, seed)


@pytest.mark.parametrize("name", list(FIXTURES))
def test_fixture_runs_agree(name):
    main = main_of(name)
    for seed in range(5):
        assert_same_run(main, seed)


@pytest.mark.parametrize("name", RUNNABLE + ["lock_tree_2", "computed_handle"])
def test_explore_agrees(name):
    main = main_of(name)
    ours, theirs = explore(main, force=True), subst_machine.explore(main)
    assert (ours.states, ours.terminals, ours.deadlock_cycles, ours.budget_hits) == (
        theirs.states, theirs.terminals, theirs.deadlock_cycles, theirs.budget_hits)
    assert ours.stuck_reports == theirs.stuck_reports
