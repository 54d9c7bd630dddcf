"""The machine against the substituting oracle in `subst_machine.py`.

Both run the same program under the same seed, each linked its own way:
the machine's `main` closes over the definitions (`link_bodies`), the
oracle's has them substituted (`subst_machine.link`).  After every step
they must agree on the thread that stepped, its rule, the state digest and
each thread's printed read-back; at the end, on the terminal and the store.
`explore` must reach the same states, terminals and deadlock cycles.  The
oracle imports nothing from `reglock.interp`.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

import subst_machine
from reglock.interp import config_digest, explore, run_seeded
from reglock.parser import parse_program, pretty
from reglock.syntax import expr_digest, read_back
from reglock.typecheck import check_program, link_bodies
from conftest import (CORPUS, COMPUTED_HANDLE, DEAD_HANDLE, INLINED_PURITY, POLY_CELL, RUNNABLE,
                      SHADOWED_SPAWN, SPLIT_THEN_WHOLE, TWICE, corpus_text, lock_tree,
                      paired_long_seq)

FIXTURES = {"shadowed_spawn": SHADOWED_SPAWN, "dead_handle": DEAD_HANDLE,
            "inlined_purity": INLINED_PURITY, "split_then_whole": SPLIT_THEN_WHOLE,
            "twice": TWICE, "poly_cell": POLY_CELL, "computed_handle": COMPUTED_HANDLE,
            **{f"lock_tree_{d}": lock_tree(d) for d in (2, 3, 4)},
            "long_seq_30": paired_long_seq(30)}


def mains_of(name: str):
    """The machine's `main`, linked by binding, and the oracle's, linked by
    substitution: the two machines share no linking code."""
    text = FIXTURES.get(name) or corpus_text(name)
    result = check_program(parse_program(text))
    assert result.ok, [d.render() for d in result.diagnostics]
    return link_bodies(result.typed.program), subst_machine.link(result.typed.program)


def assert_same_run(mains, seed: int) -> None:
    main, oracle_main = mains
    oracle_steps: list[tuple] = []
    oracle = subst_machine.run_seeded(oracle_main, seed, each=lambda c: oracle_steps.append((
        subst_machine.config_digest(c), [(t.tid, pretty(t.expr)) for t in c.threads])))
    trace = run_seeded(main, seed, record=lambda c: {"digest": config_digest(c), "threads": [
        (t.tid, pretty(read_back(t.expr))) for t in c.threads]})
    ours = [(s.tid, s.rule, s.record["digest"], s.record["threads"]) for s in trace.steps]
    theirs = [(s.tid, s.rule, *d) for s, d in zip(oracle.steps, oracle_steps)]
    for i, (a, b) in enumerate(zip(ours, theirs)):
        assert a == b, f"seed {seed}, step {i}"
    assert len(ours) == len(theirs)
    assert (trace.terminal.kind, trace.terminal.detail) == (oracle.terminal.kind,
                                                           oracle.terminal.detail)
    assert trace.config.store.to_json(pretty) == oracle.config.store.to_json(pretty)


@pytest.mark.parametrize("name", RUNNABLE)
def test_corpus_runs_agree(name):
    mains = mains_of(name)
    for seed in range(20):
        assert_same_run(mains, seed)


@pytest.mark.parametrize("name", list(FIXTURES))
def test_fixture_runs_agree(name):
    mains = mains_of(name)
    for seed in range(5):
        assert_same_run(mains, seed)


@pytest.mark.parametrize("name", RUNNABLE + ["lock_tree_2", "computed_handle"])
def test_explore_agrees(name):
    main, oracle_main = mains_of(name)
    ours, theirs = explore(main, force=True), subst_machine.explore(oracle_main)
    assert (ours.states, ours.terminals, ours.deadlock_cycles, ours.budget_hits) == (
        theirs.states, theirs.terminals, theirs.deadlock_cycles, theirs.budget_hits)
    assert ours.stuck_reports == theirs.stuck_reports


@pytest.mark.parametrize("name", sorted(p.name for p in CORPUS.glob("*.rgn")) + list(FIXTURES))
def test_linking_by_binding_reads_back_as_substitution(name):
    """`link_bodies` closes `main` over the definitions, and it stands for
    the oracle's `link`, which substitutes them, on every program here,
    well-typed or not."""
    program = parse_program(FIXTURES.get(name) or corpus_text(name))
    bound, substituted = link_bodies(program), subst_machine.link(program)
    assert read_back(bound) == substituted
    assert expr_digest(bound) == expr_digest(substituted)


def test_the_oracle_imports_nothing_from_the_machine():
    tree = ast.parse(pathlib.Path(subst_machine.__file__).read_text())
    imported = [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    imported += [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for alias in node.names]
    assert "reglock.parser" in imported
    assert not [name for name in imported if name.startswith("reglock.interp")]
