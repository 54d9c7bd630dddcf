from __future__ import annotations

import json
from collections import Counter

import pytest

from reglock import effects, interp, meta, syntax
from reglock.cli import main as cli_main
from reglock.interp import initial_config, run_seeded
from reglock.meta import (
    Harness,
    check_not_stuck,
    check_store_consistency,
    check_store_typing,
    check_thread_typing,
)
from reglock.interp import BlockedOn, Stepped, Stuck, Thread
from reglock.parser import parse_expr, parse_program
from reglock.store import Counts, RegionNode, Store, changes, initial_store
from reglock.syntax import (
    BOTTOM,
    EMPTY_EFFECT,
    HEAP,
    INT,
    UNIT,
    UNIT_VALUE,
    Capability,
    CapOp,
    Closure,
    Const,
    Deref,
    Effect,
    Env,
    FnType,
    Location,
    LocVal,
    RegionLit,
    RegionVar,
    RgnVal,
    Seq,
    Var,
    close,
    free_names,
    read_back,
)
from reglock.typecheck import _EMPTY_ENV, Checker, CheckFailure, check_program, type_eq
from conftest import (
    ALIASED_ANNOTATION,
    COMPUTED_HANDLE,
    CORPUS,
    DEAD_HANDLE,
    INLINED_PURITY,
    LITERAL_BODY,
    POLY_CELL,
    RUNNABLE,
    SHADOWED_DEFINITION,
    SHADOWED_SPAWN,
    SPLIT_THEN_WHOLE,
    TWICE,
    corpus_text,
    lock_tree,
    paired_long_seq,
    rebuild,
)

A = RegionLit("a")


def typed(name: str):
    result = check_program(parse_program(corpus_text(name)))
    assert result.ok
    return result.typed


def node(rid, threads, heap=(), children=()):
    return RegionNode(rid, tuple(sorted(threads.items())), tuple(heap), tuple(children))


def heap_effect(rg=1, lk=0, pure=True) -> Effect:
    return Effect.of((HEAP, Capability(rg, lk, pure), BOTTOM))


def checker(regions=frozenset({HEAP}), locations=None) -> Checker:
    """A checker over R and M as the harness makes it, with no memo."""
    return Checker(regions, locations, lenient=True)


class TestThreadTyping:
    def test_initial_configuration_is_well_typed(self):
        t = typed("basic_region.rgn")
        config = initial_config(t.linked_main())
        harness = Harness(t)
        assert harness.observe_init(config) == []

    def test_effect_naming_missing_region_is_flagged(self):
        store = initial_store(HEAP, 1)
        delta = {1: Effect([(HEAP, Capability(1, 0), BOTTOM),
                            (A, Capability(1, 0, pure=False), HEAP)])}
        violations = check_store_consistency(store, delta)
        assert any("absent from the store" in v.message for v in violations)

    def test_empty_thread_list_is_fine(self):
        assert check_thread_typing(checker(), [], {}, {}) == []

    def test_ill_formed_effect_assignment_is_flagged(self):
        # A's parent is missing from the effect; the checker is never asked.
        threads = [Thread(1, Const(UNIT_VALUE))]
        delta = {1: Effect.of((A, Capability(1, 0), HEAP))}
        out = check_thread_typing(checker(frozenset({HEAP, A})), threads, delta, delta)
        assert [(v.check, v.thread) for v in out] == [("thread-typing", 1)]
        assert "ill-formed" in out[0].message

    def test_non_unit_thread_is_flagged(self):
        threads = [Thread(1, Const(5))]
        out = check_thread_typing(checker(), threads, {1: EMPTY_EFFECT}, {1: EMPTY_EFFECT})
        assert any("not unit" in v.message for v in out)


class TestStoreConsistency:
    def test_static_lock_without_dynamic_lock(self):
        store = Store(node(HEAP, {1: Counts(1, 0)}))
        delta = {1: heap_effect(1, 1)}  # claims a lock the store denies
        out = check_store_consistency(store, delta)
        assert any("dynamically has" in v.message for v in out)

    def test_two_static_lock_holders(self):
        store = Store(node(HEAP, {1: Counts(1, 1), 2: Counts(1, 1)}))
        delta = {1: heap_effect(1, 1), 2: heap_effect(1, 1)}
        out = check_store_consistency(store, delta)
        assert any("both hold a static lock" in v.message for v in out)

    def test_lock_inside_held_subtree(self):
        child = node(A, {2: Counts(1, 1)})
        store = Store(node(HEAP, {1: Counts(1, 1)}, children=(child,)))
        delta = {1: heap_effect(1, 1),
                 2: Effect.of((A, Capability(1, 1, pure=False), HEAP))}
        out = check_store_consistency(store, delta)
        assert any("subtree" in v.message for v in out)

    @pytest.mark.parametrize("held_outer", [True, False])
    def test_new_lock_over_or_under_a_held_lock(self, held_outer):
        # One thread holds a lock; the other newly locks below or above it,
        # past a lock rule that should have made it wait.  Checked against
        # the first configuration, the walk up or down from the new lock
        # finds the held one.
        heap = {1: Counts(1, 1) if held_outer else Counts(1, 0)}
        child = {2: Counts(1, 0) if held_outer else Counts(1, 1)}
        before = Store(node(HEAP, heap, children=(node(A, child),)))
        delta = {1: heap_effect(1, heap[1].lk),
                 2: Effect.of((A, Capability(1, child[2].lk, pure=False), HEAP))}
        assert check_store_consistency(before, delta) == []
        tid, region = (2, A) if held_outer else (1, HEAP)
        path = before.path_to(region)
        after = before._rebuild(path, path[-1].with_counts(tid, Counts(1, 1)))
        locked = {**delta, tid: Effect.of(*((r, Capability(c.rg, 1, c.pure), p)
                                            for r, c, p in delta[tid].items()))}
        out = check_store_consistency(after, locked, changes(before, after), delta)
        assert [v.message for v in out] == [
            "thread 2 holds a lock inside #H's subtree, which thread 1 has locked"]
        assert out == check_store_consistency(after, locked)

    def test_example_sharing_accounting_is_consistent(self):
        # Two threads each statically hold half of a shared region.
        shared = node(A, {1: Counts(1, 0), 2: Counts(1, 0)})
        store = Store(node(HEAP, {1: Counts(1, 0)}, children=(shared,)))
        delta = {
            1: Effect([(HEAP, Capability(1, 0), BOTTOM),
                       (A, Capability(1, 0, pure=False), HEAP)]),
            2: Effect.of((A, Capability(1, 0, pure=False), HEAP)),
        }
        # thread 2's effect references A rooted at HEAP without holding the
        # heap itself: region consistency only needs the names to exist.
        assert check_store_consistency(store, delta) == []


class TestStoreTyping:
    def test_location_missing_from_m(self):
        store, loc = initial_store(HEAP, 1).alloc(HEAP, 1, Const(3))
        out = check_store_typing(checker(), store)
        assert any("missing from the domain of M" in v.message for v in out)

    def test_region_set_mismatch(self):
        # A store region must be in R; a freed region stays in R, so R may
        # be larger than the store.
        store = Store(node(HEAP, {1: Counts(1, 0)}, children=(node(A, {1: Counts(1, 0)}),)))
        out = check_store_typing(checker(), store)
        assert [v.check for v in out] == ["store-typing"]
        assert "missing from R" in out[0].message
        assert check_store_typing(checker(frozenset({HEAP, A})), initial_store(HEAP, 1)) == []

    def test_open_stored_value_flagged(self):
        # Re-typing under the empty environment rejects the free variable.
        store, loc = initial_store(HEAP, 1).alloc(HEAP, 1, Var("x"))
        out = check_store_typing(checker(locations={loc: INT}), store)
        assert [v.check for v in out] == ["store-typing"]
        assert "UnboundVariable" in out[0].message

    def test_int_cell_ok(self):
        store, loc = initial_store(HEAP, 1).alloc(HEAP, 1, Const(3))
        out = check_store_typing(checker(locations={loc: INT}), store)
        assert out == []

    def test_stored_pure_function_value(self):
        # A closed lambda with empty declared effects types in the store;
        # the oracle is the checker itself.
        lam = parse_expr("\\x: int @ [{} -> {}]. x + 1")
        store, loc = initial_store(HEAP, 1).alloc(HEAP, 1, lam)
        want = FnType(INT, EMPTY_EFFECT, EMPTY_EFFECT, INT)
        assert check_store_typing(checker(locations={loc: want}), store) == []

    def test_failing_stored_closure_is_worded_on_its_read_back(self):
        # Renamed back, `free h` fails on the variable rho; the diagnostic
        # is that of the read-back, which names the literal.
        body = parse_expr("\\u: unit @ [{} -> {}]. free h")
        value = Closure(body, Env({RegionVar("rho"): A, "h": RgnVal(A)}))
        store, loc = initial_store(HEAP, 1).alloc(HEAP, 1, value)
        out = check_store_typing(checker(frozenset({HEAP, A}), {loc: UNIT}), store)
        assert [v.check for v in out] == ["store-typing"]
        assert "#a" in out[0].message and "rho" not in out[0].message, out[0].message

    def test_wrong_cell_type_flagged(self):
        store, loc = initial_store(HEAP, 1).alloc(HEAP, 1, Const(True))
        out = check_store_typing(checker(locations={loc: INT}), store)
        assert any("has type bool" in v.message for v in out)


class TestNotStuck:
    def test_all_good(self):
        outcomes = {1: BlockedOn(1, A, frozenset({2})), 2: BlockedOn(2, A, frozenset({1}))}
        assert check_not_stuck(outcomes) == []

    def test_wait_on_terminated_holder_flagged(self):
        outcomes = {1: BlockedOn(1, A, frozenset({9}))}
        out = check_not_stuck(outcomes)
        assert any("terminated" in v.message for v in out)


class TestPreservationOverRuns:
    @pytest.mark.parametrize("name", RUNNABLE)
    def test_runs_report_zero_violations(self, name):
        t = typed(name)
        main = t.linked_main()
        for seed in (0, 1, 2):
            harness = Harness(t)
            trace = run_seeded(main, seed=seed, harness=harness)
            assert trace.terminal.kind in ("all_done", "deadlock"), \
                f"{name} seed {seed}: {trace.terminal}"

    @pytest.mark.parametrize("source, seed", [
        pytest.param(INLINED_PURITY, 0, id="if-branches"),
        *(pytest.param(SPLIT_THEN_WHOLE, seed, id=f"whole-spawn-{seed}")
          for seed in range(4)),
    ])
    def test_purity_lost_by_inlining_is_no_violation(self, source, seed, tmp_path,
                                                     capsys):
        path = tmp_path / "inlined_purity.rgn"
        path.write_text(source)
        assert cli_main(["run", str(path), "--seed", str(seed), "--metatheory"]) == 0
        assert capsys.readouterr().out.endswith("metatheory: 0 violations\n")

    def test_body_that_names_its_bound_literal(self, tmp_path, capsys):
        path = tmp_path / "literal_body.rgn"
        path.write_text(LITERAL_BODY)
        for seed in range(3):
            assert cli_main(["run", str(path), "--seed", str(seed), "--metatheory"]) == 0
            assert capsys.readouterr().out.endswith("metatheory: 0 violations\n")

    @pytest.mark.xfail(strict=True, reason="open soundness gap, ROADMAP item 17")
    def test_aliased_instance_is_rejected_or_runs_clean(self, tmp_path, capsys):
        """The checker accepts `ALIASED_ANNOTATION`, and the harnessed run and
        `explore` exit 6 on an annotation that cannot merge.  A fix either
        rejects the program or runs and explores it clean."""
        path = tmp_path / "aliased_annotation.rgn"
        path.write_text(ALIASED_ANNOTATION)
        if cli_main(["check", str(path)]) == 1:
            return
        assert cli_main(["run", str(path), "--seed", "0", "--metatheory"]) == 0
        assert capsys.readouterr().out.endswith("metatheory: 0 violations\n")
        assert cli_main(["explore", str(path)]) == 0

    def test_fault_injection_is_caught_mid_run(self, store_differential):
        # Drop a dynamic lock count behind the harness's back: static-dynamic
        # consistency must flag it on the next step, as the full check does.
        t = typed("basic_region.rgn")
        main = t.linked_main()
        harness = Harness(t)
        from reglock import interp as interp_mod

        config = initial_config(main)
        assert harness.observe_init(config) == []
        tampered = False
        violations_found = None
        for _ in range(200):
            if not config.threads:
                break
            outcomes = {th.tid: interp_mod.step_thread(config, th.tid)
                        for th in config.threads}
            tid = min(t_ for t_, o in outcomes.items()
                      if not isinstance(o, (BlockedOn, Stuck)))
            outcome = outcomes[tid]
            if outcome.rule == "E-NG" and not tampered:
                # zero out the creating thread's lock count on the new region
                store = outcome.config.store
                path = store.path_to(outcome.info[1])
                store = store._rebuild(path, path[-1].with_counts(1, Counts(1, 0)))
                outcome = rebuild(outcome, config=rebuild(outcome.config, store=store))
                tampered = True
            config = outcome.config
            violations = harness.after_step(tid, outcome, outcomes)
            if violations:
                violations_found = violations
                break
        assert tampered and violations_found
        assert any(v.check == "store-consistency" for v in violations_found)
        assert store_differential["compared"] and not store_differential["disagreements"]


def count_checks(monkeypatch) -> dict[str, int]:
    """Counts, from now on, the nodes that checkers with a memo type in
    full (`_check` calls) and the memo hits under a non-empty environment
    (a `check` that returns without entering `_check` for its node)."""
    real_check, real_inner = Checker.check, Checker._check
    counts = {"typed": 0, "open_hits": 0}

    def inner(self, e, env, eff):
        if self.memo is not None:
            counts["typed"] += 1
        return real_inner(self, e, env, eff)

    def check(self, e, env, eff):
        before = counts["typed"]
        result = real_check(self, e, env, eff)
        if (self.memo is not None and (env.vars or env.region_vars)
                and counts["typed"] == before):
            counts["open_hits"] += 1
        return result

    monkeypatch.setattr(Checker, "_check", inner)
    monkeypatch.setattr(Checker, "check", check)
    return counts


def nodes_typed_per_step(text: str, seed: int, monkeypatch) -> float:
    result = check_program(parse_program(text))
    main = result.typed.linked_main()
    counts = count_checks(monkeypatch)
    trace = run_seeded(main, seed=seed, harness=Harness(result.typed))
    assert trace.terminal.kind == "all_done" and trace.steps
    return counts["typed"] / len(trace.steps)


def test_harness_types_few_nodes_per_step(monkeypatch):
    """Timer-free shape guard: a step types its control against the
    judgement of the frames it fills, and a body that a step enters, with
    the frames in it, is typed with its bound literals renamed back to
    their variables, and so comes from the memo as the typing around it
    stored it; a step of lock_tree(4) types about 3.97 nodes in full (4.2
    when a renamed lookup served only the entered body and its frames, 7.6
    when each step re-typed its thread from the root, 17.8 when E-A, E-RP
    and E-NG substituted and only closed subterms were served, 40.7 when
    only subterms under an empty environment were)."""
    assert nodes_typed_per_step(lock_tree(4), 1, monkeypatch) <= 5


def test_harness_types_few_nodes_per_step_of_a_long_sequence(monkeypatch):
    """The same guard on one long thread: a step of paired_long_seq(60)
    types about 0.8 nodes in full (1.8 when each step re-typed its thread
    from the root)."""
    assert nodes_typed_per_step(paired_long_seq(60), 0, monkeypatch) <= 1


def typing_of(check):
    """`check()`'s (type, effect), or None where it fails."""
    try:
        return check()
    except CheckFailure:
        return None


class Differential(Harness):
    """Compares every typing that the run's checker makes through
    `check_bound` (a control, a frame's operand, a closed value's closure:
    renamed, substituted or from the memo) with a fresh memo-less typing of
    the closure's read-back; and, after every step, types each live
    thread's read-back with the run's checker, through its memo, and with a
    fresh memo-less checker.  Records any disagreement."""

    def __init__(self, typed):
        super().__init__(typed)
        self.compared = self.bound_compared = 0
        self.disagreements: list[str] = []

    def _check(self, config, out, only=None):
        if "check_bound" not in vars(self.checker):
            self.checker.check_bound = self._compare_bound(self.checker.check_bound)
        return super()._check(config, out, only)

    def _compare_bound(self, real):
        def check_bound(body, bindings, eff):
            fresh = checker(self.checker.regions, self.checker.locations)
            want = typing_of(lambda: fresh.check(fresh.read_back(close(body, bindings)),
                                                 _EMPTY_ENV, eff))
            try:
                got = real(body, bindings, eff)
            except CheckFailure:
                if want is not None:
                    self.disagreements.append(f"check_bound fails at {body.loc}")
                raise
            # Effect equality compares counts, parents and purity.
            if want is None or not (type_eq(got[0], want[0]) and got[1] == want[1]):
                self.disagreements.append(f"check_bound at {body.loc}: {got}, "
                                          f"its read-back: {want}")
            self.bound_compared += 1
            return got
        return check_bound

    def after_step(self, tid, outcome, outcomes):
        violations = super().after_step(tid, outcome, outcomes)
        for thread in outcome.config.threads:
            eff, term = self.delta[thread.tid], read_back(thread.expr)
            t_memo, out_memo = self.checker.check(term, _EMPTY_ENV, eff)
            t_fresh, out_fresh = checker(self.checker.regions, self.checker.locations).check(
                term, _EMPTY_ENV, eff)
            # Effect equality compares counts, parents and purity.
            if not (type_eq(t_memo, t_fresh) and out_memo == out_fresh):
                self.disagreements.append(f"after thread {tid}'s {outcome.rule}, "
                                          f"thread {thread.tid}")
            self.compared += 1
        return violations


#: Generated programs and their schedule seeds (long_seq has one thread).
GENERATED = {"long_seq_30": (paired_long_seq(30), [0]),
             "lock_tree_3": (lock_tree(3), range(3)),
             "shadowed_spawn": (SHADOWED_SPAWN, range(3)),
             "computed_handle": (COMPUTED_HANDLE, range(10)),
             "literal_body": (LITERAL_BODY, [0]),
             "shadowed_definition": (SHADOWED_DEFINITION, [0])}


@pytest.mark.parametrize("name", RUNNABLE + list(GENERATED))
def test_memoised_retyping_agrees_with_a_fresh_checker(name, monkeypatch):
    text, seeds = GENERATED.get(name) or (corpus_text(name), range(10))
    result = check_program(parse_program(text))
    assert result.ok, result.diagnostics
    main = result.typed.linked_main()
    counts = count_checks(monkeypatch)
    for seed in seeds:
        harness = Differential(result.typed)
        trace = run_seeded(main, seed=seed, harness=harness)
        assert trace.terminal.kind in ("all_done", "deadlock"), trace.terminal
        assert harness.compared and harness.bound_compared and not harness.disagreements
    if name == "lock_tree_3":
        # The workers inlined into `work` are closed values under its binders.
        assert counts["open_hits"] > 0


def test_only_unrenamable_bodies_are_typed_substituted(monkeypatch):
    """Timer-free: the harness types a body with its region bindings
    substituted only where renaming the bound literals back to their
    variables is not a bijection.  Over the runnable corpus and
    lock_tree(2..4) at seeds 0..4 and paired_long_seq(30), that is only
    the aliased `swap[rho][rho]` of the two alias_swap programs; LITERAL_BODY
    enters a body that names its bound literal."""
    counts, current = Counter(), [None]
    real = Checker._substituted

    def substituted(self, *args):
        counts[current[0]] += 1
        return real(self, *args)

    monkeypatch.setattr(Checker, "_substituted", substituted)
    programs = [*((name, corpus_text(name), range(5)) for name in RUNNABLE),
                *((f"lock_tree_{depth}", lock_tree(depth), range(5)) for depth in (2, 3, 4)),
                ("long_seq_30", paired_long_seq(30), [0]), ("literal_body", LITERAL_BODY, [0])]
    for name, text, seeds in programs:
        current[0] = name
        result = check_program(parse_program(text))
        for seed in seeds:
            trace = run_seeded(result.typed.linked_main(), seed, harness=Harness(result.typed))
            assert trace.terminal.kind in ("all_done", "deadlock"), (name, seed)
    assert set(counts) == {"alias_swap_locked.rgn", "alias_swap_reentrant.rgn", "literal_body"}


class FrameCheck(Harness):
    """Has every thread check also re-type the thread's read-back in full,
    with no memo, and records each check where the two verdicts differ."""

    def __init__(self, typed):
        super().__init__(typed)
        self.checks, self.disagreements = 0, []

    def _check_thread(self, thread):
        verdict = super()._check_thread(thread)
        full = check_thread_typing(checker(self.checker.regions, self.checker.locations),
                                   [thread], self.delta, self.obligations)
        if [v.to_json() for v in verdict] != [v.to_json() for v in full]:
            self.disagreements.append((thread.tid, verdict, full))
        self.checks += 1
        return verdict


#: The `conftest` fixtures, at seeds 0..2.  INLINED_PURITY's inlined calls
#: drop the frames that restore purity (ROADMAP item 5), so 6 of its 54
#: checks fall back to the full re-typing.
FIXTURES = {"shadowed_spawn": SHADOWED_SPAWN, "computed_handle": COMPUTED_HANDLE,
            "dead_handle": DEAD_HANDLE, "inlined_purity": INLINED_PURITY,
            "split_then_whole": SPLIT_THEN_WHOLE, "literal_body": LITERAL_BODY,
            "shadowed_definition": SHADOWED_DEFINITION, "twice": TWICE,
            "poly_cell": POLY_CELL}


@pytest.mark.parametrize("text, seeds, share", [
    *(pytest.param(corpus_text(name), range(10), 0.05, id=name) for name in RUNNABLE),
    *(pytest.param(lock_tree(depth), range(5), 0.05, id=f"lock_tree_{depth}")
      for depth in (2, 3, 4)),
    pytest.param(paired_long_seq(30), [0], 0.05, id="long_seq_30"),
    *(pytest.param(text, range(3), 0.12 if name == "inlined_purity" else 0.05, id=name)
      for name, text in FIXTURES.items()),
])
def test_frame_check_agrees_with_full_retyping(text, seeds, share, monkeypatch):
    """After every step, the harness's check by frames gives the verdict of
    the full re-typing of the thread's read-back, and decides all but
    `share` of the checks itself, without falling back to that re-typing.
    And every body that `Checker.check_bound` types has bindings that bind
    each of its free term names and region variables: a control, a frame's
    operand or a closed value's closure.  The full re-typing types the
    thread's read-back, which holds no closure, so it never meets the
    closures that `push` leaves open in the binders around them."""
    fallbacks, unbound = [], []
    real = Checker.check_bound

    def fallback(*args, **kwargs):
        fallbacks.append(args[1])
        return check_thread_typing(*args, **kwargs)

    def check_bound(self, body, bindings, eff):
        terms, regions = free_names(body)
        if not bindings.keys() >= terms | regions:
            unbound.append(body)
        return real(self, body, bindings, eff)

    monkeypatch.setattr(meta, "check_thread_typing", fallback)
    monkeypatch.setattr(Checker, "check_bound", check_bound)
    result = check_program(parse_program(text))
    assert result.ok, result.diagnostics
    main = result.typed.linked_main()
    checks = 0
    for seed in seeds:
        harness = FrameCheck(result.typed)
        trace = run_seeded(main, seed=seed, harness=harness)
        assert trace.terminal.kind in ("all_done", "deadlock"), trace.terminal
        assert not harness.disagreements
        checks += harness.checks
    assert checks and len(fallbacks) <= share * checks
    assert not unbound


class CountingMemo(dict):
    def __init__(self):
        super().__init__()
        self.clears = 0

    def clear(self):
        self.clears += 1
        super().clear()


class Monotone(Harness):
    """Checks after every step that R is the heap and every region the run
    has allocated, and that M covers every location it has allocated, freed
    or not."""

    def __init__(self, typed):
        super().__init__(typed)
        self.memo = CountingMemo()
        self.steps = 0

    def after_step(self, tid, outcome, outcomes):
        violations = super().after_step(tid, outcome, outcomes)
        after = outcome.config
        assert self.checker.regions == {HEAP} | {RegionLit(f"r{i}")
                                                 for i in range(1, after.next_region)}
        assert {loc.idx for loc in self.checker.locations} == set(range(1, after.next_loc))
        self.steps += 1
        return violations


@pytest.mark.parametrize("name", RUNNABLE)
def test_contexts_only_grow(name):
    t = typed(name)
    main = t.linked_main()
    for seed in range(10):
        harness = Monotone(t)
        trace = run_seeded(main, seed=seed, harness=harness)
        assert trace.terminal.kind in ("all_done", "deadlock"), trace.terminal
        assert harness.steps
        # Cleared once, when the run starts, and never after.
        assert harness.memo.clears == 1


@pytest.fixture
def store_differential(monkeypatch) -> dict:
    """Has every store check of a harness also run in full, with no
    previous store, and records each call where the two disagree.  They
    are compared as multisets: the incremental check may report a step's
    locks inside locked subtrees in another order."""
    record = {"compared": 0, "disagreements": []}
    real_consistency, real_typing = meta.check_store_consistency, meta.check_store_typing

    def compare(got: list, full: list) -> list:
        record["compared"] += 1
        if Counter(map(repr, got)) != Counter(map(repr, full)):
            record["disagreements"].append((got, full))
        return got

    def consistency(store, delta, changed=None, delta_before=None):
        return compare(real_consistency(store, delta, changed, delta_before),
                       real_consistency(store, delta))

    def typing(checker, store, changed=None):
        return compare(real_typing(checker, store, changed), real_typing(checker, store))

    monkeypatch.setattr(meta, "check_store_consistency", consistency)
    monkeypatch.setattr(meta, "check_store_typing", typing)
    return record


@pytest.mark.parametrize("text, seeds", [
    *(pytest.param(corpus_text(name), range(10), id=name) for name in RUNNABLE),
    *(pytest.param(lock_tree(depth), range(5), id=f"lock_tree_{depth}")
      for depth in (2, 3, 4)),
])
def test_incremental_store_checks_agree_with_full_ones(text, seeds, store_differential):
    """After every step, the store checks of what the step changed report
    what the full checks of the whole store report."""
    result = check_program(parse_program(text))
    main = result.typed.linked_main()
    for seed in seeds:
        trace = run_seeded(main, seed=seed, harness=Harness(result.typed))
        assert trace.terminal.kind in ("all_done", "deadlock"), trace.terminal
    assert store_differential["compared"] and not store_differential["disagreements"]


def siblings(k: int) -> str:
    """Main allocates `k` sibling regions under the heap, then locks and
    unlocks the last of them three times."""
    ids = range(1, k + 1)
    return ("def main = /\\rhoH. \\heap: rgn(rhoH) @ [{rhoH^(1,0)@_} -> {rhoH^(1,0)@_}].\n"
            + "".join(f"  newrgn r{i}, h{i} at heap in\n" for i in ids)
            + "  (" + "; ".join(f"unlock h{i}" for i in ids) + ";\n   "
            + "; ".join([f"lock h{k}; unlock h{k}"] * 3) + ";\n   "
            + "; ".join(f"free h{i}" for i in reversed(ids)) + ")\n")


def lock_step_visits(k: int, monkeypatch) -> list[int]:
    """The region nodes that the store checks visit at each lock and
    unlock step of `siblings(k)`: the nodes the store diff returns (made
    once per configuration, for both checks), those that a walk of a
    subtree yields, and the whole store for each lookup that searches it."""
    visits = [0]
    inside = [False]
    real_regions, real_path_to, real_changes = Store.regions, Store.path_to, meta.changes

    def regions(self):
        for n in real_regions(self):
            visits[0] += inside[0]
            yield n

    def path_to(self, rid):
        visits[0] += inside[0] * sum(1 for _ in real_regions(self))
        return real_path_to(self, rid)

    def changes(old, new):
        found, gone = real_changes(old, new)
        visits[0] += len(found)
        return found, gone

    def counted(check):
        def run(*args, **kwargs):
            inside[0] = True
            try:
                return check(*args, **kwargs)
            finally:
                inside[0] = False
        return run

    monkeypatch.setattr(Store, "regions", regions)
    monkeypatch.setattr(Store, "path_to", path_to)
    monkeypatch.setattr(meta, "changes", changes)
    for name in ("check_store_consistency", "check_store_typing"):
        monkeypatch.setattr(meta, name, counted(getattr(meta, name)))
    out: list[int] = []

    class Visits(Harness):
        def after_step(self, tid, outcome, outcomes):
            visits[0] = 0
            violations = super().after_step(tid, outcome, outcomes)
            if outcome.rule == "E-C" and outcome.info[0] in (CapOp.LK_PLUS, CapOp.LK_MINUS):
                out.append(visits[0])
            return violations

    result = check_program(parse_program(siblings(k)))
    assert result.ok, result.diagnostics
    trace = run_seeded(result.typed.linked_main(), seed=0, harness=Visits(result.typed))
    assert trace.terminal.kind == "all_done"
    monkeypatch.undo()
    return out


def test_store_checks_visit_what_the_step_changed(monkeypatch):
    """Timer-free shape guard: a lock or unlock of one of K sibling regions
    has the store checks visit as many region nodes for K = 2 as for
    K = 12: the heap and the region, from the one store diff that both
    checks read, and for a lock the region's subtree (2 and 3 nodes; 4 and
    5 when each check made the diff).  The heap's other children are only
    compared by identity.  When each check walked the whole store, an
    unlock visited 9 nodes and a lock 13 at K = 2, and 39 and 53 at K = 12."""
    few, many = lock_step_visits(2, monkeypatch), lock_step_visits(12, monkeypatch)
    assert len(few) == 2 + 6 and len(many) == 12 + 6  # the first unlocks, then the loop
    assert few[-6:] == many[-6:]


def test_each_algebra_body_runs_once_per_operands(monkeypatch):
    """Timer-free: in a harnessed run of lock_tree(4), seed 1, the capability
    algebra and region substitution run their uncached bodies at most once
    per distinct operands, an effect or a type as the first one (interned,
    so by identity, and kept alive here) and the others by value; each call
    of the checker and each renaming of run-time bindings
    (`Checker.check_bound`) finds the rest."""
    runs, held = Counter(), []

    def operand(x):
        return x.items() if type(x) is Effect else tuple(x.items()) if type(x) is dict else x

    def counting(name, body):
        def run(first, *rest):
            held.append(first)
            runs[(name, id(first), *map(operand, rest))] += 1
            return body(first, *rest)
        return run

    for name in ("_fragments", "_subtract", "_join", "_apply_cap_op"):
        monkeypatch.setattr(effects, name, counting(name, getattr(effects, name)))
    for kind, body in list(syntax._SUBSTITUTED.items()):
        monkeypatch.setitem(syntax._SUBSTITUTED, kind, counting(kind.__name__, body))
    result = check_program(parse_program(lock_tree(4)))
    trace = run_seeded(result.typed.linked_main(), seed=1, harness=Harness(result.typed))
    assert trace.terminal.kind == "all_done"
    made = Counter(name for name, *_ in runs)
    assert {"_subtract", "_join", "_apply_cap_op", "FnType", "Effect"} <= made.keys(), made
    assert max(runs.values()) == 1


def test_a_bounded_memo_gives_the_same_runs(monkeypatch):
    """Clearing the harness memo past a size is exact, as the memo holds
    successes only: with the bound at 8 entries, the runnable corpus at
    seeds 0..4 gives the same trace digests as unbounded, and no
    violation."""
    def digests():
        out = []
        for name in RUNNABLE:
            typed_program = typed(name)
            main = typed_program.linked_main()
            for seed in range(5):
                trace = run_seeded(main, seed, harness=Harness(typed_program))
                assert trace.terminal.kind in ("all_done", "deadlock"), (name, seed)
                out.append(trace.digest())
        return out

    clears = []
    real_clear = dict.clear

    class Memo(dict):
        def clear(self):
            clears.append(len(self))
            real_clear(self)

    unbounded = digests()
    monkeypatch.setattr(meta, "MEMO_BOUND", 8)
    real_init = Harness.__init__

    def init(self, typed_program):
        real_init(self, typed_program)
        self.memo = Memo()

    monkeypatch.setattr(Harness, "__init__", init)
    assert digests() == unbounded
    assert sum(n > 8 for n in clears) > 100


class TestFaultInjection:
    """A broken rule of the machine ends a harnessed run in a violation."""

    @pytest.fixture(autouse=True)
    def differential(self, store_differential):
        """Each run also compares the store checks with the full ones, at
        every step up to the one where the fault shows."""
        yield
        assert store_differential["compared"] and not store_differential["disagreements"]

    def run_json(self, capsys, name: str, seed: int):
        code = cli_main(["run", str(CORPUS / name), "--seed", str(seed),
                         "--metatheory", "--trace", "json"])
        payload = json.loads(capsys.readouterr().out.splitlines()[0])
        assert code == 4 and payload["terminal"]["kind"] == "violation"
        return payload

    def test_violation_in_the_initial_state(self, capsys, monkeypatch):
        # Main starts without its heap capability: the initial check fails,
        # and the run must end in a violation at step 0, not an internal error.
        real = Harness.observe_init

        def no_heap(self, config):
            self.main_in = EMPTY_EFFECT
            return real(self, config)

        monkeypatch.setattr(Harness, "observe_init", no_heap)
        payload = self.run_json(capsys, "sharing_once.rgn", 0)
        terminal = payload["terminal"]
        assert payload["steps"] == [] and terminal["step"] == 0
        assert terminal["trace_prefix"] == []
        assert any(v["check"] == "thread-typing" and v["thread"] == 1
                   for v in terminal["violations"])

    def ignore(self, monkeypatch, op: CapOp) -> None:
        real = Store.updcap
        monkeypatch.setattr(Store, "updcap", lambda self, o, rid, tid: self
                            if o is op else real(self, o, rid, tid))

    def test_store_rule_that_drops_a_lock(self, capsys, monkeypatch):
        self.ignore(monkeypatch, CapOp.LK_PLUS)
        payload = self.run_json(capsys, "sharing_once.rgn", 0)
        checks = {v["check"] for v in payload["terminal"]["violations"]}
        assert checks == {"store-consistency"}

    def test_store_rule_that_keeps_a_lock(self, capsys, monkeypatch):
        # More dynamic counts than static ones: consistency wants them equal.
        self.ignore(monkeypatch, CapOp.LK_MINUS)
        for seed in range(3):
            violations = self.run_json(capsys, "sharing_once.rgn", seed)[
                "terminal"]["violations"]
            assert {v["check"] for v in violations} == {"store-consistency"}
            assert any("statically holds (2,0) of #r1 but dynamically has (2,1)"
                       in v["message"] for v in violations)

    def test_store_rule_that_changes_a_region_the_step_does_not_name(self, capsys,
                                                                      monkeypatch):
        # Every capability step also adds a region count for the stepping
        # thread on the parent of the region it names.  Neither the payload
        # nor delta names the parent: only the store diff shows it changed.
        real = Store.updcap

        def also_parent(self, op, rid, tid):
            out = real(self, op, rid, tid)
            path = out.path_to(rid) if isinstance(out, Store) else None
            if path is None or len(path) < 2:
                return out
            mine = path[-2].counts_for(tid)
            return out._rebuild(path[:-1], path[-2].with_counts(tid, Counts(mine.rg + 1, mine.lk)))

        monkeypatch.setattr(Store, "updcap", also_parent)
        for seed in range(3):
            violations = self.run_json(capsys, "sharing_once.rgn", seed)[
                "terminal"]["violations"]
            assert {v["check"] for v in violations} == {"store-consistency"}
            assert any("statically holds (1,0) of #H but dynamically has (2,0)"
                       in v["message"] for v in violations)

    def test_store_rule_that_writes_a_cell(self, capsys, monkeypatch):
        # Every capability step also overwrites the first cell of the store
        # with a location that M lacks.  No payload names the cell: only the
        # store diff shows it changed.
        real = Store.updcap
        stray = LocVal(Location(99, HEAP))

        def scribble(self, op, rid, tid):
            out = real(self, op, rid, tid)
            full = next((n for n in out.regions() if n.heap), None) \
                if isinstance(out, Store) else None
            if full is None:
                return out
            return out._rebuild(out.path_to(full.rid), full.heap_set(full.heap[0][0], stray))

        monkeypatch.setattr(Store, "updcap", scribble)
        for seed in range(3):
            payload = self.run_json(capsys, "sharing_once.rgn", seed)
            assert {v["check"] for v in payload["terminal"]["violations"]} == {"store-typing"}
            self.assert_violation(payload, "store-typing", "stored value at")

    def test_lock_rule_that_ignores_other_holders(self, capsys, monkeypatch, tmp_path):
        # A lock never waits, so the worker that locks #r2 may do so inside
        # #r1 while the other worker holds it: the walk above #r2 finds it.
        monkeypatch.setattr(Store, "_lock_blockers", staticmethod(lambda path, tid: frozenset()))
        path = tmp_path / "lock_tree_2.rgn"
        path.write_text(lock_tree(2))
        caught = 0
        for seed in range(10):
            code = cli_main(["run", str(path), "--seed", str(seed), "--metatheory",
                             "--trace", "json"])
            payload = json.loads(capsys.readouterr().out.splitlines()[0])
            if code == 0:
                continue
            assert code == 4 and payload["terminal"]["kind"] == "violation"
            violations = payload["terminal"]["violations"]
            assert [v["check"] for v in violations] == ["store-consistency"]
            assert "holds a lock inside #r1's subtree" in violations[0]["message"]
            caught += 1
        assert caught

    def rewrite(self, monkeypatch, rule: str, change) -> None:
        """Every step by `rule` becomes `change(outcome, tid)`."""
        real = interp.step_thread

        def rewritten(config, tid, *polled):
            out = real(config, tid, *polled)
            return change(out, tid) if isinstance(out, Stepped) and out.rule == rule else out

        monkeypatch.setattr(interp, "step_thread", rewritten)

    def assert_violation(self, payload, check: str, message: str) -> None:
        assert any(v["check"] == check and v["message"].startswith(message)
                   for v in payload["terminal"]["violations"]), payload["terminal"]

    def test_spawn_that_moves_more_than_the_spawner_holds(self, capsys, monkeypatch):
        # Every E-SN payload transfers double counts, more than the static
        # effect of `migration_once`'s spawner holds.
        def doubled(out, tid):
            child, moved = out.info
            moved = Effect((r, Capability(2 * c.rg, 2 * c.lk, c.pure), p)
                           for r, c, p in moved.items())
            return Stepped(out.config, out.rule, (child, moved))

        self.rewrite(monkeypatch, "E-SN", doubled)
        payload = self.run_json(capsys, "migration_once.rgn", 0)
        self.assert_violation(payload, "thread-typing", "spawn transfer not covered statically")

    def test_allocation_of_a_value_that_does_not_type(self, capsys, monkeypatch):
        # Every E-NR payload stores a location that M does not hold.
        stray = LocVal(Location(99, HEAP))
        self.rewrite(monkeypatch, "E-NR",
                     lambda out, tid: Stepped(out.config, out.rule, (out.info[0], stray)))
        payload = self.run_json(capsys, "sharing_once.rgn", 0)
        self.assert_violation(payload, "store-typing", "allocated value fails to type")

    def test_capability_step_on_a_region_outside_delta(self, capsys, monkeypatch):
        # Every E-C payload names a region that no thread's effect holds.
        nowhere = RegionLit("nowhere")
        self.rewrite(monkeypatch, "E-C",
                     lambda out, tid: Stepped(out.config, out.rule, (out.info[0], nowhere)))
        payload = self.run_json(capsys, "sharing_once.rgn", 0)
        self.assert_violation(payload, "thread-typing",
                              "capability step not reflected statically")

    def test_spawn_that_names_the_wrong_child(self, capsys, monkeypatch, tmp_path):
        # Every E-SN payload names the thread after the one it started. The
        # child takes no counts, so consistency holds, and only the child's
        # first step shows that delta has no entry for it.
        path = tmp_path / "idle_child.rgn"
        path.write_text("def idle = \\u: unit @ [{} -> {}]. ()\n\n"
                        "def main = /\\rhoH. \\heap: rgn(rhoH) @ "
                        "[{rhoH^(1,0)@_} -> {rhoH^(1,0)@_}].\n  spawn idle(())\n")
        self.rewrite(monkeypatch, "E-SN", lambda out, tid: Stepped(
            out.config, out.rule, (out.info[0] + 1, out.info[1])))
        for seed in range(3):
            payload = self.run_json(capsys, str(path), seed)
            self.assert_violation(payload, "thread-typing", "thread 2 has no effect assignment")

    def test_thread_that_ends_at_a_share(self, capsys, monkeypatch):
        # The first `share` also finishes its thread, whose effect then still
        # holds the counts that the rest of its body was to give back.
        def finish(out, tid):
            if out.info[0] is not CapOp.RG_PLUS:
                return out
            return Stepped(out.config.without_thread(tid), "E-T")

        self.rewrite(monkeypatch, "E-C", finish)
        payload = self.run_json(capsys, "sharing_once.rgn", 0)
        tid = payload["steps"][-1]["thread"]
        assert payload["steps"][-1]["rule"] == "E-T"
        self.assert_violation(payload, "thread-typing", f"thread {tid} finished with effect")

    def test_step_that_rewrites_a_frame_below_the_hole(self, capsys, monkeypatch):
        # Every E-C hands its successor a copy of the frame around its hole,
        # judgement and all, whose continuation dereferences a number. The
        # frames are no longer those the harness judged, and the term no
        # longer types.
        def rewritten(out, tid):
            thread = out.config.thread(tid)
            frame = thread.frames
            if frame is None or type(frame.node) is not Seq:
                return out
            node = Seq(frame.node.first, Deref(Const(1)), frame.node.loc)
            copy = interp.Frame(node, frame.env, frame.pos, frame.left, frame.outer)
            copy.judged = frame.judged
            successor = Thread(tid, thread.control, thread.env, copy)
            return Stepped(out.config.with_thread(successor), out.rule, out.info)

        self.rewrite(monkeypatch, "E-C", rewritten)
        for seed in range(3):
            payload = self.run_json(capsys, "sharing_once.rgn", seed)
            violations = payload["terminal"]["violations"]
            assert payload["steps"][-1]["rule"] == "E-C"
            assert [v["check"] for v in violations] == ["thread-typing"]
            assert "deref of non-reference int" in violations[0]["message"]

    def test_term_rule_the_memo_must_not_mask(self, capsys, monkeypatch):
        # `+` yielding a bool changes the stepped term, so its digest changes.
        real = interp._prim_eval
        monkeypatch.setattr(interp, "_prim_eval", lambda op, args: Const(True)
                            if op == "+" else real(op, args))
        for seed in range(3):
            payload = self.run_json(capsys, "sharing_once.rgn", seed)
            violations = payload["terminal"]["violations"]
            assert [v["check"] for v in violations] == ["thread-typing"]
            assert "TypeMismatch" in violations[0]["message"]

    def test_fault_after_deallocation_reaches_an_unchanged_thread(self, capsys,
                                                                   monkeypatch):
        # A free deallocates once the freeing thread's own count is gone,
        # although the other thread still holds the region. That thread
        # neither stepped nor changed its effect, but its effect still names
        # the region, which store consistency finds absent from the store.
        real = Store.updcap

        def eager_free(self, op, rid, tid):
            store = real(self, op, rid, tid)
            node = store.find(rid) if op is CapOp.RG_MINUS else None
            if node is not None and node.counts_for(tid).rg == 0:
                return store._rebuild(store.path_to(rid), None)
            return store

        monkeypatch.setattr(Store, "updcap", eager_free)
        for seed in range(3):
            payload = self.run_json(capsys, "sharing_once.rgn", seed)
            stepped = payload["steps"][-1]["thread"]
            assert payload["steps"][-1]["rule"] == "E-C"
            assert any(v["check"] == "store-consistency" and v["thread"] != stepped
                       and "absent from the store" in v["message"]
                       for v in payload["terminal"]["violations"])
