from __future__ import annotations

import json

import pytest

from reglock import interp
from reglock.cli import main as cli_main
from reglock.interp import initial_config, run_seeded
from reglock.meta import (
    Harness,
    _retype,
    check_not_stuck,
    check_store_consistency,
    check_store_typing,
    check_thread_typing,
)
from reglock.interp import BlockedOn, Stepped, Stuck, Thread
from reglock.parser import parse_expr, parse_program
from reglock.store import Counts, RegionNode, Store, initial_store
from reglock.syntax import (
    BOTTOM,
    EMPTY_EFFECT,
    HEAP,
    INT,
    UNIT_VALUE,
    Capability,
    CapOp,
    Const,
    Effect,
    FnType,
    Location,
    LocVal,
    RegionLit,
    Var,
)
from reglock.typecheck import Checker, check_program, type_eq
from conftest import (
    CORPUS,
    INLINED_PURITY,
    RUNNABLE,
    SHADOWED_SPAWN,
    SPLIT_THEN_WHOLE,
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
        assert check_thread_typing(frozenset({HEAP}), {}, [], {}, {}) == []

    def test_ill_formed_effect_assignment_is_flagged(self):
        # A's parent is missing from the effect; the checker is never asked.
        threads = [Thread(1, Const(UNIT_VALUE))]
        delta = {1: Effect.of((A, Capability(1, 0), HEAP))}
        out = check_thread_typing(frozenset({HEAP, A}), {}, threads, delta, delta)
        assert [(v.check, v.thread) for v in out] == [("thread-typing", 1)]
        assert "ill-formed" in out[0].message

    def test_non_unit_thread_is_flagged(self):
        threads = [Thread(1, Const(5))]
        out = check_thread_typing(frozenset({HEAP}), {}, threads,
                                  {1: EMPTY_EFFECT}, {1: EMPTY_EFFECT})
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
        out = check_store_typing(frozenset({HEAP}), {}, store)
        assert any("missing from the domain of M" in v.message for v in out)

    def test_region_set_mismatch(self):
        # A store region must be in R; a freed region stays in R, so R may
        # be larger than the store.
        store = Store(node(HEAP, {1: Counts(1, 0)}, children=(node(A, {1: Counts(1, 0)}),)))
        out = check_store_typing(frozenset({HEAP}), {}, store)
        assert [v.check for v in out] == ["store-typing"]
        assert "missing from R" in out[0].message
        assert check_store_typing(frozenset({HEAP, A}), {}, initial_store(HEAP, 1)) == []

    def test_open_stored_value_flagged(self):
        # Re-typing under the empty environment rejects the free variable.
        store, loc = initial_store(HEAP, 1).alloc(HEAP, 1, Var("x"))
        out = check_store_typing(frozenset({HEAP}), {loc: INT}, store)
        assert [v.check for v in out] == ["store-typing"]
        assert "UnboundVariable" in out[0].message

    def test_int_cell_ok(self):
        store, loc = initial_store(HEAP, 1).alloc(HEAP, 1, Const(3))
        out = check_store_typing(frozenset({HEAP}), {loc: INT}, store)
        assert out == []

    def test_stored_pure_function_value(self):
        # A closed lambda with empty declared effects types in the store;
        # the oracle is the checker itself.
        lam = parse_expr("\\x: int @ [{} -> {}]. x + 1")
        store, loc = initial_store(HEAP, 1).alloc(HEAP, 1, lam)
        want = FnType(INT, EMPTY_EFFECT, EMPTY_EFFECT, INT)
        assert check_store_typing(frozenset({HEAP}), {loc: want}, store) == []

    def test_wrong_cell_type_flagged(self):
        store, loc = initial_store(HEAP, 1).alloc(HEAP, 1, Const(True))
        out = check_store_typing(frozenset({HEAP}), {loc: INT}, store)
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

    def test_fault_injection_is_caught_mid_run(self):
        # Drop a dynamic lock count behind the harness's back: static-dynamic
        # consistency must flag it on the next step.
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
            config, _ = interp_mod._apply_outcome(outcome)
            violations = harness.after_step(tid, outcome, outcomes)
            if violations:
                violations_found = violations
                break
        assert tampered and violations_found
        assert any(v.check == "store-consistency" for v in violations_found)


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


def test_harness_types_few_nodes_per_step(monkeypatch):
    """Timer-free shape guard: closed subterms and closed function values
    come from the memo under any environment, so a step of lock_tree(4)
    types about 18 nodes in full (40.7 when only subterms under an empty
    environment were served)."""
    result = check_program(parse_program(lock_tree(4)))
    main = result.typed.linked_main()
    counts = count_checks(monkeypatch)
    trace = run_seeded(main, seed=1, harness=Harness(result.typed))
    assert trace.terminal.kind == "all_done" and trace.steps
    assert counts["typed"] <= 24 * len(trace.steps)


class Differential(Harness):
    """After every step, re-types each live thread with the run's memo and
    with a fresh memo-less checker, and records any disagreement."""

    def __init__(self, typed):
        super().__init__(typed)
        self.compared = 0
        self.disagreements: list[str] = []

    def after_step(self, tid, outcome, outcomes):
        violations = super().after_step(tid, outcome, outcomes)
        for thread in outcome.config.threads:
            eff = self.delta[thread.tid]
            t_memo, out_memo = _retype(self.regions, self.locations, thread.expr, eff,
                                       self.memo)
            t_fresh, out_fresh = _retype(self.regions, self.locations, thread.expr, eff)
            # Effect equality compares counts, parents and purity.
            if not (type_eq(t_memo, t_fresh) and out_memo == out_fresh):
                self.disagreements.append(f"after thread {tid}'s {outcome.rule}, "
                                          f"thread {thread.tid}")
            self.compared += 1
        return violations


#: Generated programs and their schedule seeds (long_seq has one thread).
GENERATED = {"long_seq_30": (paired_long_seq(30), [0]),
             "lock_tree_3": (lock_tree(3), range(3)),
             "shadowed_spawn": (SHADOWED_SPAWN, range(3))}


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
        assert harness.compared and not harness.disagreements
    if name == "lock_tree_3":
        # The workers inlined into `work` are closed values under its binders.
        assert counts["open_hits"] > 0


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
        assert self.regions == {HEAP} | {RegionLit(f"r{i}")
                                         for i in range(1, after.next_region)}
        assert {loc.idx for loc in self.locations} == set(range(1, after.next_loc))
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


class TestFaultInjection:
    """A broken rule of the machine ends a harnessed run in a violation."""

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

    def rewrite(self, monkeypatch, rule: str, change) -> None:
        """Every step by `rule` becomes `change(outcome, tid)`."""
        real = interp.step_thread

        def rewritten(config, tid):
            out = real(config, tid)
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
