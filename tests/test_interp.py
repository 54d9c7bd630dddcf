from __future__ import annotations

import gc
import weakref
from typing import get_args

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reglock import interp, syntax
from reglock.interp import (
    EVAL_FIELDS,
    BlockedOn,
    Config,
    Frame,
    Ready,
    Stepped,
    Stuck,
    Thread,
    _apply_outcome,
    classify,
    config_digest,
    decompose,
    detect_deadlock,
    explore,
    initial_config,
    run_seeded,
    step_record,
    step_thread,
)
from reglock.parser import parse_program
from reglock.store import Store, StoreFault, initial_store
from reglock.syntax import (
    _FIELDS,
    _SUBTERMS,
    EMPTY_EFFECT,
    HEAP,
    INT,
    LEAVES,
    SEQ_MODE,
    UNIT_VALUE,
    App,
    Assign,
    Cap,
    CapOp,
    Const,
    Deref,
    Expr,
    If,
    Lambda,
    Location,
    LocVal,
    NewRef,
    NewRgn,
    ParMode,
    Prim,
    RegionApp,
    RegionLambda,
    RegionVar,
    RgnVal,
    Seq,
    Var,
    While,
    Closure,
    expr_digest,
    is_value,
)
from reglock.typecheck import check_program, link_bodies
from conftest import RUNNABLE, corpus_text, lock_tree, paired_long_seq, rebuild


def typed_main(name: str):
    return checked_main(corpus_text(name))


def checked_main(text: str):
    result = check_program(parse_program(text))
    assert result.ok, [d.render() for d in result.diagnostics]
    return result.typed.linked_main()


def unchecked_main(name: str):
    return link_bodies(parse_program(corpus_text(name)))


def program_main(name: str):
    """A runnable corpus file's main, or lock_tree(2)'s for "lock_tree_2"."""
    return checked_main(lock_tree(2)) if name == "lock_tree_2" else typed_main(name)


def plugged(redex: Frame) -> Expr:
    """The term a redex frame stands for: its node, under its bindings, in
    the hole of its context."""
    return Thread(0, redex.node, redex.env, redex.outer).expr


class TestDecompose:
    """`decompose` returns the redex as a frame whose positions all hold
    values, its context as the frames out from it, or a closed value."""

    def test_value_has_no_redex(self):
        assert decompose(Const(5)) == Const(5)

    def test_beta_redex_is_the_whole_application(self):
        lam = Lambda("x", INT, Var("x"), EMPTY_EFFECT, EMPTY_EFFECT)
        e = App(lam, Const(5), SEQ_MODE)
        redex = decompose(e)
        assert redex.node is e and redex.left == (lam, Const(5)) and redex.outer is None
        assert plugged(redex) == e

    def test_left_to_right_descends_into_fn_first(self):
        lam = Lambda("x", INT, Var("x"), EMPTY_EFFECT, EMPTY_EFFECT)
        inner = App(lam, Const(1), SEQ_MODE)
        e = App(inner, Prim("+", (Const(1), Const(2))), SEQ_MODE)
        redex = decompose(e)
        assert redex.node is inner
        assert redex.outer.node is e and redex.outer.pos == 0 and redex.outer.outer is None
        assert plugged(redex) == e

    def test_arg_position_after_fn_is_value(self):
        lam = Lambda("x", INT, Var("x"), EMPTY_EFFECT, EMPTY_EFFECT)
        arg = Prim("+", (Const(1), Const(2)), None)
        e = App(lam, arg, SEQ_MODE)
        redex = decompose(e)
        assert redex.node is arg
        assert (redex.outer.pos, redex.outer.left) == (1, (lam,))


@st.composite
def closed_exprs(draw, depth: int = 3):
    leaves = st.sampled_from([Const(2), Const(False), Const(UNIT_VALUE), RgnVal(HEAP),
                              LocVal(Location(1, HEAP))])
    if depth == 0 or draw(st.booleans()):
        return draw(leaves)
    sub = closed_exprs(depth=depth - 1)
    lam = Lambda("x", INT, Var("x"), EMPTY_EFFECT, EMPTY_EFFECT)
    forms = [
        lambda: Seq(draw(sub), draw(sub)),
        lambda: If(draw(sub), draw(sub), draw(sub)),
        lambda: Prim("+", (draw(sub), draw(sub))),
        lambda: App(lam, draw(sub), SEQ_MODE),
        lambda: RegionApp(draw(sub), HEAP),
        lambda: NewRef(draw(sub), draw(sub)),
        lambda: Deref(draw(sub)),
        lambda: Assign(draw(sub), draw(sub)),
        lambda: NewRgn(RegionVar("rho"), "h", draw(sub), Const(UNIT_VALUE)),
        lambda: Cap(draw(st.sampled_from(CapOp)), draw(sub)),
        lambda: While(draw(sub), draw(sub)),
    ]
    return draw(st.sampled_from(forms))()


#: Term positions that reduce only after their form has stepped: the
#: branches, the rest of a sequence, a loop and a region binder's body.
DELAYED = {If: {"then", "orelse"}, Seq: {"second"}, While: {"cond", "body"}, NewRgn: {"body"}}


def term_fields(form: type) -> tuple[str, ...]:
    return tuple(name for name in _FIELDS[form] if name in _SUBTERMS[form])


@settings(max_examples=300, deadline=None)
@given(closed_exprs())
def test_unique_decomposition(e):
    """Every closed non-value decomposes into exactly one (context, redex)
    pair, and plugging the redex back reconstructs the term."""
    found = decompose(e)
    if type(found) is not Frame:
        assert is_value(e) and found is e
    else:
        redex = found.node
        assert not is_value(redex)
        eager = (redex.args if isinstance(redex, Prim) else
                 [getattr(redex, name) for name in term_fields(type(redex))
                  if name not in DELAYED.get(type(redex), ())])
        assert all(is_value(sub) for sub in eager) and found.left == tuple(eager)
        assert plugged(found) == e


def test_eval_fields_cover_every_compound_non_value():
    """Every compound form that is not a value has its evaluation positions
    in EVAL_FIELDS (a Prim has one per operand): a prefix of its term fields
    in evaluation order, followed only by delayed positions."""
    values = (Lambda, RegionLambda)
    compound = {form for form in get_args(Expr) if form not in LEAVES + values}
    assert set(EVAL_FIELDS) | {Prim} == compound
    for form, positions in EVAL_FIELDS.items():
        fields = term_fields(form)
        assert positions == fields[:len(positions)], form
        assert set(fields[len(positions):]) == DELAYED.get(form, set()), form


def seq_chain(frames: int) -> Expr:
    """((() ; ()) ; ()) ... : a left-nested Seq chain, `frames` deep."""
    e = Const(UNIT_VALUE)
    for _ in range(frames):
        e = Seq(e, Const(UNIT_VALUE))
    return e


def test_deep_context_steps_without_recursion():
    # Built directly: the parser and substitution still recurse per level.
    config = Config(initial_store(HEAP, 1), (Thread(1, seq_chain(10_000)),),
                    next_tid=2, next_loc=1, next_region=1)
    rules, digests = [], set()
    for _ in range(5):
        outcomes, terminal, steppable = classify(config)
        assert terminal is None and steppable == [1]
        config, rule = _apply_outcome(outcomes[1])
        rules.append(rule)
        digests.add(config_digest(config))
    assert rules == ["E-SEQ"] * 5 and len(digests) == 5
    assert expr_digest(config.thread(1).expr) == expr_digest(seq_chain(9_995))


class TestStepping:
    def test_basic_flow_reaches_all_done(self):
        trace = run_seeded(typed_main("basic_region.rgn"), seed=0)
        assert trace.terminal.kind == "all_done"
        rules = [s.rule for s in trace.steps]
        for expected in ("E-RP", "E-A", "E-NG", "E-NR", "E-D", "E-AS", "E-C", "E-T"):
            assert expected in rules

    def test_deref_without_lock_gets_stuck(self):
        trace = run_seeded(unchecked_main("race_unlocked.rgn"), seed=0)
        assert trace.terminal.kind == "stuck"
        assert trace.terminal.detail["fault"] == "Inaccessible"

    def test_blocked_lock_blocks_not_faults(self):
        # The forced fixture's workers request locks the other side holds:
        # they report BlockedOn (retried), never a fault.
        main = unchecked_main("deadlock_forced.rgn")
        config = initial_config(main)
        saw_blocked = False
        for _ in range(400):
            outcomes = {t.tid: step_thread(config, t.tid) for t in config.threads}
            blocked = [o for o in outcomes.values() if isinstance(o, BlockedOn)]
            saw_blocked = saw_blocked or bool(blocked)
            assert not any(isinstance(o, Stuck) for o in outcomes.values())
            steppable = [tid for tid, o in outcomes.items()
                         if not isinstance(o, (BlockedOn, Stuck))]
            if not steppable:
                break
            config = outcomes[steppable[0]].config
        assert saw_blocked

    def test_spawn_conserves_per_region_counts(self):
        main = typed_main("migration_once.rgn")
        config = initial_config(main)
        for _ in range(200):
            outcomes = {t.tid: step_thread(config, t.tid) for t in config.threads}
            chosen = None
            for tid in sorted(outcomes):
                if isinstance(outcomes[tid], Stepped) and outcomes[tid].rule == "E-SN":
                    chosen = outcomes[tid]
                    break
            if chosen is not None:
                def totals(store):
                    return {str(n.rid): (n.total_rg(), sum(c.lk for _, c in n.threads))
                            for n in store.regions()}
                assert totals(config.store) == totals(chosen.config.store)
                return
            tid = min(t for t, o in outcomes.items()
                      if not isinstance(o, (BlockedOn, Stuck)))
            config = outcomes[tid].config
        pytest.fail("no spawn step found")

    def test_thread_done_on_unit(self):
        main = typed_main("basic_region.rgn")
        config = initial_config(main)
        while True:
            outcome = step_thread(config, 1)
            assert isinstance(outcome, Stepped)
            if outcome.rule == "E-T":
                assert outcome.config.threads == ()
                return
            config = outcome.config

    def test_unannotated_spawn_of_a_non_function_is_stuck(self):
        # Only a function has an input effect to transfer.
        spawn = App(Const(5), Const(UNIT_VALUE), ParMode(None))
        config = rebuild(initial_config(Const(UNIT_VALUE)), threads=(Thread(1, spawn),))
        outcome = step_thread(config, 1)
        assert isinstance(outcome, Stuck) and outcome.code == "BadApplication"


class TestDeterminism:
    @pytest.mark.parametrize("name", ["sharing_once.rgn", "many_threads.rgn"])
    def test_same_seed_same_trace(self, name):
        # Per-step digests are computed only on request, as `--trace json` does.
        main = typed_main(name)
        t1, t2 = (run_seeded(main, seed=123, record=step_record) for _ in range(2))
        assert t1.digest() == t2.digest()
        steps = [[(s.tid, s.rule, s.record["digest"]) for s in t.steps] for t in (t1, t2)]
        assert steps[0] == steps[1]
        assert all(len(d) == 16 for _, _, d in steps[0])

    def test_different_seeds_may_differ(self):
        main = typed_main("sharing_once.rgn")
        digests = {run_seeded(main, seed=s).digest() for s in range(12)}
        assert len(digests) > 1


class TestDeadlockDetection:
    def test_two_cycle(self):
        outcomes = {2: BlockedOn(2, None, frozenset({3})),
                    3: BlockedOn(3, None, frozenset({2}))}
        cycle = detect_deadlock(outcomes)
        assert sorted(cycle) == [2, 3]

    def test_blocked_on_running_thread_is_no_cycle(self):
        outcomes = {2: BlockedOn(2, None, frozenset({1}))}
        assert detect_deadlock(outcomes) == []

    def test_no_blocked_threads(self):
        assert detect_deadlock({}) == []

    def test_a_deadlock_names_each_waiting_lock(self):
        # Seed 1 deadlocks: main (thread 1) holds r2 and waits at `lock h1`
        # on line 22, the worker holds r1 and waits at `lock hb` on line 8.
        trace = run_seeded(typed_main("deadlock_racy.rgn"), seed=1)
        assert trace.terminal.kind == "deadlock"
        detail = trace.terminal.detail
        assert (detail["cycle"], detail["waiting"]) == ([1, 2], {"1": [2], "2": [1]})
        assert detail["blocked"] == {
            "1": {"region": "#r1", "lock": "22:4", "holders": [2]},
            "2": {"region": "#r2", "lock": "8:4", "holders": [1]}}

    def test_forced_fixture_always_reports_two_cycle(self):
        main = unchecked_main("deadlock_forced.rgn")
        for seed in (0, 1, 7, 99):
            trace = run_seeded(main, seed=seed)
            assert trace.terminal.kind == "deadlock"
            assert sorted(trace.terminal.detail["cycle"]) == [2, 3]


class TestExplore:
    def test_single_thread_program_is_a_line(self):
        report = explore(typed_main("basic_region.rgn"))
        assert report.terminals == {"all_done": 1}
        assert not report.stuck_reports and report.budget_hits == 0

    def test_racy_fixture_has_both_terminals(self):
        report = explore(typed_main("deadlock_racy.rgn"))
        assert "deadlock" in report.terminals and "all_done" in report.terminals
        assert not report.stuck_reports
        assert report.deadlock_cycles == [[1, 2]]

    def test_race_fixture_gets_stuck_on_every_path(self):
        report = explore(unchecked_main("race_unlocked.rgn"))
        assert set(report.terminals) == {"stuck"}
        assert all(r["fault"] == "Inaccessible" for r in report.stuck_reports)
        assert report.budget_hits == 0

    def test_digests_are_stable(self):
        main = typed_main("basic_region.rgn")
        assert config_digest(initial_config(main)) == config_digest(initial_config(main))


def step_uncached(config: Config, tid: int):
    """`step_thread` on a fresh state of a copy of the thread's term, which
    keeps nothing: it is refocused from the root, through the closures of
    the term, and builds its successor anew."""
    threads = tuple(Thread(t.tid, rebuild(t.expr)) if t.tid == tid else t
                    for t in config.threads)
    return step_thread(Config(config.store, threads, config.next_tid, config.next_loc,
                              config.next_region), tid)


def assert_same_outcome(cached, fresh) -> None:
    assert type(cached) is type(fresh)
    if isinstance(cached, Stepped):
        # The state digest covers every thread's term, the stepped one too.
        assert cached.rule == fresh.rule
        assert config_digest(cached.config) == config_digest(fresh.config)
    elif isinstance(cached, BlockedOn):
        assert (cached.region, cached.holders, cached.loc) == (fresh.region, fresh.holders,
                                                               fresh.loc)
    elif isinstance(cached, Stuck):
        assert (cached.code, cached.detail) == (fresh.code, fresh.detail)


@pytest.mark.parametrize("name", RUNNABLE + ["lock_tree_2"])
def test_cached_steps_agree_with_uncached_steps(name, monkeypatch):
    """In every state `explore` visits, each thread's outcome, polled from
    the state, which may be shared and keep its redex and its successor,
    and stepped when it is ready, equals the outcome of stepping a fresh
    state of a copy of its term."""
    main = program_main(name)
    real = interp.classify
    compared = []

    def classify(config):
        found = real(config)
        for tid, outcome in found[0].items():
            assert_same_outcome(outcome.stepped if isinstance(outcome, Ready) else outcome,
                                step_uncached(config, tid))
            compared.append(tid)
        return found

    monkeypatch.setattr(interp, "classify", classify)
    report = explore(main, force=True)
    # Every state but the final ones, which have no threads left.
    assert len(compared) >= report.states - report.terminals.get("all_done", 0) > 0


def count_calls(monkeypatch, names, module=interp) -> dict[str, int]:
    """Counts, from now on, the calls the step path makes to `module`'s
    functions of these names."""
    counts = dict.fromkeys(names, 0)

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return call

    for name in names:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    return counts


def test_each_thread_term_is_stepped_once(monkeypatch):
    """Timer-free shape guard: a thread state is refocused once, not once
    per configuration that holds it (explore) or per tick its thread is not
    chosen (run): `decompose` keeps its redex on the state.  Refocused at
    every poll, explore of lock_tree(2) makes 4,311 decompositions, and run
    139 for 82 steps."""
    main = checked_main(lock_tree(2))
    counts = count_calls(monkeypatch, ["decompose"])
    assert explore(main).states == 1774
    assert counts["decompose"] <= 300
    main = checked_main(lock_tree(2))
    counts.update(dict.fromkeys(counts, 0))
    trace = run_seeded(main, seed=1)
    assert trace.terminal.kind == "all_done"
    assert counts["decompose"] <= len(trace.steps)


def test_no_closure_is_pushed_twice(monkeypatch):
    """Timer-free shape guard: a step pushes nothing, so a bare run pushes
    only what leaves its thread (a stored function value here).  A digest
    keeps the push it digests a closure through (`syntax.pushed`), a frame
    keeps its node's push for `Thread.expr`, and `decompose` enters a
    closure through its kept push, so each closure is pushed at most once,
    in `explore` and in a seeded run alike.  A loop unrolls over its own
    closures, which keep their pushes: sharing.rgn, seed 1, pushed one
    closure 997 times in 10,000 steps when each unrolling copied them."""
    closures = []  # held, so no `id` is reused
    real = syntax.push

    def push(c):
        closures.append(c)
        return real(c)

    monkeypatch.setattr(syntax, "push", push)
    monkeypatch.setattr(interp, "push", push)
    assert run_seeded(checked_main(lock_tree(3)), seed=2).terminal.kind == "all_done"
    assert closures == []
    assert explore(checked_main(lock_tree(2))).states == 1774
    assert run_seeded(checked_main(STORED_CLOSURE), seed=1).terminal.kind == "all_done"
    assert len(run_seeded(typed_main("sharing.rgn"), seed=1).steps) == 10_000
    assert closures and len({id(c) for c in closures}) == len(closures)


def test_a_step_builds_one_config(monkeypatch):
    """Timer-free: a poll builds no configuration, so a seeded run builds
    one per step and its initial one.  Each poll built its thread's
    successor before: 1.5 per step on lock_tree(4)."""
    built = [0]
    real = Config.__init__

    def init(self, *args, **kwargs):
        built[0] += 1
        real(self, *args, **kwargs)

    monkeypatch.setattr(Config, "__init__", init)
    mains = [checked_main(lock_tree(d)) for d in (2, 3, 4)] + [
        typed_main("sharing_once.rgn"), typed_main("many_threads.rgn"),
        checked_main(paired_long_seq(30))]
    for main in mains:
        for seed in range(3):
            built[0] = 0
            trace = run_seeded(main, seed)
            assert trace.terminal.kind == "all_done"
            assert built[0] == len(trace.steps) + 1


def nested_newrgn(n: int, pairs: int = 100) -> str:
    """`main` nests n `newrgn r_i, h_i at h_(i-1) in (…; free h_i)` around
    `pairs` pairs of `share heap; free heap`."""
    opens = "".join(f"  newrgn r{i}, h{i} at {'heap' if i == 1 else f'h{i - 1}'} in (\n"
                    for i in range(1, n + 1))
    body = "; ".join(["share heap; free heap"] * pairs)
    closes = "".join(f"; free h{i})" for i in reversed(range(1, n + 1)))
    return ("def main = /\\rhoH. \\heap: rgn(rhoH) @ "
            "[{rhoH^(1,0)@_} -> {rhoH^(1,0)@_}].\n" + opens + "   " + body + closes + "\n")


def test_frames_a_step_visits_do_not_grow_with_the_context(monkeypatch):
    """Timer-free: refocusing starts at the hole, so the frames a step
    builds or leaves (each a `Frame` made) do not grow with the n frames
    around the body of n nested `newrgn`s.  Decomposing from the root, a
    step cost 33, 76 and 228 us at n = 5, 20 and 60; refocused, 15, 16 and
    28 us, most of the rest in the store (2 cores, Python 3.11.7)."""
    made = [0]
    real = Frame.__init__

    def init(self, *args):
        made[0] += 1
        real(self, *args)

    per_step = {}
    for n in (5, 20, 60):
        main = checked_main(nested_newrgn(n))
        monkeypatch.setattr(Frame, "__init__", init)
        counts, step = [], interp._apply_outcome

        def apply(outcome):
            counts.append(made[0])
            made[0] = 0
            return step(outcome)

        monkeypatch.setattr(interp, "_apply_outcome", apply)
        trace = run_seeded(main, 1)
        monkeypatch.undo()
        assert trace.terminal.kind == "all_done" and len(trace.steps) == 3 * n + 402
        per_step[n] = (max(counts[1:]), sorted(counts[1:])[len(counts) // 2])
    assert per_step[5] == per_step[20] == per_step[60], per_step


#: The uncached bodies of the store operations that `Store` memoises.
STORE_BODIES = ("_alloc", "_lookup", "_update", "_newrgn", "_updcap", "_transfer")


def test_each_store_operation_is_computed_once_per_store(monkeypatch):
    """Timer-free shape guard: a term-only step leaves the store as it was,
    so the same operation on the same store recurs in every interleaving and
    is served from the store's memo.  Without it, explore of lock_tree(3)
    computes 3,187 capability updates alone for 3,430 states; with it,
    about 1,270 operations of all kinds."""
    counts = dict.fromkeys(STORE_BODIES, 0)

    def counted(name, fn):
        def call(*args):
            counts[name] += 1
            return fn(*args)
        return call

    for name in STORE_BODIES:
        monkeypatch.setattr(Store, name, counted(name, getattr(Store, name)))
    states = explore(checked_main(lock_tree(3))).states
    assert states == 3430
    assert 0 < sum(counts.values()) <= 0.4 * states


@pytest.mark.parametrize("name", RUNNABLE + ["lock_tree_2"])
def test_threads_stay_in_tid_order(name, monkeypatch):
    """`config_digest` hashes the threads as they stand: a spawn appends the
    next tid, and nothing reorders them."""
    real = interp.classify

    def classify(config):
        tids = [t.tid for t in config.threads]
        assert tids == sorted(tids)
        return real(config)

    monkeypatch.setattr(interp, "classify", classify)
    assert explore(program_main(name), force=True).states > 0


def root_digest(store: Store):
    return store.root and store.root.digest()


@pytest.mark.parametrize("name", RUNNABLE + ["lock_tree_2"])
def test_memoised_store_operations_are_exact(name, monkeypatch):
    """Each store operation `explore` makes, served from the store's memo
    or not, gives what the operation's body gives on a fresh store over the
    same root, which has no memo: the same fault code, root digest, lock
    holders or looked-up value."""
    calls = []

    def checked(op: str, memoised):
        def call(store, *args):
            body = getattr(Store, "_" + op)
            try:
                out = memoised(store, *args)
            except StoreFault as exc:
                with pytest.raises(StoreFault) as again:
                    body(Store(store.root), *args)
                assert again.value.code == exc.code
                raise
            result, fresh = out, body(Store(store.root), *args)
            if isinstance(result, tuple):  # alloc and newrgn: (store, name)
                result = result[0]
            if isinstance(result, Store):
                assert root_digest(result) == root_digest(fresh)
            else:
                assert result == fresh  # Blocked, or lookup's value
            calls.append(op)
            return out
        return call

    for body in STORE_BODIES:
        op = body[1:]
        monkeypatch.setattr(Store, op, checked(op, getattr(Store, op)))
    explore(program_main(name), force=True)
    assert calls


def test_explore_leaves_no_store_alive(monkeypatch):
    """A store's memo holds its result stores weakly, and the window of
    recent stores belongs to the call, so every store `explore` builds is
    freed once it returns, by reference counts alone."""
    made = []
    real_init = Store.__init__

    def init(self, root):
        real_init(self, root)
        made.append(weakref.ref(self))

    main = checked_main(lock_tree(2))
    monkeypatch.setattr(Store, "__init__", init)
    gc.collect()
    gc.disable()
    try:
        assert explore(main).states == 1774
    finally:
        gc.enable()
    assert len(made) > 100
    assert [ref for ref in made if ref() is not None] == []


def test_explore_computes_each_store_operation_once_per_distinct_store(monkeypatch):
    """Timer-free: `explore` shares one store object per distinct store, so
    paired long_seq, whose stores alternate between two values, computes as
    many operation bodies at N=120 as at N=30.  With an object per state it
    computed 2N+2: 62 and 242."""
    computed = [0]
    for name in ("_alloc", "_lookup", "_update", "_newrgn", "_updcap", "_transfer"):
        def body(*args, real=getattr(Store, name)):
            computed[0] += 1
            return real(*args)
        monkeypatch.setattr(Store, name, body)
    per_n = {}
    for n in (30, 120):
        main = checked_main(paired_long_seq(n))
        computed[0] = 0
        assert explore(main).states == 4 * n + 6
        per_n[n] = computed[0]
    assert per_n[30] == per_n[120] <= 8, per_n


def test_explore_decomposes_each_distinct_term_once(monkeypatch):
    """Timer-free: `explore` shares one state object per distinct thread
    term and tid, and a state new to its tid is refocused as the first
    state of its term, so a term that interleavings reach in different
    orders, or that threads reach alike, is decomposed once.  many_threads
    decomposed 211 terms with an object per state, 43 with terms shared,
    and 279 with states shared per tid alone."""
    made = []

    def counted(*args):
        made.append(args)
        return decompose(*args)

    monkeypatch.setattr(interp, "decompose", counted)
    assert explore(typed_main("many_threads.rgn"), force=True).states == 940
    digests = {expr_digest(Thread(0, *args).expr) for args in made}
    assert len(made) < 100 and len(digests) == len(made)


def test_a_spawn_transfers_one_effect_object(monkeypatch):
    """Timer-free: polling a thread at an unannotated spawn twice transfers
    the same effect object both times, so the store's memo, which keys a
    transfer by its effect's identity, computes the transfer once."""
    computed = []
    real = Store._transfer
    monkeypatch.setattr(Store, "_transfer",
                        lambda self, *args: computed.append(args) or real(self, *args))
    config = initial_config(typed_main("sharing_once.rgn"))
    while True:
        thread = config.thread(1)
        redex = decompose(thread.control, thread.env, thread.frames).node
        if isinstance(redex, App) and isinstance(redex.mode, ParMode):
            break
        config = step_thread(config, 1).config
    assert redex.mode.transfer is None and computed == []
    first, second = step_thread(config, 1), step_thread(config, 1)
    assert first.rule == second.rule == "E-SN"
    assert first.info[1] is second.info[1] and not first.info[1].is_empty()
    assert len(computed) == 1


TERM_FORMS = get_args(Expr) + (Closure,)


def count_nodes(monkeypatch) -> list[int]:
    """Counts, from now on, the term nodes and closures built."""
    made = [0]
    for form in TERM_FORMS:
        def init(self, *args, real=form.__init__, **kwargs):
            made[0] += 1
            real(self, *args, **kwargs)
        monkeypatch.setattr(form, "__init__", init)
    return made


def test_binding_rules_build_nodes_independent_of_the_body(monkeypatch):
    """Timer-free: E-RP, E-A and E-NG bind their names in a closure over
    the body they enter, so each of the first steps of paired long_seq
    builds as many nodes at N=1,000 as at N=10.  Substituting, E-NG alone
    rebuilt the whole body: 4N+1 nodes or so."""
    per_step = {}
    for n in (10, 1000):
        # Linked unchecked: the checker recurses once per level (ROADMAP).
        config = initial_config(link_bodies(parse_program(paired_long_seq(n))))
        made = count_nodes(monkeypatch)
        rules = []
        for _ in range(8):
            outcomes, terminal, steppable = classify(config)
            config, rule = _apply_outcome(outcomes[steppable[0]])
            rules.append((rule, made[0]))
            made[0] = 0
        monkeypatch.undo()
        per_step[n] = rules
    assert [rule for rule, _ in per_step[10][:3]] == ["E-RP", "E-A", "E-NG"]
    assert per_step[10] == per_step[1000]
    assert max(count for _, count in per_step[10]) <= 12


#: A function value closed over a `let` and stored: E-NR closes it by
#: substitution, since it leaves its thread.
STORED_CLOSURE = """
def main = /\\rhoH. \\heap: rgn(rhoH) @ [{rhoH^(1,0)@_} -> {rhoH^(1,0)@_}].
  newrgn rho, h at heap in
  let y = 41 in
  let f = new (\\x: int @ [{} -> {}]. x + y) at h in
  (lock h; f := (\\x: int @ [{} -> {}]. x + y + 1); unlock h; free h)
"""


@pytest.mark.parametrize("name", RUNNABLE + ["stored_closure"])
def test_only_a_value_that_leaves_its_thread_is_substituted(name, monkeypatch):
    """A value that a step stores or passes to a new thread is closed by
    `read_back`, which reads a closure through its push, and no store ever
    holds a closure."""
    main = checked_main(STORED_CLOSURE) if name == "stored_closure" else typed_main(name)
    given = []
    real_read_back = interp.read_back

    def read_back(e):
        given.append(type(e) is Closure)
        return real_read_back(e)

    def heap_closures(config):
        stack = [v for node in config.store.regions() for _, v in node.heap]
        found = []
        while stack:
            e = stack.pop()
            if type(e) is Closure:
                found.append(e)
            stack.extend(syntax.children(e))
        return found

    monkeypatch.setattr(interp, "read_back", read_back)
    for seed in range(3):
        trace = run_seeded(main, seed, record=heap_closures)
        assert trace.terminal.kind in ("all_done", "deadlock")
        assert not any(step.record for step in trace.steps)
    if name == "stored_closure":
        assert any(given)
