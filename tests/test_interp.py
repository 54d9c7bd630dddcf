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


class TestDecompose:
    def test_value_has_no_redex(self):
        assert decompose(Const(5)) is None

    def test_beta_redex_is_the_whole_application(self):
        lam = Lambda("x", INT, Var("x"), EMPTY_EFFECT, EMPTY_EFFECT)
        e = App(lam, Const(5), SEQ_MODE)
        redex, rebuild = decompose(e)
        assert redex == e
        assert rebuild(Const(7)) == Const(7)

    def test_left_to_right_descends_into_fn_first(self):
        lam = Lambda("x", INT, Var("x"), EMPTY_EFFECT, EMPTY_EFFECT)
        inner = App(lam, Const(1), SEQ_MODE)
        e = App(inner, Prim("+", (Const(1), Const(2))), SEQ_MODE)
        redex, rebuild = decompose(e)
        assert redex == inner
        assert rebuild(redex) == e

    def test_arg_position_after_fn_is_value(self):
        lam = Lambda("x", INT, Var("x"), EMPTY_EFFECT, EMPTY_EFFECT)
        arg = Prim("+", (Const(1), Const(2)), None)
        e = App(lam, arg, SEQ_MODE)
        redex, _ = decompose(e)
        assert redex == arg


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
    if found is None:
        assert is_value(e)
    else:
        redex, plug = found
        assert not is_value(redex) or isinstance(redex, (Const,)) is False
        eager = (redex.args if isinstance(redex, Prim) else
                 [getattr(redex, name) for name in term_fields(type(redex))
                  if name not in DELAYED.get(type(redex), ())])
        assert all(is_value(sub) for sub in eager)
        assert plug(redex) == e


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
            config, _ = _apply_outcome(outcomes[steppable[0]])
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
            config, _ = _apply_outcome(outcomes[tid])
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
    """`step_thread` on a copy of the thread's root term: `rebuild` drops
    the cached step, and only a thread's root term carries one."""
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
        assert (cached.region, cached.holders) == (fresh.region, fresh.holders)
    elif isinstance(cached, Stuck):
        assert (cached.code, cached.detail) == (fresh.code, fresh.detail)


@pytest.mark.parametrize("name", RUNNABLE + ["lock_tree_2"])
def test_cached_steps_agree_with_uncached_steps(name, monkeypatch):
    """In every state `explore` visits, each thread's outcome, served from
    the step cached on its term where there is one, equals the outcome of
    stepping a copy of the term with nothing cached."""
    main = program_main(name)
    real = interp.classify
    compared = []

    def classify(config):
        found = real(config)
        for tid, outcome in found[0].items():
            assert_same_outcome(outcome, step_uncached(config, tid))
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
    """Timer-free shape guard: a thread term is decomposed once, not once
    per state that holds it (explore) or per tick its thread is not chosen
    (run).  Without the cache, explore of lock_tree(2) makes 4,104
    decompose calls, and run 135 for 82 steps."""
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
    """Timer-free shape guard: a digest keeps the push it digests a closure
    through (`syntax.pushed`), and `decompose` reuses it, so each closure is
    pushed at most once, in `explore` and in a seeded run alike.  A loop
    unrolls over read-backs, which keep their pushes: sharing.rgn, seed 1,
    pushed one closure 997 times in 10,000 steps when each unrolling copied
    the loop's closures."""
    closures = []  # held, so no `id` is reused
    real = syntax.push

    def push(c):
        closures.append(c)
        return real(c)

    monkeypatch.setattr(syntax, "push", push)
    monkeypatch.setattr(interp, "push", push)
    assert explore(checked_main(lock_tree(2))).states == 1774
    assert run_seeded(checked_main(STORED_CLOSURE), seed=1).terminal.kind == "all_done"
    assert len(run_seeded(typed_main("sharing.rgn"), seed=1).steps) == 10_000
    assert closures and len({id(c) for c in closures}) == len(closures)


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
    """Timer-free: `explore` shares one term object per distinct thread
    term, so a term that interleavings reach in different orders is
    decomposed once.  many_threads decomposed 211 terms with an object per
    state, and 43 with them shared."""
    made = []
    monkeypatch.setattr(interp, "decompose", lambda e: made.append(e) or decompose(e))
    assert explore(typed_main("many_threads.rgn"), force=True).states == 940
    assert len(made) < 100 and len({expr_digest(e) for e in made}) == len(made)


def test_a_finished_thread_is_polled_without_a_successor(monkeypatch):
    """Timer-free: a finished thread's E-T successor is built for the step
    the scheduler applies, not on every tick it is polled.  When each poll
    built one, many_threads built 101 for 50 E-T steps over these seeds."""
    built = []
    real = Config.without_thread
    monkeypatch.setattr(Config, "without_thread",
                        lambda self, tid: built.append(tid) or real(self, tid))
    for name in ("many_threads.rgn", "sharing_once.rgn"):
        main = typed_main(name)
        for seed in range(10):
            built.clear()
            trace = run_seeded(main, seed)
            assert trace.terminal.kind == "all_done"
            finished = [s.tid for s in trace.steps if s.rule == "E-T"]
            assert built == finished, (name, seed)


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
