"""The small-step machine: evaluation contexts, thread steps, schedulers.

Evaluation is call-by-value, left to right.  An evaluation context is data:
a list of frames, each a node and the evaluation position that holds the
hole, found by a loop over the table `EVAL_FIELDS`.  Decomposing a term and
plugging a reduct back cost no recursion, however deep the context.

The machine binds instead of substituting.  E-A, E-RP and E-NG close the
body they enter over its new bindings (`syntax.Closure`: the parameter's
value, the region variable's literal, the new region and its handle), so a
step costs its redex, and a program body keeps its cached digest and free
names for the whole run.  `decompose` pushes a closure one level inward
when the hole enters it (`syntax.push`): a node of its body's form, whose
subterms are closed over the same bindings.  A closure stands for its
read-back, the body with its bindings substituted, and is digested and
read back through its push, which it then keeps (`syntax.pushed`);
`decompose` reuses a kept push and keeps none of its own, so a run that
takes no digest holds no pushed tree but its loops'.  A value that leaves
its thread is read back (`syntax.read_back`): a value stored by E-NR or
E-AS, or a spawn's argument, so the store holds no closure.  E-WHILE
unrolls over its condition's and body's read-backs, kept on them, so a
loop pushes each of its closures once, not once per iteration.

Each configuration holds the store, the active threads, and the counters
that keep fresh names deterministic across interleavings.  Scheduling is
simulated: a seeded scheduler picks uniformly among threads that can step,
and an exhaustive scheduler enumerates every interleaving up to a step
bound, deduplicating states by a canonical digest.

State digests are Merkle digests: every term node and region node caches a
hash of its own fields and its children's digests (`syntax.expr_digest`,
`RegionNode.digest`), so a digest pays only for the nodes rebuilt since the
last one.  They use hashlib, never `hash()`, and are the same across
processes and `PYTHONHASHSEED` values.  `explore` digests every state; a
seeded run digests its final state, and each step's only for a `record`.

`step_thread` caches a term's decomposition on its root node, outside the
record's fields like the digest.  A rule whose reduct reads only the term
(E-A, E-RP, E-IF, E-SEQ, E-WHILE, E-OP) replaces it with the rule and
successor term; E-C and E-AS add the term with `()` in the hole and still
run their store operation, with its blocking and faults.  E-NG, E-NR, E-D
(store or counters) and E-SN (a new thread) keep the decomposition only.
The cache is exact: these rules read nothing but the term, and binding,
pushing and closing read nothing but their arguments.  A successor points
forward, so a live term keeps every later term built from it alive;
`explore` does not hold its initial configuration.  Each store operation
is likewise applied once per store object (see `store`).

Within a search these caches are shared per value.  Once a successor's
digest is new, `explore` swaps its store and each thread term for the
first object of the same digest met so far (`_shared`, from weak tables
keyed by the digests `config_digest` has just cached).  So each distinct
term is decomposed, and each distinct store's operations computed, once
for all interleavings.  This is exact as deduplication is: equal digests
mean equal read-backs, and every rule reads only the read-back.  A shared
object that the tables drop is simply met again.

Polling a thread has three outcomes.  `Stepped` is one step of the thread
relation, whatever its rule: finishing (E-T), spawning (E-SN) or reducing
(E-S, by one of the expression rules); it carries the successor
configuration, the rule and the rule's payload.  A thread that cannot step
is either `BlockedOn` a lock (retried every tick) or `Stuck`, which aborts
the run with a soundness report: well-typed programs never get stuck.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import deque
from typing import Callable, Optional, Union
from weakref import WeakValueDictionary

from .parser import pretty
from .store import Blocked, Store, StoreFault, initial_store
from .syntax import (
    _FIELDS,
    _PUSHED,
    EMPTY_ENV,
    HEAP,
    PRIM_BINARY,
    PRIM_UNARY,
    SEQ_MODE,
    UNIT_VALUE,
    App,
    Assign,
    Cap,
    Closure,
    Const,
    Deref,
    Env,
    Expr,
    If,
    Lambda,
    LocVal,
    NewRef,
    NewRgn,
    ParMode,
    Prim,
    Record,
    RegionApp,
    RegionLambda,
    RegionLit,
    RgnVal,
    Seq,
    UnitVal,
    Var,
    While,
    close,
    expr_digest,
    is_value,
    push,
    read_back,
    subst_regions,
)


class Thread(Record):
    def __init__(self, tid: int, expr: Expr) -> None:
        self.__dict__.update(tid=tid, expr=expr)


class Config(Record):
    def __init__(self, store: Store, threads: tuple[Thread, ...], next_tid: int, next_loc: int,
                 next_region: int) -> None:
        self.__dict__.update(store=store, threads=threads, next_tid=next_tid, next_loc=next_loc,
                             next_region=next_region)

    def thread(self, tid: int) -> Thread:
        for t in self.threads:
            if t.tid == tid:
                return t
        raise KeyError(tid)

    def with_thread_expr(self, tid: int, expr: Expr, store: Optional[Store] = None,
                         next_loc: Optional[int] = None,
                         next_region: Optional[int] = None) -> "Config":
        """Thread `tid` running `expr`, with any store or counter given."""
        threads = tuple(Thread(tid, expr) if t.tid == tid else t for t in self.threads)
        return Config(self.store if store is None else store, threads, self.next_tid,
                      self.next_loc if next_loc is None else next_loc,
                      self.next_region if next_region is None else next_region)

    def without_thread(self, tid: int) -> "Config":
        return Config(self.store, tuple(t for t in self.threads if t.tid != tid),
                      self.next_tid, self.next_loc, self.next_region)


def initial_config(main_expr: Expr) -> Config:
    """S0 with the heap region, and thread 1 running main[heap](rgn heap)."""
    body = App(RegionApp(main_expr, HEAP), RgnVal(HEAP), SEQ_MODE)
    return Config(initial_store(HEAP, 1), (Thread(1, body),),
                  next_tid=2, next_loc=1, next_region=1)


# ---------------------------------------------------------------------------
# Decomposition into evaluation context and redex
# ---------------------------------------------------------------------------

Plug = Callable[[Expr], Expr]

#: The `()` that E-SN, E-AS and E-C plug: one term, hashed once, so a
#: rebuilt spine over it hashes one node per frame.
UNIT = Const(UNIT_VALUE)

#: Each compound form's evaluation positions, left to right.  The first one
#: that holds a non-value holds the hole; when all hold values, the form is
#: the redex.  A `Prim` has one position per operand.
EVAL_FIELDS: dict[type, tuple[str, ...]] = {
    App: ("fn", "arg"), RegionApp: ("fn",), NewRef: ("init", "handle"),
    Deref: ("ref",), Assign: ("target", "value"), NewRgn: ("parent_handle",),
    Cap: ("handle",), If: ("cond",), Seq: ("first",), While: (),
}


def decompose(e: Expr) -> Optional[tuple[Expr, Plug]]:
    """Unique decomposition of a closed non-value into (redex, plug).

    Returns None when e is a value.  The context is a list of frames from
    the root down, each (form, its node's constructor arguments, the hole's
    index): `Prim`'s operands are one argument, the hole an index into it.
    `plug` puts a reduct into the hole and rebuilds the frames bottom-up,
    each by its form's constructor with positional arguments.  A frame
    holds no node, so a plug cached on a term does not point back at it.
    """
    if is_value(e):
        return None
    frames: list[tuple[type, tuple, int]] = []

    def plug(x: Expr) -> Expr:
        for form, args, i in reversed(frames):
            if form is Prim:
                op, operands, loc = args
                x = Prim(op, operands[:i] + (x,) + operands[i + 1:], loc)
            else:
                x = form(*args[:i], x, *args[i + 1:])
        return x

    while True:
        if type(e) is Closure:  # the push a digest kept, else one that no one keeps
            e = getattr(e, _PUSHED, None) or push(e)
        form = type(e)
        names = EVAL_FIELDS.get(form)
        if names is not None:
            positions = zip(names, map(e.__getattribute__, names))
        elif form is Prim:
            positions = enumerate(e.args)
        elif isinstance(e, Var):
            raise MalformedTerm(f"free variable {e.name!r} at runtime")
        else:
            raise MalformedTerm(f"cannot decompose {form.__name__}")
        for pos, sub in positions:
            if not is_value(sub):
                fields = _FIELDS[form]
                args = tuple(map(e.__getattribute__, fields)) + (e.loc,)
                frames.append((form, args, pos if form is Prim else fields.index(pos)))
                e = sub
                break
        else:
            return e, plug


class MalformedTerm(Exception):
    pass


# ---------------------------------------------------------------------------
# Step outcomes
# ---------------------------------------------------------------------------


class Stepped(Record):
    """A thread moved: the successor configuration and the rule that made it.

    `info` is the rule's payload for the metatheory harness:
    E-NG -> (parent_lit, new_lit); E-NR -> (location, value);
    E-AS -> (location, value); E-C -> (op, region_lit);
    E-SN -> (child tid, transferred effect); else None.
    """

    def __init__(self, config: Config, rule: str, info: Optional[tuple] = None) -> None:
        self.__dict__.update(config=config, rule=rule, info=info)


class BlockedOn(Record):
    def __init__(self, tid: int, region: RegionLit, holders: frozenset[int]) -> None:
        self.__dict__.update(tid=tid, region=region, holders=holders)


class Stuck(Record):
    def __init__(self, tid: int, code: str, detail: str) -> None:
        self.__dict__.update(tid=tid, code=code, detail=detail)


StepOutcome = Union[Stepped, BlockedOn, Stuck]


def _prim_eval(op: str, args: tuple[Expr, ...]) -> Expr:
    vals = []
    for a in args:
        if not isinstance(a, Const):
            raise TypeError(f"operand {type(a).__name__} is not a constant")
        vals.append(a.value)
    return Const((PRIM_UNARY.get(op) or PRIM_BINARY[op])[-1](*vals))


_STEP = "_step"


class _Stepping:
    """What stepping a thread term found, cached on it as `_step`: its redex
    (None for the term itself) and plug, then, once a term-only rule has
    run, the rule and successor instead.  E-C and E-AS keep the redex, and
    their successor is the term with `()` in the hole.  Not a field: eq,
    hash and repr ignore it."""

    __slots__ = ("redex", "plug", "rule", "successor")

    def __init__(self, redex: Expr, plug: Plug) -> None:
        self.redex, self.plug, self.rule, self.successor = redex, plug, None, None


def _opened(e: Expr) -> tuple[Expr, Env]:
    """A closure's body and bindings; any other term with none."""
    return (e.body, e.env) if type(e) is Closure else (e, EMPTY_ENV)


def step_thread(config: Config, tid: int) -> StepOutcome:
    """One thread-level step: finish (E-T), spawn (E-SN) or reduce (E-S)."""
    e = config.thread(tid).expr
    memo = getattr(e, _STEP, None)
    if memo is None:
        if isinstance(e, Const) and isinstance(e.value, UnitVal):
            return Stepped(config.without_thread(tid), "E-T")
        try:
            found = decompose(e)
        except MalformedTerm as exc:
            return Stuck(tid, "MalformedTerm", str(exc))
        if found is None:
            return Stuck(tid, "NonUnitTerminal",
                         f"thread reduced to a non-unit value {pretty(e)}")
        redex, plug = found
        # A term that held itself would be freed by the cycle collector only.
        memo = _Stepping(None if redex is e else redex, plug)
        object.__setattr__(e, _STEP, memo)
    elif memo.rule is not None:
        return Stepped(config.with_thread_expr(tid, memo.successor), memo.rule)
    redex = memo.redex or e

    if isinstance(redex, App) and isinstance(redex.mode, ParMode):
        # A spawn moves the callee's input effect, or the annotation the
        # checker required to equal it.  Either is one interned object per
        # term, on which the store's memo keys.
        transfer = redex.mode.transfer
        if transfer is None:
            fn, env = _opened(redex.fn)
            if not isinstance(fn, Lambda):
                return Stuck(tid, "BadApplication", f"spawn of non-function {pretty(redex.fn)}")
            transfer = subst_regions(fn.effect_in, env.regions)
        child_tid = config.next_tid
        try:
            store = config.store.transfer(tid, child_tid, transfer)
        except StoreFault as exc:
            return Stuck(tid, exc.code, exc.message)
        child = Thread(child_tid, App(redex.fn, read_back(redex.arg), SEQ_MODE, redex.loc))
        parent = memo.plug(UNIT)
        threads = tuple(Thread(tid, parent) if t.tid == tid else t for t in config.threads)
        new_config = Config(store, threads + (child,), child_tid + 1, config.next_loc,
                            config.next_region)
        return Stepped(new_config, "E-SN", (child_tid, transfer))

    return _step_expr(config, tid, memo, redex)


def _step_expr(config: Config, tid: int, memo: _Stepping, redex: Expr) -> StepOutcome:
    plug, store = memo.plug, config.store

    def term_only(reduct: Expr, rule: str) -> Stepped:
        memo.rule, memo.successor = rule, plug(reduct)
        memo.redex = memo.plug = None
        return Stepped(config.with_thread_expr(tid, memo.successor), rule)

    def unit_in_hole() -> Expr:
        if memo.successor is None:
            memo.successor = plug(UNIT)
            memo.plug = None
        return memo.successor

    try:
        if isinstance(redex, App):
            fn, env = _opened(redex.fn)
            if not isinstance(fn, Lambda):
                return Stuck(tid, "BadApplication",
                             f"application of non-function {pretty(redex.fn)}")
            return term_only(close(fn.body, env.extend({fn.param: redex.arg})), "E-A")
        if isinstance(redex, RegionApp):
            fn, env = _opened(redex.fn)
            if not isinstance(fn, RegionLambda):
                return Stuck(tid, "BadRegionApplication",
                             f"region application of {pretty(redex.fn)}")
            if not isinstance(redex.region, RegionLit):
                return Stuck(tid, "MalformedTerm",
                             f"region application at the variable {redex.region}")
            return term_only(close(fn.body, env.extend({fn.var: redex.region})), "E-RP")
        if isinstance(redex, NewRgn):
            handle = redex.parent_handle
            if not isinstance(handle, RgnVal):
                return Stuck(tid, "BadHandle", f"newrgn at non-handle {pretty(handle)}")
            name = f"r{config.next_region}"
            new_store, rid = store.newrgn(handle.region, tid, name)
            body, env = _opened(redex.body)
            body = close(body, env.extend({redex.var: rid, redex.handle_name: RgnVal(rid)}))
            return Stepped(config.with_thread_expr(
                tid, plug(body), new_store, next_region=config.next_region + 1),
                "E-NG", (handle.region, rid))
        if isinstance(redex, NewRef):
            handle = redex.handle
            if not isinstance(handle, RgnVal):
                return Stuck(tid, "BadHandle", f"new at non-handle {pretty(handle)}")
            init = read_back(redex.init)
            new_store, loc = store.alloc(handle.region, config.next_loc, init)
            return Stepped(config.with_thread_expr(
                tid, plug(LocVal(loc)), new_store, next_loc=config.next_loc + 1),
                "E-NR", (loc, init))
        if isinstance(redex, Deref):
            ref = redex.ref
            if not isinstance(ref, LocVal):
                return Stuck(tid, "BadDeref", f"deref of non-location {pretty(ref)}")
            value = store.lookup(ref.location, tid)
            return Stepped(config.with_thread_expr(tid, plug(value)), "E-D")
        if isinstance(redex, Assign):
            ref = redex.target
            if not isinstance(ref, LocVal):
                return Stuck(tid, "BadAssign", f"assignment to non-location {pretty(ref)}")
            value = read_back(redex.value)
            new_store = store.update(ref.location, value, tid)
            return Stepped(config.with_thread_expr(tid, unit_in_hole(), new_store),
                           "E-AS", (ref.location, value))
        if isinstance(redex, Cap):
            handle = redex.handle
            if not isinstance(handle, RgnVal):
                return Stuck(tid, "BadHandle",
                             f"capability operation on non-handle {pretty(handle)}")
            result = store.updcap(redex.op, handle.region, tid)
            if isinstance(result, Blocked):
                return BlockedOn(tid, result.region, result.holders)
            return Stepped(config.with_thread_expr(tid, unit_in_hole(), result),
                           "E-C", (redex.op, handle.region))
        if isinstance(redex, If):
            cond = redex.cond
            if not (isinstance(cond, Const) and isinstance(cond.value, bool)):
                return Stuck(tid, "BadCondition", f"if on non-boolean {pretty(cond)}")
            return term_only(redex.then if cond.value else redex.orelse, "E-IF")
        if isinstance(redex, Seq):
            return term_only(redex.second, "E-SEQ")
        if isinstance(redex, While):
            unrolled = If(read_back(redex.cond), Seq(read_back(redex.body), redex, redex.loc),
                          UNIT, redex.loc)
            return term_only(unrolled, "E-WHILE")
        if isinstance(redex, Prim):
            try:
                return term_only(_prim_eval(redex.op, redex.args), "E-OP")
            except (KeyError, TypeError):
                return Stuck(tid, "BadPrimitive", f"cannot evaluate {pretty(redex)}")
    except StoreFault as exc:
        return Stuck(tid, exc.code, exc.message)
    return Stuck(tid, "MalformedTerm", f"unknown redex {type(redex).__name__}")


# ---------------------------------------------------------------------------
# Traces and digests
# ---------------------------------------------------------------------------


def config_digest(config: Config) -> str:
    """16 hex digits of SHA-256 over the root region's digest, each
    thread's (tid, term digest) in tid order, and the three counters."""
    root = config.store.root
    parts = [bytes(16) if root is None else root.digest()]
    for t in config.threads:  # in tid order: a spawn appends the next tid
        parts.append(b"%d\0" % t.tid + expr_digest(t.expr))
    parts.append(b"%d,%d,%d" % (config.next_tid, config.next_loc, config.next_region))
    return hashlib.sha256(b"".join(parts)).hexdigest()[:16]


class TraceStep(Record):
    def __init__(self, index: int, tid: int, rule: str, record: Optional[dict] = None) -> None:
        self.__dict__.update(index=index, tid=tid, rule=rule, record=record)


class Terminal(Record):
    # kind: "all_done" | "deadlock" | "stuck" | "budget" | "violation"
    def __init__(self, kind: str, detail: dict) -> None:
        self.__dict__.update(kind=kind, detail=detail)


def _rows_digest(rows: list) -> str:
    """16 hex digits of SHA-256 over the compact JSON of `rows`."""
    return hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode()).hexdigest()[:16]


class Trace(Record, frozen=False):
    # config: the latest configuration, the final one once there is a terminal
    def __init__(self, seed: Optional[int], config: Config,
                 steps: Optional[list[TraceStep]] = None,
                 terminal: Optional[Terminal] = None) -> None:
        self.__dict__.update(seed=seed, config=config, steps=[] if steps is None else steps,
                             terminal=terminal)

    def digest(self) -> str:
        """A text trace's: each step's (index, tid, rule), the terminal kind and final state."""
        return _rows_digest([(s.index, s.tid, s.rule) for s in self.steps]
                            + [self.terminal.kind, config_digest(self.config)])

    def json_digest(self) -> str:
        """A JSON trace's: each step's (index, tid, rule, recorded digest) and the terminal kind."""
        return _rows_digest([(s.index, s.tid, s.rule, s.record["digest"]) for s in self.steps]
                            + [self.terminal.kind])


def step_record(config: Config, snapshots: bool = False) -> dict:
    """A JSON trace's record of a step: the state digest, and the store with `snapshots`."""
    digest = {"digest": config_digest(config)}
    return {**digest, "store": config.store.to_json(pretty)} if snapshots else digest


def detect_deadlock(outcomes: dict[int, StepOutcome]) -> list[int]:
    """Cycle of thread ids in the wait-for graph, or [] when there is none.

    Blocked threads point at the holders of the lock they wait for.  Only
    blocked threads are followed, so an edge to a thread that runs or has
    finished ends the path: a finished holder's locks can never be
    released, but that is a hang, not a cycle.
    """
    edges: dict[int, frozenset[int]] = {}
    for tid, outcome in outcomes.items():
        if isinstance(outcome, BlockedOn):
            edges[tid] = outcome.holders

    # A depth-first search on an explicit stack: `path` is the walk from the
    # root, and `todo` holds each path node's targets not yet tried.
    state: dict[int, int] = {}  # 0 on the path, 1 done
    for root in sorted(edges):
        if root in state:
            continue
        state[root] = 0
        path, todo = [root], [iter(sorted(edges[root]))]
        while todo:
            for target in todo[-1]:
                if target not in edges:
                    continue
                if state.get(target) == 0:
                    return path[path.index(target):]
                if target not in state:
                    state[target] = 0
                    path.append(target)
                    todo.append(iter(sorted(edges[target])))
                    break
            else:
                state[path.pop()] = 1
                todo.pop()
    return []


def classify(config: Config) -> tuple[dict[int, StepOutcome], Optional[Terminal], list[int]]:
    """Try every thread once: (outcomes, terminal or None, sorted steppable tids).

    The terminal is `all_done`, `stuck` (at the lowest stuck tid) or `deadlock`.
    """
    if not config.threads:
        return {}, Terminal("all_done", {}), []
    outcomes = {t.tid: step_thread(config, t.tid) for t in config.threads}
    stuck = [o for o in outcomes.values() if isinstance(o, Stuck)]
    if stuck:
        worst = min(stuck, key=lambda o: o.tid)
        return outcomes, Terminal("stuck", {"thread": worst.tid, "fault": worst.code,
                                            "detail": worst.detail}), []
    steppable = sorted(tid for tid, o in outcomes.items() if not isinstance(o, BlockedOn))
    if not steppable:
        cycle = detect_deadlock(outcomes)
        waits = {str(tid): sorted(o.holders) for tid, o in outcomes.items()}
        return outcomes, Terminal("deadlock", {"cycle": cycle, "waiting": waits}), []
    return outcomes, None, steppable


def _apply_outcome(outcome: Stepped) -> tuple[Config, str]:
    """The chosen step's successor and rule; called once per applied step."""
    return outcome.config, outcome.rule


def run_seeded(main_expr: Expr, seed: int, max_steps: int = 10_000, harness=None,
               record: Optional[Callable[[Config], dict]] = None) -> Trace:
    """Seeded-random scheduling; bit-reproducible for a given (expr, seed).

    A harness checks the initial configuration and every step; the run ends
    at its first violation, at step 0 when the initial check fails.  Each
    step keeps `record(successor configuration)` when `record` is given.
    """
    rng = random.Random(seed)
    trace = Trace(seed, initial_config(main_expr))
    violations = [] if harness is None else harness.observe_init(trace.config)
    while not violations and len(trace.steps) < max_steps:
        outcomes, terminal, steppable = classify(trace.config)
        if terminal is not None:
            at = "steps" if terminal.kind == "all_done" else "step"
            trace.terminal = Terminal(terminal.kind, {**terminal.detail, at: len(trace.steps)})
            return trace
        tid = rng.choice(steppable)
        trace.config, rule = _apply_outcome(outcomes[tid])
        trace.steps.append(TraceStep(len(trace.steps), tid, rule, record and record(trace.config)))
        if harness is not None:
            violations = harness.after_step(tid, outcomes[tid], outcomes)
    if violations:
        trace.terminal = Terminal("violation", {
            "step": trace.steps[-1].index if trace.steps else 0,
            "violations": [v.to_json() for v in violations],
            "trace_prefix": [(s.index, s.tid, s.rule) for s in trace.steps],
        })
    else:
        trace.terminal = Terminal("budget", {"max_steps": max_steps})
    return trace


class ExploreRefusal(Exception):
    pass


class ExploreResult(Record, frozen=False):
    # frontier: the states seen but not expanded when `max_states` stopped the search
    def __init__(self, states: int, terminals: dict[str, int], stuck_reports: list[dict],
                 deadlock_cycles: list[list[int]], budget_hits: int,
                 frontier: Optional[int] = None) -> None:
        self.__dict__.update(states=states, terminals=terminals, stuck_reports=stuck_reports,
                             deadlock_cycles=deadlock_cycles, budget_hits=budget_hits,
                             frontier=frontier)


#: `explore` refuses a state with more live threads than this unless forced.
MAX_THREADS = 3

#: `explore` keeps the stores of its latest expanded states alive.  Store
#: memos hold result stores weakly, and most repeats of an operation come
#: this soon (lock_tree(3): 934 capability updates, 1,815 with none kept).
RECENT = 256


def _shared(config: Config, stores: WeakValueDictionary, terms: WeakValueDictionary) -> Config:
    """`config` with its store and thread terms swapped for those of the
    same digests in `stores` and `terms`, or entered there (see above)."""
    root = config.store.root
    store = stores.setdefault(bytes(16) if root is None else root.digest(), config.store)
    threads = []
    for t in config.threads:
        expr = terms.setdefault(expr_digest(t.expr), t.expr)
        threads.append(t if expr is t.expr else Thread(t.tid, expr))
    return Config(store, tuple(threads), config.next_tid, config.next_loc, config.next_region)


def explore(main_expr: Expr, max_steps: int = 2_000, force: bool = False,
            max_states: Optional[int] = None) -> ExploreResult:
    """Enumerate all interleavings up to a depth bound.

    States are deduplicated by canonical digest.  Refuses configurations
    with more than `MAX_THREADS` live threads unless forced.  With
    `max_states`, stops once that many states are expanded, and the result
    gives the size of the frontier left.
    """
    # The initial configuration is not kept: a stepped term holds its
    # successor, so it would keep every term the search reaches alive.
    frontier: list[tuple[Config, int]] = [(initial_config(main_expr), 0)]
    seen: set[str] = {config_digest(frontier[0][0])}
    terminals: dict[str, int] = {}
    stuck_reports: list[dict] = []
    cycles: list[list[int]] = []
    budget_hits = 0
    states = 0
    recent: deque[Store] = deque(maxlen=RECENT)
    stores, terms = WeakValueDictionary(), WeakValueDictionary()  # see `_shared`

    while frontier:
        if states == max_states:
            return ExploreResult(states, terminals, stuck_reports, cycles, budget_hits,
                                 len(frontier))
        config, depth = frontier.pop()
        recent.append(config.store)
        states += 1
        if len(config.threads) > MAX_THREADS and not force:
            raise ExploreRefusal(
                f"state with {len(config.threads)} threads exceeds the limit of "
                f"{MAX_THREADS}; re-run with force to override")
        outcomes, terminal, steppable = classify(config)
        if terminal is not None:
            terminals[terminal.kind] = terminals.get(terminal.kind, 0) + 1
            if terminal.kind == "stuck":
                stuck_reports.append({**terminal.detail, "depth": depth})
            elif terminal.kind == "deadlock":
                cycle = terminal.detail["cycle"]
                if cycle and cycle not in cycles:
                    cycles.append(cycle)
            continue
        if depth >= max_steps:
            budget_hits += 1
            continue
        for tid in steppable:
            nxt, _ = _apply_outcome(outcomes[tid])
            digest = config_digest(nxt)
            if digest not in seen:
                seen.add(digest)
                frontier.append((_shared(nxt, stores, terms), depth + 1))

    return ExploreResult(states, terminals, stuck_reports, cycles, budget_hits)
