"""The small-step machine: evaluation contexts, thread steps, schedulers.

Evaluation is call-by-value, left to right.  An evaluation context is data:
a list of frames, each a node and the evaluation position that holds the
hole, found by a loop over the table `EVAL_FIELDS`.  Decomposing a term and
plugging a reduct back cost no recursion, however deep the context.

Each configuration holds the store, the active threads, and the counters
that keep fresh names deterministic across interleavings.  Scheduling is
simulated: a seeded scheduler picks uniformly among threads that can step,
and an exhaustive scheduler enumerates every interleaving up to a step
bound, deduplicating states by a canonical digest.

State digests are Merkle digests: every term node and region node caches a
hash of its own fields and its children's digests (`syntax.expr_digest`,
`RegionNode.digest`), so a step pays only for the nodes it rebuilt.  They
use hashlib, never `hash()`, and are the same across processes and
`PYTHONHASHSEED` values.

A thread that cannot step is either blocked on a lock (retried every tick)
or stuck, which aborts the run with a soundness report: well-typed programs
never get stuck.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Union

from .parser import pretty
from .store import Blocked, Store, StoreFault, initial_store
from .syntax import (
    HEAP,
    SEQ_MODE,
    UNIT_VALUE,
    App,
    Assign,
    Cap,
    Const,
    Deref,
    Effect,
    Expr,
    If,
    Lambda,
    LocVal,
    NewRef,
    NewRgn,
    ParMode,
    Prim,
    RegionApp,
    RegionLambda,
    RegionLit,
    RgnVal,
    Seq,
    UnitVal,
    Var,
    While,
    expr_digest,
    is_value,
    subst_region_expr,
    subst_var,
)


@dataclass(frozen=True)
class Thread:
    tid: int
    expr: Expr


@dataclass(frozen=True)
class Config:
    store: Store
    threads: tuple[Thread, ...]
    next_tid: int
    next_loc: int
    next_region: int

    def thread(self, tid: int) -> Thread:
        for t in self.threads:
            if t.tid == tid:
                return t
        raise KeyError(tid)

    def with_thread_expr(self, tid: int, expr: Expr) -> "Config":
        threads = tuple(Thread(t.tid, expr) if t.tid == tid else t for t in self.threads)
        return replace(self, threads=threads)

    def without_thread(self, tid: int) -> "Config":
        return replace(self, threads=tuple(t for t in self.threads if t.tid != tid))


def initial_config(main_expr: Expr) -> Config:
    """S0 with the heap region, and thread 1 running main[heap](rgn heap)."""
    body = App(RegionApp(main_expr, HEAP), RgnVal(HEAP), SEQ_MODE)
    return Config(initial_store(HEAP, 1), (Thread(1, body),),
                  next_tid=2, next_loc=1, next_region=1)


# ---------------------------------------------------------------------------
# Decomposition into evaluation context and redex
# ---------------------------------------------------------------------------

Plug = Callable[[Expr], Expr]

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

    Returns None when e is a value.  The context is a list of frames, each
    a (node, field name or `Prim` operand index) pair from the root down;
    `plug` puts a reduct into the hole and rebuilds the frames bottom-up.
    """
    if is_value(e):
        return None
    frames: list[tuple[Expr, Union[str, int]]] = []

    def plug(x: Expr) -> Expr:
        for node, pos in reversed(frames):
            if type(pos) is int:
                x = Prim(node.op, node.args[:pos] + (x,) + node.args[pos + 1:], node.loc)
            else:
                x = replace(node, **{pos: x})
        return x

    while True:
        names = EVAL_FIELDS.get(type(e))
        if names is not None:
            positions = zip(names, map(e.__getattribute__, names))
        elif type(e) is Prim:
            positions = enumerate(e.args)
        elif isinstance(e, Var):
            raise MalformedTerm(f"free variable {e.name!r} at runtime")
        else:
            raise MalformedTerm(f"cannot decompose {type(e).__name__}")
        for pos, sub in positions:
            if not is_value(sub):
                frames.append((e, pos))
                e = sub
                break
        else:
            return e, plug


class MalformedTerm(Exception):
    pass


# ---------------------------------------------------------------------------
# Step outcomes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Stepped:
    config: Config
    rule: str
    # Rule-specific payload for the metatheory harness:
    #  E-NG -> (parent_lit, new_lit); E-NR -> (location, value);
    #  E-AS -> (location, value); E-C -> (op, region_lit); else None.
    info: Optional[tuple] = None


@dataclass(frozen=True)
class Done:
    tid: int


@dataclass(frozen=True)
class Spawned:
    config: Config
    parent: int
    child: int
    transferred: Effect


@dataclass(frozen=True)
class BlockedOn:
    tid: int
    region: RegionLit
    holders: frozenset[int]


@dataclass(frozen=True)
class Stuck:
    tid: int
    code: str
    detail: str


StepOutcome = Union[Stepped, Done, Spawned, BlockedOn, Stuck]


def _prim_eval(op: str, args: tuple[Expr, ...]) -> Expr:
    vals = []
    for a in args:
        assert isinstance(a, Const)
        vals.append(a.value)
    if op == "!":
        return Const(not vals[0])
    a, b = vals
    table = {
        "+": lambda: a + b, "-": lambda: a - b, "*": lambda: a * b,
        "<": lambda: a < b, "<=": lambda: a <= b,
        "==": lambda: a == b, "!=": lambda: a != b,
        "&&": lambda: a and b, "||": lambda: a or b,
    }
    return Const(table[op]())


def step_thread(config: Config, tid: int) -> StepOutcome:
    """One thread-level step: finish (E-T), spawn (E-SN) or reduce (E-S)."""
    thread = config.thread(tid)
    e = thread.expr
    if isinstance(e, Const) and isinstance(e.value, UnitVal):
        return Done(tid)
    try:
        found = decompose(e)
    except MalformedTerm as exc:
        return Stuck(tid, "MalformedTerm", str(exc))
    if found is None:
        return Stuck(tid, "NonUnitTerminal",
                     f"thread reduced to a non-unit value {pretty(e)}")
    redex, plug = found

    if isinstance(redex, App) and isinstance(redex.mode, ParMode):
        transfer = redex.mode.transfer
        if transfer is None:
            return Stuck(tid, "MissingSpawnAnnotation",
                         "spawn reached without a transfer annotation")
        child_tid = config.next_tid
        try:
            store = config.store.transfer(tid, child_tid, transfer)
        except StoreFault as exc:
            return Stuck(tid, exc.code, exc.message)
        child = Thread(child_tid, App(redex.fn, redex.arg, SEQ_MODE, redex.loc))
        parent = config.with_thread_expr(tid, plug(Const(UNIT_VALUE)))
        new_config = replace(parent, store=store, threads=parent.threads + (child,),
                             next_tid=child_tid + 1)
        return Spawned(new_config, tid, child_tid, transfer)

    return _step_expr(config, tid, redex, plug)


def _step_expr(config: Config, tid: int, redex: Expr, plug: Plug) -> StepOutcome:
    store = config.store

    def done(expr: Expr, rule: str, *, new_store: Store = None,
             info: Optional[tuple] = None, **counters) -> Stepped:
        cfg = config.with_thread_expr(tid, plug(expr))
        if new_store is not None:
            cfg = replace(cfg, store=new_store)
        if counters:
            cfg = replace(cfg, **counters)
        return Stepped(cfg, rule, info)

    try:
        if isinstance(redex, App):
            fn = redex.fn
            if not isinstance(fn, Lambda):
                return Stuck(tid, "BadApplication",
                             f"application of non-function {pretty(fn)}")
            return done(subst_var(fn.body, fn.param, redex.arg), "E-A")
        if isinstance(redex, RegionApp):
            fn = redex.fn
            if not isinstance(fn, RegionLambda):
                return Stuck(tid, "BadRegionApplication",
                             f"region application of {pretty(fn)}")
            assert isinstance(redex.region, RegionLit), \
                "region application must be instantiated at runtime"
            return done(subst_region_expr(fn.body, fn.var, redex.region), "E-RP")
        if isinstance(redex, NewRgn):
            handle = redex.parent_handle
            if not isinstance(handle, RgnVal):
                return Stuck(tid, "BadHandle", f"newrgn at non-handle {pretty(handle)}")
            name = f"r{config.next_region}"
            new_store, rid = store.newrgn(handle.region, tid, name)
            body = subst_region_expr(redex.body, redex.var, rid)
            body = subst_var(body, redex.handle_name, RgnVal(rid))
            return done(body, "E-NG", new_store=new_store,
                        info=(handle.region, rid), next_region=config.next_region + 1)
        if isinstance(redex, NewRef):
            handle = redex.handle
            if not isinstance(handle, RgnVal):
                return Stuck(tid, "BadHandle", f"new at non-handle {pretty(handle)}")
            new_store, loc = store.alloc(handle.region, config.next_loc, redex.init)
            return done(LocVal(loc), "E-NR", new_store=new_store,
                        info=(loc, redex.init), next_loc=config.next_loc + 1)
        if isinstance(redex, Deref):
            ref = redex.ref
            if not isinstance(ref, LocVal):
                return Stuck(tid, "BadDeref", f"deref of non-location {pretty(ref)}")
            value = store.lookup(ref.location, tid)
            return done(value, "E-D")
        if isinstance(redex, Assign):
            ref = redex.target
            if not isinstance(ref, LocVal):
                return Stuck(tid, "BadAssign", f"assignment to non-location {pretty(ref)}")
            new_store = store.update(ref.location, redex.value, tid)
            return done(Const(UNIT_VALUE), "E-AS", new_store=new_store,
                        info=(ref.location, redex.value))
        if isinstance(redex, Cap):
            handle = redex.handle
            if not isinstance(handle, RgnVal):
                return Stuck(tid, "BadHandle",
                             f"capability operation on non-handle {pretty(handle)}")
            result = store.updcap(redex.op, handle.region, tid)
            if isinstance(result, Blocked):
                return BlockedOn(tid, result.region, result.holders)
            return done(Const(UNIT_VALUE), "E-C", new_store=result,
                        info=(redex.op, handle.region))
        if isinstance(redex, If):
            cond = redex.cond
            if not (isinstance(cond, Const) and isinstance(cond.value, bool)):
                return Stuck(tid, "BadCondition", f"if on non-boolean {pretty(cond)}")
            return done(redex.then if cond.value else redex.orelse, "E-IF")
        if isinstance(redex, Seq):
            return done(redex.second, "E-SEQ")
        if isinstance(redex, While):
            unrolled = If(redex.cond, Seq(redex.body, redex, redex.loc),
                          Const(UNIT_VALUE), redex.loc)
            return done(unrolled, "E-WHILE")
        if isinstance(redex, Prim):
            try:
                return done(_prim_eval(redex.op, redex.args), "E-OP")
            except (AssertionError, KeyError, TypeError):
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
    for t in sorted(config.threads, key=lambda t: t.tid):
        parts += [f"{t.tid}\0".encode(), expr_digest(t.expr)]
    parts.append(f"{config.next_tid},{config.next_loc},{config.next_region}".encode())
    return hashlib.sha256(b"".join(parts)).hexdigest()[:16]


@dataclass(frozen=True)
class TraceStep:
    index: int
    tid: int
    rule: str
    digest: str
    snapshot: Optional[dict] = None


@dataclass(frozen=True)
class Terminal:
    kind: str  # "all_done" | "deadlock" | "stuck" | "budget" | "violation"
    detail: dict


@dataclass
class Trace:
    seed: Optional[int]
    steps: list[TraceStep] = field(default_factory=list)
    terminal: Optional[Terminal] = None

    def digest(self) -> str:
        blob = json.dumps([(s.index, s.tid, s.rule, s.digest) for s in self.steps]
                          + [self.terminal.kind if self.terminal else None],
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def detect_deadlock(outcomes: dict[int, StepOutcome], active: frozenset[int]) -> list[int]:
    """Cycle of thread ids in the wait-for graph, or [] when there is none.

    Blocked threads point at the active holders of the lock they wait for;
    edges to finished threads are dropped (their locks can never be
    released, but that is a hang, not a cycle).
    """
    edges: dict[int, frozenset[int]] = {}
    for tid, outcome in outcomes.items():
        if isinstance(outcome, BlockedOn):
            edges[tid] = outcome.holders & active

    state: dict[int, int] = {}  # 0 visiting, 1 done
    stack: list[int] = []

    def visit(node: int) -> Optional[list[int]]:
        state[node] = 0
        stack.append(node)
        for target in sorted(edges.get(node, ())):
            if target not in edges:
                continue
            if state.get(target) == 0:
                return stack[stack.index(target):]
            if target not in state:
                cycle = visit(target)
                if cycle is not None:
                    return cycle
        stack.pop()
        state[node] = 1
        return None

    for node in sorted(edges):
        if node not in state:
            cycle = visit(node)
            if cycle is not None:
                return cycle
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
        cycle = detect_deadlock(outcomes, frozenset(outcomes))
        waits = {str(tid): sorted(o.holders) for tid, o in outcomes.items()}
        return outcomes, Terminal("deadlock", {"cycle": cycle, "waiting": waits}), []
    return outcomes, None, steppable


def _apply_outcome(config: Config, outcome: StepOutcome) -> tuple[Config, str]:
    if isinstance(outcome, Stepped):
        return outcome.config, outcome.rule
    if isinstance(outcome, Done):
        return config.without_thread(outcome.tid), "E-T"
    if isinstance(outcome, Spawned):
        return outcome.config, "E-SN"
    raise TypeError(f"cannot apply {outcome!r}")


class SoundnessViolation(Exception):
    """Raised when a run reaches a state the type system should forbid."""

    def __init__(self, report: dict):
        super().__init__(json.dumps(report, indent=2, default=str))
        self.report = report


def run_seeded(main_expr: Expr, seed: int, max_steps: int = 10_000,
               harness=None, snapshots: bool = False) -> Trace:
    """Seeded-random scheduling; bit-reproducible for a given (expr, seed)."""
    rng = random.Random(seed)
    config = initial_config(main_expr)
    trace = Trace(seed)
    if harness is not None:
        try:
            harness.observe_init(config)
        except SoundnessViolation as exc:
            trace.terminal = Terminal("violation", {**exc.report, "trace_prefix": []})
            return trace
    for index in range(max_steps):
        outcomes, terminal, steppable = classify(config)
        if terminal is not None:
            at = "steps" if terminal.kind == "all_done" else "step"
            trace.terminal = Terminal(terminal.kind, {**terminal.detail, at: index})
            return trace
        tid = rng.choice(steppable)
        before = config
        config, rule = _apply_outcome(config, outcomes[tid])
        snap = config.store.to_json(pretty) if snapshots else None
        trace.steps.append(TraceStep(index, tid, rule, config_digest(config), snap))
        if harness is not None:
            violations = harness.after_step(index, before, tid, outcomes[tid],
                                            config, outcomes)
            if violations:
                trace.terminal = Terminal("violation", {
                    "step": index,
                    "violations": [v.to_json() for v in violations],
                    "trace_prefix": [(s.index, s.tid, s.rule) for s in trace.steps],
                })
                return trace
    trace.terminal = Terminal("budget", {"max_steps": max_steps})
    return trace


class ExploreRefusal(Exception):
    pass


@dataclass
class ExploreResult:
    states: int
    terminals: dict[str, int]
    stuck_reports: list[dict]
    deadlock_cycles: list[list[int]]
    budget_hits: int

    @property
    def clean(self) -> bool:
        return not self.stuck_reports and self.budget_hits == 0


def explore(main_expr: Expr, max_steps: int = 2_000, max_threads: int = 3,
            force: bool = False) -> ExploreResult:
    """Enumerate all interleavings up to a depth bound.

    States are deduplicated by canonical digest.  Refuses configurations
    with more than `max_threads` live threads unless forced.
    """
    start = initial_config(main_expr)
    seen: set[str] = set()
    terminals: dict[str, int] = {}
    stuck_reports: list[dict] = []
    cycles: list[list[int]] = []
    budget_hits = 0
    frontier: list[tuple[Config, int]] = [(start, 0)]
    seen.add(config_digest(start))
    states = 0

    while frontier:
        config, depth = frontier.pop()
        states += 1
        if len(config.threads) > max_threads and not force:
            raise ExploreRefusal(
                f"state with {len(config.threads)} threads exceeds the limit of "
                f"{max_threads}; re-run with force to override")
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
            nxt, _ = _apply_outcome(config, outcomes[tid])
            digest = config_digest(nxt)
            if digest not in seen:
                seen.add(digest)
                frontier.append((nxt, depth + 1))

    return ExploreResult(states, terminals, stuck_reports, cycles, budget_hits)
