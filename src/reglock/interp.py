"""The small-step machine: refocused CEK threads, polls and schedulers.

Evaluation is call-by-value, left to right.  A thread is a CEK state
(Felleisen & Friedman, 1986): a term, `control`, under an environment, in
the hole of a context, a persistent list of `Frame`s from the hole out.  A
frame holds a node, its environment, the hole's position among the node's
`EVAL_FIELDS` (a `Prim` has one per operand) and the values left of it.
`decompose` finds the next redex by refocusing (Danvy & Nielsen, BRICS
RS-04-26, 2004): a loop that pushes a frame to go down and pops one when a
value comes back, from where the last reduct was put, not from the root.  A
step neither plugs nor pushes, and nothing recurses.

The machine binds instead of substituting: E-A, E-RP and E-NG run the body
they enter under its environment extended by the new bindings, so a
program body keeps its cached digest and free names for the whole run.  A
function value is closed over its environment (`syntax.Closure`), and a
value that leaves its thread (stored by E-NR or E-AS, or a spawn's
argument) is read back (`syntax.read_back`), so the store holds no closure.

A thread stands for a term, `Thread.expr`: its frames plugged around its
control closed over its environment, which digests and `explore`'s sharing
read and a bare run never builds, nor the harness unless its check by
frames (`Frame.judged`) falls back.  A frame plugs into its node's push
(`syntax.push`), made once and handed on as the hole moves right, and
`decompose` enters a closure through the push its digest kept, so an
unchanged subterm keeps its digest.

Scheduling is simulated: a seeded scheduler picks uniformly among threads
that can step, and `explore` enumerates every interleaving up to a step
bound, deduplicating states by a canonical digest.  Each tick polls every
live thread (`poll`): `Ready` (a finished thread's step is E-T),
`BlockedOn` a lock (retried) or `Stuck`, which ends the run with a
soundness report.  A poll builds no configuration and no thread state.  It
refocuses a thread state once, keeping the redex on it, and runs the
redex's store operation through the store's memo, so blocking and faults
are decided as the step finds them.  Only the chosen thread steps, into one
`Stepped`: the successor configuration, the rule and its payload.
A successor that reads only its state (E-A, E-RP, E-IF, E-SEQ, E-WHILE,
E-OP, and the `()` of E-C, E-AS and E-SN) is kept on that state.

Digests are Merkle digests, made with hashlib, so they are the same in
every process.  `explore` digests every state, a seeded run only its final
one and each step's for a `record`.  A successor new to `explore` has its
store and thread states swapped for the first objects of their digests
(`_shared`), so each distinct thread state is refocused, and each distinct
store's operations computed, once.  Equal digests mean equal read-backs,
which is all a rule reads.
"""

from __future__ import annotations

import hashlib
import json
import operator
import random
from collections import deque
from functools import partial
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
    Effect,
    Env,
    Expr,
    If,
    Lambda,
    Loc,
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
    Var,
    While,
    close,
    expr_digest,
    push,
    read_back,
    subst_regions,
)


class Frame:
    """`node` under `env` with the hole at its evaluation position `pos`,
    after the values `left`; `outer` is the next frame out, and `pushed`
    the node's push once `Thread.expr` has made it, and `judged` what the
    harness found its hole to produce (`meta`).  Compared by identity."""

    __slots__ = ("node", "env", "pos", "left", "outer", "pushed", "judged")

    def __init__(self, node: Expr, env: Env, pos: int, left: tuple, outer: Optional[Frame],
                 pushed: Optional[Expr] = None) -> None:
        self.node, self.env, self.pos, self.left = node, env, pos, left
        self.outer, self.pushed, self.judged = outer, pushed, None


class Thread(Record):
    """`control` under `env` in the hole of `frames`, a CEK state (see the
    module docstring); a closed term is a thread on its own."""

    def __init__(self, tid: int, control: Expr, env: Env = EMPTY_ENV,
                 frames: Optional[Frame] = None) -> None:
        self.__dict__.update(tid=tid, control=control, env=env, frames=frames)

    @property
    def expr(self) -> Expr:
        """The term the state stands for, made once and kept, with the
        control's closure (`_focused`): for digests, and for the harness
        only when its check by frames falls back (`meta`)."""
        e = self.__dict__.get("_expr")
        if e is None:
            e = self.control
            if self.env:
                e = close(e, self.env)
                object.__setattr__(self, "_inner", e)
            frame = self.frames
            while frame is not None:
                e, frame = _plug(frame, e), frame.outer
            object.__setattr__(self, "_expr", e)
        return e


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

    def with_thread(self, thread: Thread, store: Optional[Store] = None,
                    next_loc: Optional[int] = None,
                    next_region: Optional[int] = None) -> "Config":
        """`thread` in place of its tid's, with any store or counter given."""
        tid = thread.tid
        threads = tuple([thread if t.tid == tid else t for t in self.threads])
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
# Refocusing
# ---------------------------------------------------------------------------

#: The `()` that E-SN, E-AS and E-C put in the hole: one term, hashed once.
UNIT = Const(UNIT_VALUE)

#: Each compound form's evaluation positions, left to right.  The hole is at
#: one of them, and a node whose positions all hold values is the redex.
EVAL_FIELDS: dict[type, tuple[str, ...]] = {
    App: ("fn", "arg"), RegionApp: ("fn",), NewRef: ("init", "handle"),
    Deref: ("ref",), Assign: ("target", "value"), NewRgn: ("parent_handle",),
    Cap: ("handle",), If: ("cond",), Seq: ("first",), While: (),
}


def _getter(names: tuple[str, ...]) -> Callable[[Expr], tuple]:
    """A node's fields `names` as a tuple, fetched in C where it can be."""
    get = operator.attrgetter(*names) if names else None
    return get if len(names) > 1 else (lambda e: (get(e),)) if names else (lambda e: ())


#: A node's subterms at its evaluation positions, as a tuple.
_OPERANDS = {form: _getter(names) for form, names in EVAL_FIELDS.items()}
_OPERANDS[Prim] = operator.attrgetter("args")

#: Where `EVAL_FIELDS` sit among each form's constructor arguments.
_HOLES = {form: tuple(map(_FIELDS[form].index, names)) for form, names in EVAL_FIELDS.items()}

_FUNCTIONS = (Lambda, RegionLambda)


class MalformedTerm(Exception):
    pass


def _value(e: Expr, env: Env) -> Optional[Expr]:
    """The value `e` under `env` is at once, or None for a term with a redex."""
    form = type(e)
    if form is Var:
        value = env.get(e.name)
        if value is None:
            raise MalformedTerm(f"free variable {e.name!r} at runtime")
        return value
    if form is Const or form is RgnVal or form is LocVal:
        return e
    if form in _FUNCTIONS:
        return Closure(e, env) if env else e
    return e if form is Closure and type(e.body) in _FUNCTIONS else None


def decompose(control: Expr, env: Env = EMPTY_ENV,
              frames: Optional[Frame] = None) -> Union[Frame, Expr]:
    """The redex of `control` under `env` in the hole of `frames`: a frame
    whose every position holds a value, or, in an empty context, the value
    the thread ended with.  Raises MalformedTerm at a free variable or an
    unknown form.  A closure is entered through the push its digest kept,
    else as its body under its bindings."""
    value = _value(control, env)
    while True:
        if value is None:  # a compound term: search it from its first position
            if type(control) is Closure:
                kept = getattr(control, _PUSHED, None)
                control, env = (control.body, control.env) if kept is None else (kept, EMPTY_ENV)
                value = _value(control, env)
                continue
            node, pos, left, outer, pushed = control, 0, (), frames, None
        elif frames is None:
            return value
        else:  # the value fills the innermost hole
            node, env, pos, left = frames.node, frames.env, frames.pos + 1, frames.left + (value,)
            outer, pushed = frames.outer, frames.pushed
        operands = _OPERANDS.get(type(node))
        if operands is None:
            raise MalformedTerm(f"cannot decompose {type(node).__name__}")
        operands = operands(node)
        while pos < len(operands):
            control = operands[pos]
            value = _value(control, env)
            if value is None:
                break
            left += (value,)
            pos += 1
        else:
            return Frame(node, env, pos, left, outer, pushed)
        frames = Frame(node, env, pos, left, outer, pushed)


def _plug(frame: Frame, inner: Expr) -> Expr:
    """`frame`'s node, pushed, with its values left of the hole and `inner` in it."""
    node = frame.pushed
    if node is None:
        node = frame.pushed = push(Closure(frame.node, frame.env)) if frame.env else frame.node
    filled = frame.left + (inner,)
    if type(node) is Prim:
        return Prim(node.op, filled + node.args[len(filled):], node.loc)
    values = list(map(node.__getattribute__, _FIELDS[type(node)]))
    for i, v in zip(_HOLES[type(node)], filled):
        values[i] = v
    return type(node)(*values, node.loc)


def _focused(thread: Thread) -> Union[Frame, Expr, MalformedTerm]:
    """The state's `decompose`, or the MalformedTerm it raised, found once
    and kept.  It starts at the control's closure once `Thread.expr` has
    made one, so later terms keep what that closure keeps, and a state that
    `explore` found the twin of another thread's takes that one's."""
    found = thread.__dict__.get("_focus")
    if found is None:
        twin, inner = thread.__dict__.get("_twin"), thread.__dict__.get("_inner")
        control, env = (thread.control, thread.env) if inner is None else (inner, EMPTY_ENV)
        try:
            found = _focused(twin) if twin is not None else decompose(control, env,
                                                                       thread.frames)
        except MalformedTerm as exc:
            found = exc.with_traceback(None)  # whose frames would hold `thread`
        object.__setattr__(thread, "_focus", found)
    return found


# ---------------------------------------------------------------------------
# Polls and steps
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


class Ready(partial):
    """A thread that can step: its rule's maker of the `Stepped` with the
    arguments, the configuration and thread first.  `stepped` makes the
    step once, through `step_thread`."""

    @property
    def stepped(self) -> Stepped:
        step = self.__dict__.get("stepped")
        if step is None:
            args = self.args
            step = self.__dict__["stepped"] = step_thread(args[0], args[1].tid, self)
        return step


class BlockedOn(Record):
    # loc: the waiting `lock`'s place in the source
    def __init__(self, tid: int, region: RegionLit, holders: frozenset[int],
                 loc: Optional[Loc] = None) -> None:
        self.__dict__.update(tid=tid, region=region, holders=holders, loc=loc)


class Stuck(Record):
    def __init__(self, tid: int, code: str, detail: str) -> None:
        self.__dict__.update(tid=tid, code=code, detail=detail)


StepOutcome = Union[Ready, Stepped, BlockedOn, Stuck]


def _prim_eval(op: str, args: tuple[Expr, ...]) -> Expr:
    vals = []
    for a in args:
        if not isinstance(a, Const):
            raise TypeError(f"operand {type(a).__name__} is not a constant")
        vals.append(a.value)
    return Const((PRIM_UNARY.get(op) or PRIM_BINARY[op])[-1](*vals))


def _opened(e: Expr, env: Env = EMPTY_ENV) -> tuple[Expr, Env]:
    """A closure's body and bindings; any other term under `env`."""
    return (e.body, e.env) if type(e) is Closure else (e, env)


def _delayed(redex: Frame, name: str) -> tuple[Expr, Env]:
    """The redex's subterm `name` under its environment: the closure in the
    redex's push when `Thread.expr` has made one, which keeps its digest."""
    if redex.pushed is None:
        return getattr(redex.node, name), redex.env
    return getattr(redex.pushed, name), EMPTY_ENV


def _finished(config: Config, thread: Thread) -> Stepped:
    return Stepped(config.without_thread(thread.tid), "E-T")


def _successor(thread: Thread, rule: Optional[str], control: Expr, env: Env = EMPTY_ENV,
               bindings: Optional[dict] = None, keep: bool = True) -> Thread:
    """`control` under `env` and `bindings` in the hole of `thread`'s redex;
    with `keep`, made once and kept on `thread` with `rule`, term-only, or
    None (the `()` of E-C, E-AS and E-SN).  A body that `push` closed over
    its binder's surroundings is opened."""
    kept = thread.__dict__.get("_next")
    if kept is None or not keep:
        if bindings is not None:
            control, env = _opened(control, env)
            env = env.extend(bindings)
        kept = (rule, Thread(thread.tid, control, env, thread.__dict__["_focus"].outer))
        if keep:
            object.__setattr__(thread, "_next", kept)
    return kept[1]


def _kept(config: Config, thread: Thread, rule: str, control: Expr, env: Env = EMPTY_ENV,
          bindings: Optional[dict] = None, store: Optional[Store] = None,
          info: Optional[tuple] = None, keep: bool = True, next_loc: Optional[int] = None,
          next_region: Optional[int] = None) -> Stepped:
    """The step to `_successor`'s thread, term-only unless it leaves `store`;
    a successor that reads the configuration is not kept."""
    successor = _successor(thread, rule if store is None else None, control, env, bindings, keep)
    return Stepped(config.with_thread(successor, store, next_loc, next_region), rule, info)


def _unrolled(config: Config, thread: Thread, loop: While, env: Env) -> Stepped:
    """E-WHILE: `if cond then (body; loop) else ()`."""
    unrolled = If(loop.cond, Seq(loop.body, loop, loop.loc), UNIT, loop.loc)
    return _kept(config, thread, "E-WHILE", unrolled, env)


def _spawned(config: Config, thread: Thread, store: Store, fn: Expr, arg: Expr,
             transfer: Effect, loc: Optional[Loc]) -> Stepped:
    """E-SN: `()` in the spawner's hole and a new thread running `fn(arg)`."""
    child_tid = config.next_tid
    child = Thread(child_tid, App(fn, read_back(arg), SEQ_MODE, loc))
    parent = _successor(thread, None, UNIT)
    threads = tuple([parent if t.tid == thread.tid else t for t in config.threads])
    return Stepped(Config(store, threads + (child,), child_tid + 1, config.next_loc,
                          config.next_region), "E-SN", (child_tid, transfer))


def poll(config: Config, thread: Thread) -> StepOutcome:
    """`thread`'s outcome in `config`.  It builds no configuration and no
    thread state: a `Ready`'s step is made only when `stepped` asks."""
    tid, kept = thread.tid, thread.__dict__.get("_next")
    if kept is not None and kept[0] is not None:  # a term-only rule's
        return Ready(_kept, config, thread, kept[0], None)
    redex = _focused(thread)
    if type(redex) is not Frame:
        if type(redex) is MalformedTerm:
            return Stuck(tid, "MalformedTerm", str(redex))
        if type(redex) is Const and redex.value is UNIT_VALUE:
            return Ready(_finished, config, thread)
        return Stuck(tid, "NonUnitTerminal", f"thread reduced to a non-unit value {pretty(redex)}")
    node, env, vals, store = redex.node, redex.env, redex.left, config.store
    form = type(node)
    try:
        if form is Cap:
            handle = vals[0]
            if not isinstance(handle, RgnVal):
                return Stuck(tid, "BadHandle",
                             f"capability operation on non-handle {pretty(handle)}")
            result = store.updcap(node.op, handle.region, tid)
            if isinstance(result, Blocked):
                return BlockedOn(tid, result.region, result.holders, node.loc)
            return Ready(_kept, config, thread, "E-C", UNIT, EMPTY_ENV, None, result,
                         (node.op, handle.region))
        if form is Seq:
            return Ready(_kept, config, thread, "E-SEQ", *_delayed(redex, "second"))
        if form is App:
            fn, fn_env = _opened(vals[0])
            if type(node.mode) is not ParMode:
                if not isinstance(fn, Lambda):
                    return Stuck(tid, "BadApplication",
                                 f"application of non-function {pretty(vals[0])}")
                return Ready(_kept, config, thread, "E-A", fn.body, fn_env, {fn.param: vals[1]})
            # A spawn moves the callee's input effect, or the annotation the
            # checker required to equal it: one interned object per term, on
            # which the store's memo keys.
            transfer = node.mode.transfer
            if transfer is None:
                if not isinstance(fn, Lambda):
                    return Stuck(tid, "BadApplication", f"spawn of non-function {pretty(vals[0])}")
                transfer = subst_regions(fn.effect_in, fn_env.regions)
            else:
                transfer = subst_regions(transfer, env.regions)
            store = store.transfer(tid, config.next_tid, transfer)
            return Ready(_spawned, config, thread, store, vals[0], vals[1], transfer, node.loc)
        if form is Deref:
            ref = vals[0]
            if not isinstance(ref, LocVal):
                return Stuck(tid, "BadDeref", f"deref of non-location {pretty(ref)}")
            return Ready(_kept, config, thread, "E-D", store.lookup(ref.location, tid), EMPTY_ENV,
                         None, None, None, False)
        if form is Assign:
            ref = vals[0]
            if not isinstance(ref, LocVal):
                return Stuck(tid, "BadAssign", f"assignment to non-location {pretty(ref)}")
            value = read_back(vals[1])
            return Ready(_kept, config, thread, "E-AS", UNIT, EMPTY_ENV, None,
                         store.update(ref.location, value, tid), (ref.location, value))
        if form is Prim:
            try:
                value = _prim_eval(node.op, vals)
            except (KeyError, TypeError):
                return Stuck(tid, "BadPrimitive",
                             f"cannot evaluate {pretty(Prim(node.op, vals, node.loc))}")
            return Ready(_kept, config, thread, "E-OP", value)
        if form is If:
            cond = vals[0]
            if not (isinstance(cond, Const) and isinstance(cond.value, bool)):
                return Stuck(tid, "BadCondition", f"if on non-boolean {pretty(cond)}")
            return Ready(_kept, config, thread, "E-IF",
                         *_delayed(redex, "then" if cond.value else "orelse"))
        if form is RegionApp:
            fn, fn_env = _opened(vals[0])
            if not isinstance(fn, RegionLambda):
                return Stuck(tid, "BadRegionApplication",
                             f"region application of {pretty(vals[0])}")
            region = env.regions.get(node.region, node.region)
            if not isinstance(region, RegionLit):
                return Stuck(tid, "MalformedTerm", f"region application at the variable {region}")
            return Ready(_kept, config, thread, "E-RP", fn.body, fn_env, {fn.var: region})
        if form is NewRgn:
            handle = vals[0]
            if not isinstance(handle, RgnVal):
                return Stuck(tid, "BadHandle", f"newrgn at non-handle {pretty(handle)}")
            new_store, rid = store.newrgn(handle.region, tid, f"r{config.next_region}")
            return Ready(_kept, config, thread, "E-NG", node.body, env,
                         {node.var: rid, node.handle_name: RgnVal(rid)}, new_store,
                         (handle.region, rid), False, None, config.next_region + 1)
        if form is NewRef:
            handle = vals[1]
            if not isinstance(handle, RgnVal):
                return Stuck(tid, "BadHandle", f"new at non-handle {pretty(handle)}")
            init = read_back(vals[0])
            new_store, loc = store.alloc(handle.region, config.next_loc, init)
            return Ready(_kept, config, thread, "E-NR", LocVal(loc), EMPTY_ENV, None, new_store,
                         (loc, init), False, config.next_loc + 1)
        return Ready(_unrolled, config, thread, node, env)  # a While, the form left
    except StoreFault as exc:
        return Stuck(tid, exc.code, exc.message)


def step_thread(config: Config, tid: int, polled: Optional[Ready] = None) -> StepOutcome:
    """One thread-level step: finish (E-T), spawn (E-SN) or reduce (E-S);
    or why the thread cannot step.  `polled` is the thread's `Ready` from a
    poll of `config`, when the scheduler has one."""
    outcome = polled or poll(config, config.thread(tid))
    return outcome() if isinstance(outcome, Ready) else outcome


# ---------------------------------------------------------------------------
# Traces and digests
# ---------------------------------------------------------------------------


def _thread_digest(t: Thread) -> bytes:
    """A thread's tid and term digest, as `config_digest` hashes them, kept on it."""
    digest = b"%d\0" % t.tid + expr_digest(t.expr)
    object.__setattr__(t, "_digest", digest)
    return digest


def config_digest(config: Config) -> str:
    """16 hex digits of SHA-256 over the root region's digest, each
    thread's (tid, term digest) in tid order, and the three counters."""
    root = config.store.root
    parts = [bytes(16) if root is None else root.digest()]
    for t in config.threads:  # in tid order: a spawn appends the next tid
        parts.append(t.__dict__.get("_digest") or _thread_digest(t))
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
    """Poll every thread once: (outcomes, terminal or None, sorted steppable tids).

    The terminal is `all_done`, `stuck` (at the lowest stuck tid) or
    `deadlock`, which names each waiting thread's region, the place of its
    `lock` and the region's holders under `blocked`.
    """
    if not config.threads:
        return {}, Terminal("all_done", {}), []
    outcomes, steppable, stuck = {}, [], None
    for t in config.threads:  # in tid order
        outcome = outcomes[t.tid] = poll(config, t)
        if type(outcome) is Stuck:
            stuck = stuck or outcome
        elif type(outcome) is not BlockedOn:
            steppable.append(t.tid)
    if stuck is not None:
        return outcomes, Terminal("stuck", {"thread": stuck.tid, "fault": stuck.code,
                                            "detail": stuck.detail}), []
    if not steppable:
        cycle = detect_deadlock(outcomes)
        waits = {str(tid): sorted(o.holders) for tid, o in outcomes.items()}
        blocked = {str(tid): {"region": str(o.region), "lock": o.loc and str(o.loc),
                              "holders": sorted(o.holders)} for tid, o in outcomes.items()}
        return outcomes, Terminal("deadlock", {"cycle": cycle, "waiting": waits,
                                               "blocked": blocked}), []
    return outcomes, None, steppable


def _apply_outcome(outcome: Ready) -> tuple[Config, str]:
    """The chosen thread's step: its successor and rule; called once per
    applied step."""
    step = outcome.stepped
    return step.config, step.rule


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
            violations = harness.after_step(tid, outcomes[tid].stepped, outcomes)
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


def _shared(config: Config, stores: WeakValueDictionary, threads: WeakValueDictionary) -> Config:
    """`config` with its store and thread states swapped for those of the
    same digests (and tids) in `stores` and `threads`, or entered there
    (see above).  In a configuration of several threads, a state new to its
    tid whose term another thread's state has takes that state's refocusing
    (`_twin`)."""
    root = config.store.root
    store = stores.setdefault(bytes(16) if root is None else root.digest(), config.store)
    shared, several = [], len(config.threads) > 1
    for t in config.threads:
        if "_shared" not in t.__dict__:  # not yet the state of its digest and tid
            t = threads.setdefault(t.__dict__.get("_digest") or _thread_digest(t), t)
            if "_shared" not in t.__dict__:
                first = threads.setdefault(expr_digest(t.expr), t) if several else t
                if first is not t:
                    object.__setattr__(t, "_twin", first)
                object.__setattr__(t, "_shared", True)
        shared.append(t)
    return Config(store, tuple(shared), config.next_tid, config.next_loc, config.next_region)


def explore(main_expr: Expr, max_steps: int = 2_000, force: bool = False,
            max_states: Optional[int] = None) -> ExploreResult:
    """Enumerate all interleavings up to a depth bound.

    States are deduplicated by canonical digest.  Refuses configurations
    with more than `MAX_THREADS` live threads unless forced.  With
    `max_states`, stops once that many states are expanded, and the result
    gives the size of the frontier left.
    """
    # The initial configuration is not kept: a stepped state holds its
    # successor, so it would keep every state the search reaches alive.
    frontier: list[tuple[Config, int]] = [(initial_config(main_expr), 0)]
    seen: set[str] = {config_digest(frontier[0][0])}
    terminals: dict[str, int] = {}
    stuck_reports: list[dict] = []
    cycles: list[list[int]] = []
    budget_hits = 0
    states = 0
    recent: deque[Store] = deque(maxlen=RECENT)
    stores, threads = WeakValueDictionary(), WeakValueDictionary()  # see `_shared`

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
                frontier.append((_shared(nxt, stores, threads), depth + 1))

    return ExploreResult(states, terminals, stuck_reports, cycles, budget_hits)
