"""The substituting machine, kept as an oracle for `reglock.interp`.

This is the interpreter's stepper as it stood before E-A, E-RP and E-NG
bound their names in closures, with the reference substitution they used
(`subst_expr`): each of those rules substitutes into the body it enters,
and `link` substitutes the definitions into `main`, so every thread term is
closed and closure-free.  It shares no linking, binding or pushing code with
the machine, and keeps no step cache, so each state's steps are computed
afresh.  It imports nothing from `reglock.interp`: its records (`Config`,
`Thread`, `Stepped`, ...), its table of evaluation positions, its
primitives, its initial configuration and its deadlock search are its own.
It shares the store and the digests with the machine, and its scheduler
makes the same seeded choice, so a run here and a run of `reglock.interp`
compare step by step.
"""

from __future__ import annotations

import hashlib
import random
from typing import Callable, NamedTuple, Optional, Union

from reglock.parser import SourceProgram, pretty
from reglock.store import Blocked, Store, StoreFault, initial_store
from reglock.syntax import (
    _FIELDS,
    BINDERS,
    HEAP,
    LEAVES,
    PRIM_BINARY,
    PRIM_UNARY,
    REGION_FIELDS,
    SEQ_MODE,
    UNIT_VALUE,
    App,
    Assign,
    Cap,
    Const,
    Deref,
    Expr,
    If,
    Lambda,
    Loc,
    LocVal,
    NewRef,
    NewRgn,
    ParMode,
    Prim,
    RegionApp,
    RegionLambda,
    RegionLit,
    RegionVar,
    RgnVal,
    Seq,
    UnitVal,
    Var,
    While,
    expr_digest,
    free_names,
    is_value,
    subst_regions,
)

Plug = Callable[[Expr], Expr]


class Thread(NamedTuple):
    tid: int
    expr: Expr


class Config(NamedTuple):
    store: Store
    threads: tuple[Thread, ...]
    next_tid: int
    next_loc: int
    next_region: int

    def thread(self, tid: int) -> Thread:
        return next(t for t in self.threads if t.tid == tid)

    def with_thread_expr(self, tid: int, expr: Expr, store: Optional[Store] = None,
                         next_loc: Optional[int] = None,
                         next_region: Optional[int] = None) -> "Config":
        threads = tuple(Thread(tid, expr) if t.tid == tid else t for t in self.threads)
        return Config(self.store if store is None else store, threads, self.next_tid,
                      self.next_loc if next_loc is None else next_loc,
                      self.next_region if next_region is None else next_region)

    def without_thread(self, tid: int) -> "Config":
        return self._replace(threads=tuple(t for t in self.threads if t.tid != tid))


class Stepped(NamedTuple):
    config: Config
    rule: str
    info: Optional[tuple] = None


class BlockedOn(NamedTuple):
    tid: int
    region: RegionLit
    holders: frozenset[int]
    loc: Optional[Loc]


class Stuck(NamedTuple):
    tid: int
    code: str
    detail: str


StepOutcome = Union[Stepped, BlockedOn, Stuck]


class Terminal(NamedTuple):
    kind: str
    detail: dict


class TraceStep(NamedTuple):
    index: int
    tid: int
    rule: str


class Trace:
    def __init__(self, seed: int, config: Config) -> None:
        self.seed, self.config = seed, config
        self.steps: list[TraceStep] = []
        self.terminal: Optional[Terminal] = None


class ExploreResult(NamedTuple):
    states: int
    terminals: dict[str, int]
    stuck_reports: list[dict]
    deadlock_cycles: list[list[int]]
    budget_hits: int


class MalformedTerm(Exception):
    pass


#: The subterms that evaluate before their form steps, in order; a `Prim`'s
#: operands all do.
EVAL_POSITIONS = {App: ("fn", "arg"), RegionApp: ("fn",), NewRef: ("init", "handle"),
                  Deref: ("ref",), Assign: ("target", "value"), NewRgn: ("parent_handle",),
                  Cap: ("handle",), If: ("cond",), Seq: ("first",), While: ()}


def initial_config(main_expr: Expr) -> Config:
    """Thread 1 runs main[heap](rgn heap) in a store of the heap region alone."""
    body = App(RegionApp(main_expr, HEAP), RgnVal(HEAP), SEQ_MODE)
    return Config(initial_store(HEAP, 1), (Thread(1, body),), 2, 1, 1)


def _prim_eval(op: str, args: tuple[Expr, ...]) -> Expr:
    if not all(type(a) is Const for a in args):
        raise TypeError(f"{op} of a non-constant")
    meaning = PRIM_UNARY[op][2] if op in PRIM_UNARY else PRIM_BINARY[op][3]
    return Const(meaning(*[a.value for a in args]))


def detect_deadlock(outcomes: dict[int, StepOutcome]) -> list[int]:
    """The first cycle that a depth-first search of the wait-for graph meets,
    from the blocked threads in tid order and to the holders in tid order."""
    edges = {tid: o.holders for tid, o in outcomes.items() if type(o) is BlockedOn}
    done: set[int] = set()

    def visit(path: list[int]) -> list[int]:
        for target in sorted(edges[path[-1]]):
            if target in path:
                return path[path.index(target):]
            if target in edges and target not in done:
                cycle = visit(path + [target])
                if cycle:
                    return cycle
        done.add(path[-1])
        return []

    for root in sorted(edges):
        if root not in done:
            cycle = visit([root])
            if cycle:
                return cycle
    return []


def subst_expr(e: Expr, sigma: dict) -> Expr:
    """Simultaneous substitution: `sigma` maps term names (`str`) to values
    and region variables to region names.  Binders shadow (`BINDERS`), and
    a node in which nothing is replaced is returned itself, so only the
    paths to the occurrences are rebuilt (and re-hashed).

    No binder is renamed: the parser gives every region binder a name no
    enclosing binder of its definition has, a value substituted by E-A or
    by linking is closed, and E-RP and E-NG substitute region literals.  So
    no replacement names a binder it passes under."""
    rho = {var: rep for var, rep in sigma.items() if type(var) is RegionVar}
    return _subst(e, sigma, rho)


def _subst(e: Expr, sigma: dict, rho: dict) -> Expr:
    # `rho` is the region part of `sigma`; only it reaches `REGION_FIELDS`,
    # so E-A and linking never look at an annotation.
    form = type(e)
    if form is Var:
        return sigma.get(e.name, e)
    if not sigma or form in LEAVES:
        return e
    inner, inner_rho = sigma, rho
    for name in BINDERS.get(form, ()):
        binder = getattr(e, name)
        if binder in inner:
            inner = {k: v for k, v in inner.items() if k != binder}
        if binder in inner_rho:
            inner_rho = {k: v for k, v in inner_rho.items() if k != binder}
    regional = REGION_FIELDS.get(form, ()) if rho else ()
    values, same = [], True
    for name in _FIELDS[form]:
        old = getattr(e, name)
        kind = type(old)
        if kind in _FIELDS:  # a loop, not a comprehension: one frame per level
            new = _subst(old, inner, inner_rho) if name == "body" else _subst(old, sigma, rho)
        elif kind is tuple:  # Prim's operands
            new = old
            for i, arg in enumerate(old):
                sub = _subst(arg, sigma, rho)
                if sub is not arg:
                    new = new[:i] + (sub,) + new[i + 1:]
        elif name in regional:
            new = subst_regions(old, rho)
        else:
            new = old
        values.append(new)
        same = same and new is old
    return e if same else form(*values, e.loc)


def link(program: SourceProgram) -> Expr:
    """`main` with the definitions substituted in, each definition with the
    earlier ones its body names (`reglock.typecheck.link_bodies` binds them
    instead); a KeyError for a name that no earlier definition has."""
    linked: dict[str, Expr] = {}
    for d in program.defs:
        linked[d.name] = subst_expr(d.body, {name: linked[name]
                                             for name in free_names(d.body)[0]})
    return linked["main"]


def decompose(e: Expr) -> Optional[tuple[Expr, Plug]]:
    """Unique decomposition of a closed non-value into (redex, plug)."""
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
        form = type(e)
        names = EVAL_POSITIONS.get(form)
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


def step_thread(config: Config, tid: int) -> StepOutcome:
    """One thread-level step: finish (E-T), spawn (E-SN) or reduce (E-S)."""
    e = config.thread(tid).expr
    if isinstance(e, Const) and isinstance(e.value, UnitVal):
        return Stepped(config.without_thread(tid), "E-T")
    try:
        found = decompose(e)
    except MalformedTerm as exc:
        return Stuck(tid, "MalformedTerm", str(exc))
    if found is None:
        return Stuck(tid, "NonUnitTerminal", f"thread reduced to a non-unit value {pretty(e)}")
    redex, plug = found

    if isinstance(redex, App) and isinstance(redex.mode, ParMode):
        transfer = redex.mode.transfer
        if transfer is None:
            if not isinstance(redex.fn, Lambda):
                return Stuck(tid, "BadApplication", f"spawn of non-function {pretty(redex.fn)}")
            transfer = redex.fn.effect_in
        child_tid = config.next_tid
        try:
            store = config.store.transfer(tid, child_tid, transfer)
        except StoreFault as exc:
            return Stuck(tid, exc.code, exc.message)
        child = Thread(child_tid, App(redex.fn, redex.arg, SEQ_MODE, redex.loc))
        parent = plug(Const(UNIT_VALUE))
        threads = tuple(Thread(tid, parent) if t.tid == tid else t for t in config.threads)
        new_config = Config(store, threads + (child,), child_tid + 1, config.next_loc,
                            config.next_region)
        return Stepped(new_config, "E-SN", (child_tid, transfer))

    return _step_expr(config, tid, plug, redex)


def _step_expr(config: Config, tid: int, plug: Plug, redex: Expr) -> StepOutcome:
    store = config.store

    def term_only(reduct: Expr, rule: str) -> Stepped:
        return Stepped(config.with_thread_expr(tid, plug(reduct)), rule)

    try:
        if isinstance(redex, App):
            fn = redex.fn
            if not isinstance(fn, Lambda):
                return Stuck(tid, "BadApplication", f"application of non-function {pretty(fn)}")
            return term_only(subst_expr(fn.body, {fn.param: redex.arg}), "E-A")
        if isinstance(redex, RegionApp):
            fn = redex.fn
            if not isinstance(fn, RegionLambda):
                return Stuck(tid, "BadRegionApplication", f"region application of {pretty(fn)}")
            if not isinstance(redex.region, RegionLit):
                return Stuck(tid, "MalformedTerm",
                             f"region application at the variable {redex.region}")
            return term_only(subst_expr(fn.body, {fn.var: redex.region}), "E-RP")
        if isinstance(redex, NewRgn):
            handle = redex.parent_handle
            if not isinstance(handle, RgnVal):
                return Stuck(tid, "BadHandle", f"newrgn at non-handle {pretty(handle)}")
            name = f"r{config.next_region}"
            new_store, rid = store.newrgn(handle.region, tid, name)
            body = subst_expr(redex.body, {redex.var: rid, redex.handle_name: RgnVal(rid)})
            return Stepped(config.with_thread_expr(
                tid, plug(body), new_store, next_region=config.next_region + 1),
                "E-NG", (handle.region, rid))
        if isinstance(redex, NewRef):
            handle = redex.handle
            if not isinstance(handle, RgnVal):
                return Stuck(tid, "BadHandle", f"new at non-handle {pretty(handle)}")
            new_store, loc = store.alloc(handle.region, config.next_loc, redex.init)
            return Stepped(config.with_thread_expr(
                tid, plug(LocVal(loc)), new_store, next_loc=config.next_loc + 1),
                "E-NR", (loc, redex.init))
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
            new_store = store.update(ref.location, redex.value, tid)
            return Stepped(config.with_thread_expr(tid, plug(Const(UNIT_VALUE)), new_store),
                           "E-AS", (ref.location, redex.value))
        if isinstance(redex, Cap):
            handle = redex.handle
            if not isinstance(handle, RgnVal):
                return Stuck(tid, "BadHandle",
                             f"capability operation on non-handle {pretty(handle)}")
            result = store.updcap(redex.op, handle.region, tid)
            if isinstance(result, Blocked):
                return BlockedOn(tid, result.region, result.holders, redex.loc)
            return Stepped(config.with_thread_expr(tid, plug(Const(UNIT_VALUE)), result),
                           "E-C", (redex.op, handle.region))
        if isinstance(redex, If):
            cond = redex.cond
            if not (isinstance(cond, Const) and isinstance(cond.value, bool)):
                return Stuck(tid, "BadCondition", f"if on non-boolean {pretty(cond)}")
            return term_only(redex.then if cond.value else redex.orelse, "E-IF")
        if isinstance(redex, Seq):
            return term_only(redex.second, "E-SEQ")
        if isinstance(redex, While):
            unrolled = If(redex.cond, Seq(redex.body, redex, redex.loc),
                          Const(UNIT_VALUE), redex.loc)
            return term_only(unrolled, "E-WHILE")
        if isinstance(redex, Prim):
            try:
                return term_only(_prim_eval(redex.op, redex.args), "E-OP")
            except (KeyError, TypeError):
                return Stuck(tid, "BadPrimitive", f"cannot evaluate {pretty(redex)}")
    except StoreFault as exc:
        return Stuck(tid, exc.code, exc.message)
    return Stuck(tid, "MalformedTerm", f"unknown redex {type(redex).__name__}")


def config_digest(config: Config) -> str:
    """16 hex digits of SHA-256 over the root region's digest, each
    thread's (tid, term digest) in tid order, and the three counters."""
    root = config.store.root
    parts = [bytes(16) if root is None else root.digest()]
    for t in config.threads:
        parts += [b"%d\0" % t.tid, expr_digest(t.expr)]
    parts.append(b"%d,%d,%d" % (config.next_tid, config.next_loc, config.next_region))
    return hashlib.sha256(b"".join(parts)).hexdigest()[:16]


def classify(config: Config) -> tuple[dict[int, StepOutcome], Optional[Terminal], list[int]]:
    """Try every thread once: (outcomes, terminal or None, sorted steppable tids)."""
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
        blocked = {str(tid): {"region": str(o.region), "lock": o.loc and str(o.loc),
                              "holders": sorted(o.holders)} for tid, o in outcomes.items()}
        return outcomes, Terminal("deadlock", {"cycle": cycle, "waiting": waits,
                                               "blocked": blocked}), []
    return outcomes, None, steppable


def run_seeded(main_expr: Expr, seed: int, max_steps: int = 10_000,
               each: Optional[Callable[[Config], None]] = None) -> Trace:
    """Seeded-random scheduling, as `interp.run_seeded` without a harness;
    `each(config)` sees every configuration after a step."""
    rng = random.Random(seed)
    trace = Trace(seed, initial_config(main_expr))
    while len(trace.steps) < max_steps:
        outcomes, terminal, steppable = classify(trace.config)
        if terminal is not None:
            at = "steps" if terminal.kind == "all_done" else "step"
            trace.terminal = Terminal(terminal.kind, {**terminal.detail, at: len(trace.steps)})
            return trace
        tid = rng.choice(steppable)
        outcome = outcomes[tid]
        trace.config = outcome.config
        trace.steps.append(TraceStep(len(trace.steps), tid, outcome.rule))
        if each is not None:
            each(trace.config)
    trace.terminal = Terminal("budget", {"max_steps": max_steps})
    return trace


def explore(main_expr: Expr, max_steps: int = 2_000) -> ExploreResult:
    """Every interleaving up to a depth bound, states deduplicated by digest."""
    frontier: list[tuple[Config, int]] = [(initial_config(main_expr), 0)]
    seen: set[str] = {config_digest(frontier[0][0])}
    terminals: dict[str, int] = {}
    stuck_reports: list[dict] = []
    cycles: list[list[int]] = []
    budget_hits = 0
    states = 0
    while frontier:
        config, depth = frontier.pop()
        states += 1
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
            nxt = outcomes[tid].config
            digest = config_digest(nxt)
            if digest not in seen:
                seen.add(digest)
                frontier.append((nxt, depth + 1))
    return ExploreResult(states, terminals, stuck_reports, cycles, budget_hits)
