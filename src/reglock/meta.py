"""Executable well-typedness checks, run between interpreter steps.

The harness maintains the metatheoretic contexts alongside execution: the
region set R, the location typing M, and a per-thread effect assignment
delta.  After every step it re-derives the contexts from the step's rule
(`Stepped.rule` and its payload: fresh regions extend R, fresh locations
extend M, capability operations, spawns and finished threads update delta
constructively) and re-validates:

  * thread typing  - every thread's expression types at unit under delta,
    with an output effect matching the thread's standing obligation;
  * store consistency - delta's regions exist in the store, each thread's
    dynamic counts on them equal its static counts, and lock ownership is
    exclusive down each subtree;
  * store typing   - the store's regions are a subset of R, its locations a
    subset of M's domain, and every stored value types at M's entry under
    the empty environment and the empty effect.  Its output effect is not
    compared: any term that types under the empty effect ends with it, as
    only `newrgn` adds an entry, and only below a parent already in the
    effect, and a call's join stays inside the caller's domain;
  * not-stuck      - every thread that waits for a lock waits for a live
    thread, one the scheduler polled.  A stuck thread ends the run before
    the harness sees a step, and so does a violation in the initial
    configuration, which `observe_init` returns as `after_step` does.

Effect comparisons here ignore purity flags: beta reduction inlines call
frames, and it is exactly those frames that restore purity on return.  So
do splits: a call or spawn in a re-typed term, and an E-SN step on delta,
subtract the demand as `effects.fragments`, by counts alone, since a pure,
whole demand may meet a capability that an inlined call left impure.
Counts and parents, which the store-level invariants depend on, are
checked exactly.

Thread typing is by frames.  Once the harness has accepted a thread state
(`interp`), it refocuses it (`interp._focused`, which the next poll reuses)
and judges each frame that the refocusing built (`Frame.judged`): the type
and output effect of its hole's operand under the thread's delta, the
hole's input effect, as the positions left of the hole hold values.  After
a step only the successor's control is typed, and compared with the
judgement of the frames it fills; with none, it must type at unit and
meet the obligation by counts.  This is exact: the state before the step
had no violation, the frames below the hole are the same objects (an
identity test, as for the store), and the frames around a hole read only
the type and output effect it produces, so a hole filled at its judgement
keeps the whole term's typing (Wright & Felleisen's replacement lemma,
1994; the stack typing `k ÷ τ` of Harper, PFPL ch. 28).  Anything else
falls back to typing the thread's read-back, which holds no closure, in
full (`check_thread_typing`), which words any violation; a thread whose
frames were not all judged falls back from then on.  The operands after
a hole are not typed with its frame: the reduct that E-SEQ, E-IF or E-A
puts there is found under the key that the typing around it stored.  The
harness keeps one checker, which holds R and M, and whose memo stores a
success only.  A program body keeps its Merkle digest for the whole run,
as the machine binds names instead of substituting (see `interp`), so the
memo keys a subterm on:

  * its digest, what it reads of the environment and the input effect's
    entry tuple `Effect.items()`, built once per effect.  What a term reads
    is each free variable's type, and whether each free region variable is
    in scope; a closed term reads nothing.  The judgement reads the
    environment only there, so the entry is exact.  Region names and
    capabilities are interned, so the key hashes and compares in C;
  * for a function value (a `Lambda` or `RegionLambda`), the same without
    the effect: the hit is (its type, the input effect), since a value's
    output effect is its input effect, a `Lambda` checks its body under its
    own annotation, and a `RegionLambda` checks its body under the empty
    effect.

A term under run-time bindings types as its read-back.  The harness
hands each control and frame operand to `Checker.check_bound` with its
`Env`, which binds all of its free names, and `check_bound` renames the
bound literals back to their variables (the bound values' types once per
`Env`, `Checker.bound_env`).  So the body that E-A, E-RP or E-NG enters,
and the frames in it, are found as the typing around them stored them
while the binders just applied were variables in scope: entering a body
is a lookup.  Only aliased bindings and a body that names a bound literal
are typed with the region bindings substituted.

R and M only grow: they hold every region and location ever allocated,
freed or not.  This is the calculus's rule, not a relaxation: the static
judgement types a handle or a reference whatever its region's liveness,
and only an access or a capability operation asks the effect for a
capability, so a checked program may keep a dead handle where it is never
used.  Preservation across a free therefore needs the run-time typing of a
`RgnVal` or `LocVal` to accept a freed name, and liveness is checked
through delta: store consistency flags any effect entry whose region has
left the store.  Names are never reused, and the checker consults R and M
only by membership and lookup, where a location's type never changes, so
a memo entry stays exact as they grow.  The memo is cleared when a run
starts, and once it passes `MEMO_BOUND` entries, which costs only time.
Effects and types are interned, and the capability algebra and region
substitution are cached per value (`syntax.per_value`), so a split, a
join or an instance that a step meets again is found, not rebuilt.

Consistency compares counts for equality: every rule that changes a
thread's counts (a capability step, a spawn's transfer, `newrgn`) changes
its static effect by the same amount.

The store checks read what the step changed.  A run ends at its first
violation, so the configuration before a step had none; the harness keeps
its store and delta.  Path copying leaves each region node that a step did
not replace the same object, so `store.changes` finds the changed regions
by identity, once for both store checks, and only they, or a changed
entry of delta, can take part in a new violation: consistency checks
those entries and the ones naming a region whose counts changed or that
went, and the ancestors and subtree of each region newly locked or new to
the tree; store typing, what is new.

The checker leaves out its well-formedness check per node: its effects are
well-formed by construction from a well-formed input, so the harness checks
each thread's effect assignment before re-typing it, once per effect.
"""

from __future__ import annotations

from typing import Optional

from . import effects as fx
from .interp import _OPERANDS, BlockedOn, Config, Frame, Stepped, StepOutcome, Thread, _focused
from .store import Store, changes
from .syntax import (
    EMPTY_EFFECT,
    HEAP,
    Capability,
    Effect,
    Expr,
    FnType,
    Location,
    Record,
    RegionLit,
    RegionPolyType,
    Type,
    UnitType,
    subst_regions,
)
from .typecheck import _EMPTY_ENV, CheckFailure, Checker, TypedProgram, type_eq


#: The harness memo's size past which it is cleared (successes only, so exact).
MEMO_BOUND = 1 << 14


class Violation(Record):
    # check: "thread-typing" | "store-consistency" | "store-typing" | "not-stuck"
    def __init__(self, check: str, message: str, thread: Optional[int] = None) -> None:
        self.__dict__.update(check=check, message=message, thread=thread)

    def to_json(self) -> dict:
        return {"check": self.check, "message": self.message, "thread": self.thread}


def check_thread_typing(checker: Checker, threads, delta: dict[int, Effect],
                        obligations: dict[int, Effect]) -> list[Violation]:
    out: list[Violation] = []
    for thread in threads:
        eff = delta.get(thread.tid)
        if eff is None:
            out.append(Violation("thread-typing",
                                 f"thread {thread.tid} has no effect assignment",
                                 thread.tid))
            continue
        # The checker keeps effects well-formed only from a well-formed start.
        reason = eff.well_formed()
        if reason is not None:
            out.append(Violation("thread-typing",
                                 f"thread {thread.tid}'s effect {eff.pretty()} is "
                                 f"ill-formed: {reason}", thread.tid))
            continue
        try:
            t, final = checker.check(checker.read_back(thread.expr), _EMPTY_ENV, eff)
        except CheckFailure as exc:
            out.append(Violation("thread-typing",
                                 f"thread {thread.tid} fails to type: "
                                 f"{exc.diagnostic.render()}", thread.tid))
            continue
        if not isinstance(t, UnitType):
            out.append(Violation("thread-typing",
                                 f"thread {thread.tid} types at {t}, not unit",
                                 thread.tid))
        obligation = obligations.get(thread.tid, EMPTY_EFFECT)
        if not final.same_counts(obligation):
            out.append(Violation("thread-typing",
                                 f"thread {thread.tid} ends with effect "
                                 f"{final.pretty()}, obligation is "
                                 f"{obligation.pretty()}", thread.tid))
    return out


def check_store_consistency(store: Store, delta: dict[int, Effect],
                            changed: Optional[tuple] = None,
                            delta_before: Optional[dict[int, Effect]] = None) -> list[Violation]:
    """The full check, or that of what changed since the last store and
    delta: `changed`, the store's `changes`, and `delta_before`."""
    out: list[Violation] = []
    found, gone = changed or changes(None, store)
    old_delta = delta_before or {}
    # The regions on which an unchanged entry of delta can now fail.
    touched = gone.union([r for r, (was, path) in found.items()
                          if was is None or was.threads is not path[-1].threads])
    fresh = {r for r, (was, _) in found.items() if was is None}

    def node(r: RegionLit):
        hit = found.get(r)
        return hit[1][-1] if hit else None if r in gone else store.find(r)

    def flag(tid: int, message: str) -> None:
        out.append(Violation("store-consistency", message, tid))

    def inside(r: RegionLit, sub: RegionLit) -> None:  # reads `holders`, below
        flag(holders[sub], f"thread {holders[sub]} holds a lock inside {r}'s subtree, "
             f"which thread {holders[r]} has locked")

    # Region consistency: every region named by delta exists in the store,
    # and the thread's dynamic counts on it equal its static ones.
    for tid, eff in delta.items():
        was = old_delta.get(tid)
        if was is not eff:
            fresh.update(r for r, cap, _ in eff.items() if cap.lk > 0 and not (
                was is not None and r in was and was.cap(r).lk > 0))
        elif not (touched and any(r in eff for r in touched)):
            continue
        for r, cap, parent in eff.items():
            if (was is not None and r not in touched and parent not in gone
                    and was.get(r) == (cap, parent)):
                continue
            for x in (r, parent):
                if isinstance(x, RegionLit) and node(x) is None:
                    flag(tid, f"thread {tid}'s effect names region {x}, absent from the store")
            n = node(r)
            dyn = n.counts_for(tid) if n is not None else cap  # absent: flagged above
            if dyn.rg != cap.rg or dyn.lk != cap.lk:
                flag(tid, f"thread {tid} statically holds {cap} of {r} but dynamically "
                     f"has {dyn}")

    # Mutual exclusion over the static assignment, subtree included: only
    # where a region is newly locked (`fresh`) or new to the tree.
    if not fresh:
        return out
    holders: dict[RegionLit, int] = {}
    for tid, eff in delta.items():
        for r, cap, _ in eff.items():
            if cap.lk > 0 and isinstance(r, RegionLit):
                if r in holders and holders[r] != tid:
                    flag(tid, f"threads {holders[r]} and {tid} both hold a static lock on {r}")
                holders[r] = tid
    for r, tid in holders.items():
        path = None if r not in fresh else found[r][1] if r in found else store.path_to(r)
        for up in path[:-1] if path else ():  # a fresh one walks its own subtree
            if up.rid not in fresh and holders.get(up.rid, tid) != tid:
                inside(up.rid, r)
        for sub in Store(path[-1]).regions() if path else ():
            if holders.get(sub.rid, tid) != tid:
                inside(r, sub.rid)
    return out


def check_store_typing(checker: Checker, store: Store,
                       changed: Optional[tuple] = None) -> list[Violation]:
    """The full check against the checker's R and M, or that of the regions
    and cells new in `changed`, the store's `changes`."""
    out: list[Violation] = []
    found, _ = changed or changes(None, store)
    missing = found.keys() - checker.regions
    if missing:
        out.append(Violation("store-typing",
                             f"store regions {sorted(map(str, missing))} are missing "
                             f"from R"))
    stored: dict[Location, Expr] = {}
    for was, path in found.values():
        if was is None or was.heap is not path[-1].heap:
            old = dict(was.heap) if was is not None else {}
            stored.update((loc, v) for loc, v in path[-1].heap if old.get(loc) is not v)
    unknown = stored.keys() - checker.locations.keys()
    if unknown:
        out.append(Violation("store-typing",
                             f"store locations {sorted(map(str, unknown))} are missing "
                             f"from the domain of M"))
    for loc, value in stored.items():
        want = checker.locations.get(loc)
        if want is None:
            continue  # reported above
        try:
            t = _value_type(checker, value)
        except CheckFailure as exc:
            out.append(Violation("store-typing",
                                 f"stored value at {loc} fails to type: "
                                 f"{exc.diagnostic.render()}"))
            continue
        if not type_eq(t, want, lenient=True):
            out.append(Violation("store-typing",
                                 f"stored value at {loc} has type {t}, M says {want}"))
    return out


def _value_type(checker: Checker, value: Expr) -> Type:
    """A stored `value`'s type; a failure is worded on its read-back, whose
    diagnostic names the literals, not the variables they renamed."""
    try:
        return checker.check(value, _EMPTY_ENV, EMPTY_EFFECT)[0]
    except CheckFailure:
        return checker.check(checker.read_back(value), _EMPTY_ENV, EMPTY_EFFECT)[0]


def check_not_stuck(outcomes: dict[int, StepOutcome]) -> list[Violation]:
    """A thread that waits must wait for a live thread: one with an outcome.
    A stuck thread never reaches here, as it ends the run first."""
    out: list[Violation] = []
    for tid, outcome in outcomes.items():
        if isinstance(outcome, BlockedOn) and outcome.holders.isdisjoint(outcomes):
            out.append(Violation("not-stuck",
                                 f"thread {tid} waits on {outcome.region} whose "
                                 f"lock holder has terminated", tid))
    return out


class Harness:
    """Tracks (R, M, delta) across a run and validates every step."""

    def __init__(self, typed: TypedProgram):
        main_t = typed.def_types["main"]
        assert isinstance(main_t, RegionPolyType) and isinstance(main_t.body, FnType)
        self.main_in = subst_regions(main_t.body.effect_in, {main_t.var: HEAP})
        self.main_out = subst_regions(main_t.body.effect_out, {main_t.var: HEAP})
        self.delta: dict[int, Effect] = {}
        self.obligations: dict[int, Effect] = {}
        # The memo of the run's checker (see the module docstring).
        self.memo: dict = {}
        # The last configuration's store and delta, if it had no violation.
        self.before: tuple = (None, None)

    def observe_init(self, config: Config) -> list[Violation]:
        self.delta = {1: self.main_in}
        self.obligations = {1: self.main_out}
        self.memo.clear()
        self.checker = Checker(frozenset({HEAP}), {}, lenient=True, memo=self.memo)
        self.before = (None, None)
        # Each thread's frames around its next redex, all judged, once its state
        # is accepted (its successor's must be these), or False: not all judged.
        self.holes: dict[int, object] = {}
        return self._check(config, [])

    def after_step(self, tid: int, outcome: Stepped,
                   outcomes: dict[int, StepOutcome]) -> list[Violation]:
        """Updates the contexts by `tid`'s step and re-checks its successor.

        `outcomes` are every thread's outcomes before the step, which the
        scheduler already computed; the not-stuck check reads them.
        """
        violations: list[Violation] = []
        retype: set[int] = {tid}
        rule, info = outcome.rule, outcome.info

        if rule == "E-NG":
            parent, new = info
            self.checker.regions |= {new}
            self.delta[tid] = self.delta[tid].with_entry(
                new, Capability(1, 1, pure=True), parent)
        elif rule == "E-NR":
            loc, value = info
            try:
                self.checker.locations[loc] = _value_type(self.checker, value)
            except CheckFailure as exc:
                violations.append(Violation(
                    "store-typing",
                    f"allocated value fails to type: {exc.diagnostic.render()}", tid))
        elif rule == "E-C":
            op, region = info
            try:
                self.delta[tid] = fx.apply_cap_op(self.delta[tid], region, op)
            except fx.CapError as exc:
                violations.append(Violation(
                    "thread-typing",
                    f"capability step not reflected statically: {exc.message}", tid))
        elif rule == "E-SN":
            child, transferred = info
            try:
                self.delta[tid] = fx.effect_subtract(
                    self.delta[tid], fx.fragments(transferred)).retained
            except fx.CapError as exc:
                violations.append(Violation(
                    "thread-typing",
                    f"spawn transfer not covered statically: {exc.message}", tid))
            self.delta[child] = transferred
            self.obligations[child] = EMPTY_EFFECT
            retype.add(child)
        elif rule == "E-T":
            final = self.delta.pop(tid, EMPTY_EFFECT)
            obligation = self.obligations.pop(tid, EMPTY_EFFECT)
            if not final.same_counts(obligation):
                violations.append(Violation(
                    "thread-typing",
                    f"thread {tid} finished with effect {final.pretty()}, "
                    f"obligation was {obligation.pretty()}", tid))
            retype.discard(tid)

        violations += check_not_stuck(outcomes)
        return self._check(outcome.config, violations, only=retype)

    def _check(self, config: Config, out: list[Violation],
               only: Optional[set[int]] = None) -> list[Violation]:
        """`out`, the step's own violations, and those of `config`."""
        if len(self.memo) > MEMO_BOUND:
            self.memo.clear()
        for thread in config.threads:
            if only is None or thread.tid in only:
                out += self._check_thread(thread)
        changed = changes(self.before[0], config.store)
        out += check_store_consistency(config.store, self.delta, changed, self.before[1])
        out += check_store_typing(self.checker, config.store, changed)
        self.before = (None, None) if out else (config.store, dict(self.delta))
        return out

    def _check_thread(self, thread: Thread) -> list[Violation]:
        """`thread`'s typing by its frames, else in full (see above)."""
        tid, frames, eff, got = thread.tid, thread.frames, self.delta.get(thread.tid), None
        if eff is not None and frames is self.holes.get(tid) and eff.well_formed() is None:
            try:
                got = self.checker.check_bound(thread.control, thread.env, eff)
            except CheckFailure:
                pass
        if got is None or (got != frames.judged if frames is not None else not (
                isinstance(got[0], UnitType)
                and got[1].same_counts(self.obligations.get(tid, EMPTY_EFFECT)))):
            found = check_thread_typing(self.checker, [thread], self.delta, self.obligations)
            if found or got is None:  # unjudged frames: the thread falls back from now on
                self.holes[tid] = False
                return found
            if frames is not None:
                frames.judged = got  # a typing that the frames around accept too
        self._judge(thread, eff)
        return []

    def _judge(self, thread: Thread, eff: Effect) -> None:
        """Refocuses `thread`, accepted, and judges the frames that the
        refocusing built (see above)."""
        redex = _focused(thread)
        frame = self.holes[thread.tid] = redex.outer if type(redex) is Frame else None
        checker = self.checker
        try:
            while frame is not None and frame.judged is None:
                node = frame.node
                frame.judged = checker.check_bound(_OPERANDS[type(node)](node)[frame.pos],
                                                   frame.env, eff)
                frame = frame.outer
        except CheckFailure:
            self.holes[thread.tid] = False
