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

Re-typing is incremental.  Each harness keeps one memo for its checker,
which stores a success only, never a failure, under one of two keys:

  * a subterm is looked up by (its Merkle digest, its input effect's entry
    tuple `Effect.items()`, built once per effect) when it is closed (no
    free term variables, no free region variables; the sets are cached on
    each node) or the environment is empty, where a success reads no
    binding and which is the only place an open subterm is looked up again.
    The judgement reads the environment only to look up a free `Var` and to
    check that a free region variable is in scope, so a closed subterm's
    result does not depend on it.  Region names and capabilities are
    interned, so the key hashes and compares in C;
  * a function value (a `Lambda` or `RegionLambda`), under the same
    condition, is looked up by its digest alone, and the hit is (its type,
    the input effect): a value's output effect is its input effect, a
    `Lambda` checks its body under its own annotation, and a
    `RegionLambda` checks its body under the empty effect.

A step rebuilds only the path to its redex, and the continuation beyond it
is re-typed under the same input effect as before (preservation), so
re-typing costs about the redex path, and function values inlined into a
body are typed once per run.

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
a memo entry stays exact as they grow; the memo is cleared only when a run
starts.

Consistency compares counts for equality: every rule that changes a
thread's counts (a capability step, a spawn's transfer, `newrgn`) changes
its static effect by the same amount.

The checker leaves out its well-formedness check per node: its effects are
well-formed by construction from a well-formed input, so the harness checks
each thread's effect assignment once before re-typing it.
"""

from __future__ import annotations

from typing import Optional

from . import effects as fx
from .interp import BlockedOn, Config, Stepped, StepOutcome
from .store import Store
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
from .typecheck import CheckFailure, Checker, TypedProgram, _Env, type_eq


class Violation(Record):
    # check: "thread-typing" | "store-consistency" | "store-typing" | "not-stuck"
    def __init__(self, check: str, message: str, thread: Optional[int] = None) -> None:
        self.__dict__.update(check=check, message=message, thread=thread)

    def to_json(self) -> dict:
        return {"check": self.check, "message": self.message, "thread": self.thread}


def _retype(regions: frozenset[RegionLit], locations: dict[Location, Type],
            expr: Expr, eff: Effect, memo: Optional[dict] = None) -> tuple[Type, Effect]:
    checker = Checker(regions=regions, locations=locations, lenient=True, memo=memo)
    return checker.check(expr, _Env({}, frozenset()), eff)


def check_thread_typing(regions: frozenset[RegionLit],
                        locations: dict[Location, Type],
                        threads, delta: dict[int, Effect],
                        obligations: dict[int, Effect],
                        only: Optional[set[int]] = None,
                        memo: Optional[dict] = None) -> list[Violation]:
    out: list[Violation] = []
    for thread in threads:
        if only is not None and thread.tid not in only:
            continue
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
            t, final = _retype(regions, locations, thread.expr, eff, memo)
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


def check_store_consistency(store: Store, delta: dict[int, Effect]) -> list[Violation]:
    out: list[Violation] = []
    nodes = {node.rid: node for node in store.regions()}

    # Region consistency: every region named by delta exists in the store,
    # and the thread's dynamic counts on it equal its static ones.
    for tid, eff in delta.items():
        for r, cap, parent in eff.items():
            for x in (r, parent):
                if isinstance(x, RegionLit) and x not in nodes:
                    out.append(Violation(
                        "store-consistency",
                        f"thread {tid}'s effect names region {x}, absent from the store",
                        tid))
            node = nodes.get(r)
            if node is None:
                continue
            dyn = node.counts_for(tid)
            if dyn.rg != cap.rg or dyn.lk != cap.lk:
                out.append(Violation(
                    "store-consistency",
                    f"thread {tid} statically holds {cap} of {r} but dynamically "
                    f"has {dyn}", tid))

    # Mutual exclusion over the static assignment, subtree included.
    holders: dict[RegionLit, int] = {}
    for tid, eff in delta.items():
        for r, cap, _ in eff.items():
            if cap.lk > 0 and isinstance(r, RegionLit):
                if r in holders and holders[r] != tid:
                    out.append(Violation(
                        "store-consistency",
                        f"threads {holders[r]} and {tid} both hold a static lock "
                        f"on {r}", tid))
                holders[r] = tid
    for r, tid in holders.items():
        for sub in store.subtree_ids(r):
            if sub != r and sub in holders and holders[sub] != tid:
                out.append(Violation(
                    "store-consistency",
                    f"thread {holders[sub]} holds a lock inside {r}'s subtree, "
                    f"which thread {tid} has locked", holders[sub]))
    return out


def check_store_typing(regions: frozenset[RegionLit],
                       locations: dict[Location, Type],
                       store: Store,
                       dirty: Optional[set[Location]] = None,
                       memo: Optional[dict] = None) -> list[Violation]:
    out: list[Violation] = []
    missing = store.region_ids() - regions
    if missing:
        out.append(Violation("store-typing",
                             f"store regions {sorted(map(str, missing))} are missing "
                             f"from R"))
    stored = store.locations()
    unknown = stored.keys() - locations.keys()
    if unknown:
        out.append(Violation("store-typing",
                             f"store locations {sorted(map(str, unknown))} are missing "
                             f"from the domain of M"))
    for loc, value in stored.items():
        if dirty is not None and loc not in dirty:
            continue
        want = locations.get(loc)
        if want is None:
            continue  # reported above
        try:
            t, _ = _retype(regions, locations, value, EMPTY_EFFECT, memo)
        except CheckFailure as exc:
            out.append(Violation("store-typing",
                                 f"stored value at {loc} fails to type: "
                                 f"{exc.diagnostic.render()}"))
            continue
        if not type_eq(t, want, lenient=True):
            out.append(Violation("store-typing",
                                 f"stored value at {loc} has type {t}, M says {want}"))
    return out


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
        self.regions: frozenset[RegionLit] = frozenset()
        self.locations: dict[Location, Type] = {}
        self.delta: dict[int, Effect] = {}
        self.obligations: dict[int, Effect] = {}
        # The checker's memo of closed subterms, shared by every re-typing
        # of this run (see the module docstring).
        self.memo: dict = {}

    def observe_init(self, config: Config) -> list[Violation]:
        self.regions = frozenset({HEAP})
        self.locations = {}
        self.delta = {1: self.main_in}
        self.obligations = {1: self.main_out}
        self.memo.clear()
        return self._full_check(config, dirty=None)

    def after_step(self, tid: int, outcome: Stepped,
                   outcomes: dict[int, StepOutcome]) -> list[Violation]:
        """Updates the contexts by `tid`'s step and re-checks its successor.

        `outcomes` are every thread's outcomes before the step, which the
        scheduler already computed; the not-stuck check reads them.
        """
        violations: list[Violation] = []
        dirty: set[Location] = set()
        retype: set[int] = {tid}
        rule, info = outcome.rule, outcome.info

        if rule == "E-NG":
            parent, new = info
            self.regions = self.regions | {new}
            self.delta[tid] = self.delta[tid].with_entry(
                new, Capability(1, 1, pure=True), parent)
        elif rule == "E-NR":
            loc, value = info
            try:
                t, _ = _retype(self.regions, self.locations, value, EMPTY_EFFECT,
                               self.memo)
                self.locations[loc] = t
            except CheckFailure as exc:
                violations.append(Violation(
                    "store-typing",
                    f"allocated value fails to type: {exc.diagnostic.render()}", tid))
            dirty.add(loc)
        elif rule == "E-AS":
            loc, _ = info
            dirty.add(loc)
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
        violations += self._full_check(outcome.config, dirty=dirty, only=retype)
        return violations

    def _full_check(self, config: Config, dirty: Optional[set[Location]],
                    only: Optional[set[int]] = None) -> list[Violation]:
        out = check_thread_typing(self.regions, self.locations, config.threads,
                                  self.delta, self.obligations, only=only, memo=self.memo)
        out += check_store_consistency(config.store, self.delta)
        out += check_store_typing(self.regions, self.locations, config.store,
                                  dirty=dirty, memo=self.memo)
        return out
