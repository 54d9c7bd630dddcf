"""Capability arithmetic and the effect split/join judgement.

Splitting happens at every function application: the callee's instantiated
input effect is subtracted from the caller's current effect, and on return
the callee's output effect is joined back in.  Purity tracks whether a
capability is whole (exact counts) or a fragment of a larger one; fragments
with positive lock counts must never cross a thread boundary.
"""

from __future__ import annotations

from typing import Optional

from .syntax import (
    BOTTOM,
    UNKNOWN,
    CapError,
    Capability,
    CapOp,
    Effect,
    Parent,
    Record,
    RegionLit,
    RegionName,
    RegionVar,
    Type,
    UnitType,
)


class SplitResult(Record):
    """Outcome of subtracting a callee input effect from the current one.
    `abstracted` holds the actual parents hidden behind `?` for the duration
    of this call; they must still be live when a sequential call returns."""

    def __init__(self, passed: Effect, retained: Effect,
                 abstracted: frozenset[RegionName] = frozenset()) -> None:
        self.__dict__.update(passed=passed, retained=retained, abstracted=abstracted)


def cap_split(have: Capability, need: Capability) -> tuple[Capability, Capability]:
    """Split `have` into a piece matching `need` plus the remainder.

    A pure demand is only satisfied by whole-capability transfer; any proper
    split produces impure halves.  Conservation holds: given + kept == have,
    componentwise.
    """
    if need.rg > have.rg or need.lk > have.lk:
        raise CapError("InsufficientCapability",
                       f"need {need} but only {have} is held")
    if need.pure:
        if not have.pure:
            raise CapError("PurityViolation",
                           f"pure {need} demanded but held capability {have} is impure")
        if (need.rg, need.lk) != (have.rg, have.lk):
            raise CapError("PurityViolation",
                           f"pure {need} demanded; only whole transfer of {have} is allowed")
        return have, Capability(0, 0, pure=True)
    given = Capability(need.rg, need.lk, pure=False)
    kept = Capability(have.rg - need.rg, have.lk - need.lk, pure=False)
    return given, kept


def fragments(eff: Effect) -> Effect:
    """`eff` with every capability impure: the same counts and parents.

    Subtracted as a demand, it asks for counts alone: `cap_split` meets it
    from any capability that holds at least as much, pure or not.
    """
    return Effect((r, Capability(cap.rg, cap.lk, pure=False), parent)
                  for r, cap, parent in eff.items())


def missing_parent(eff: Effect) -> Optional[str]:
    """The one way a split or a join can make an effect ill-formed.

    Their results keep entries of one well-formed effect, with its parents
    and positive region counts; a subset of an acyclic parent relation is
    acyclic.  So a kept entry whose parent was dropped is the only problem
    `Effect.well_formed` could find, and this reports it in the same words,
    without walking any entry's ancestors.
    """
    for r, _, parent in eff.items():
        if isinstance(parent, (RegionVar, RegionLit)) and parent not in eff:
            return f"parent {parent} of {r} is not in the effect"
    return None


def effect_subtract(current: Effect, need: Effect) -> SplitResult:
    """Subtract an instantiated callee input effect from `current`.

    Regions not demanded are retained untouched.  A demanded region whose
    declared parent is `?` has its actual parent recorded for the
    liveness-after-return check.  The retained effect must stay well formed:
    handing a region to a callee while keeping one of its descendants would
    let the callee deallocate the ground under the caller's feet.
    """
    abstracted: set[RegionName] = set()
    passed: list[tuple[RegionName, Capability, Parent]] = []
    retained: dict[RegionName, tuple[Capability, Parent]] = {
        r: (cap, parent) for r, cap, parent in current.items()
    }
    for r, cap_need, parent_need in need.items():
        entry = current.get(r)
        if entry is None:
            raise CapError("UnknownRegion", f"region {r} is not in the current effect", r)
        cap_have, parent_have = entry
        if parent_need is UNKNOWN:
            if isinstance(parent_have, (RegionVar, RegionLit)):
                abstracted.add(parent_have)
        elif parent_need is BOTTOM:
            if parent_have is not BOTTOM:
                raise CapError("ParentMismatch",
                               f"callee expects {r} to be the physical root, "
                               f"but its parent is {parent_have}", r)
        else:
            if parent_have != parent_need:
                raise CapError("ParentMismatch",
                               f"callee expects parent {parent_need} for {r}, "
                               f"actual parent is {parent_have}", r)
        given, kept = cap_split(cap_have, cap_need)
        passed.append((r, given, parent_need))
        if kept.rg > 0:
            retained[r] = (kept, parent_have)
        elif kept.lk > 0:
            # A lock count with no region count cannot appear in an effect;
            # silently dropping it would leak a held lock forever.
            raise CapError("InsufficientCapability",
                           f"taking every region count of {r} would orphan "
                           f"{kept.lk} lock count(s); take the locks too or "
                           f"keep a region count", r)
        else:
            del retained[r]
    retained_eff = Effect((r, c, p) for r, (c, p) in retained.items())
    reason = missing_parent(retained_eff)
    if reason is not None:
        raise CapError("NotLive",
                       f"call would break region liveness for the caller: {reason}")
    return SplitResult(Effect(passed), retained_eff, frozenset(abstracted))


def effect_join(original: Effect, retained: Effect, out: Effect,
                abstracted: frozenset[RegionName]) -> Effect:
    """Join a callee output effect back into the retained effect.

    The result domain stays inside the pre-call domain, regions keep their
    pre-call parents, and a capability turns pure again exactly when the
    rejoined counts reconstruct the pre-call counts of a pure capability.
    """
    table: dict[RegionName, tuple[Capability, Parent]] = {
        r: (cap, parent) for r, cap, parent in retained.items()
    }
    for r, cap_out, parent_out in out.items():
        entry = original.get(r)
        if entry is None:
            raise CapError("DomainViolation",
                           f"callee output mentions {r}, unknown before the call", r)
        cap_orig, parent_orig = entry
        if parent_out is not UNKNOWN and parent_out != parent_orig:
            raise CapError("ConsistencyViolation",
                           f"callee output changes {r}'s parent from "
                           f"{parent_orig} to {parent_out}", r)
        base = table.get(r)
        base_rg, base_lk = (base[0].rg, base[0].lk) if base else (0, 0)
        rg, lk = base_rg + cap_out.rg, base_lk + cap_out.lk
        pure = cap_orig.pure and (rg, lk) == (cap_orig.rg, cap_orig.lk)
        if rg > 0:
            table[r] = (Capability(rg, lk, pure), parent_orig)
    result = Effect((r, c, p) for r, (c, p) in table.items())
    for p in abstracted:
        if p not in result:
            raise CapError("AbstractedParentDead",
                           f"abstracted parent {p} is no longer live after the call", p)
    reason = missing_parent(result)
    if reason is not None:
        raise CapError("NotLive", f"post-call effect is ill-formed: {reason}")
    return result


def check_par_constraints(passed: Effect, out: Effect, result_type: Type) -> None:
    """Validate the effect a new thread receives.

    Checked in order of importance: no divided lock may cross the thread
    boundary, the transferred effect must be hierarchy-complete (no `?`
    parents, no parents outside it), the thread must consume everything it
    receives, and it must return unit.
    """
    for r, cap, _ in passed.items():
        if not cap.pure and cap.lk > 0:
            raise CapError("ImpureLockEscape",
                           f"impure capability {cap} for {r} with a positive lock "
                           f"count cannot be given to a new thread", r)
    for r, _, parent in passed.items():
        if parent is UNKNOWN:
            raise CapError("HierarchyAbstractionInPar",
                           f"region {r} has an abstracted parent and cannot be "
                           f"passed to a new thread", r)
        if isinstance(parent, (RegionVar, RegionLit)) and parent not in passed:
            raise CapError("HierarchyAbstractionInPar",
                           f"parent {parent} of {r} is not part of the transferred "
                           f"effect", r)
    if not out.is_empty():
        raise CapError("NonEmptyThreadOutput",
                       "a spawned thread's declared output effect must be empty")
    if not isinstance(result_type, UnitType):
        raise CapError("NonUnitThreadResult",
                       f"a spawned thread must return unit, not {result_type}")


def is_accessible_static(eff: Effect, r: RegionName) -> bool:
    """True when r's own entry, or an ancestor entry within the effect,
    holds a positive lock count."""
    if r not in eff:
        return False
    if eff.cap(r).lk >= 1:
        return True
    return any(eff.cap(a).lk >= 1 for a in eff.ancestors(r))


def apply_cap_op(eff: Effect, r: RegionName, op) -> Effect:
    """Apply a capability operator to r's entry.

    Dropping the region count to zero removes the region together with every
    region whose parent chain reaches it (the static face of bulk subtree
    deallocation).
    """
    entry = eff.get(r)
    if entry is None:
        raise CapError("RegionNotLive", f"region {r} is not live in the effect", r)
    cap, parent = entry
    if op is CapOp.RG_PLUS:
        return eff.with_entry(r, Capability(cap.rg + 1, cap.lk, cap.pure), parent)
    if op is CapOp.LK_PLUS:
        return eff.with_entry(r, Capability(cap.rg, cap.lk + 1, cap.pure), parent)
    if op is CapOp.LK_MINUS:
        if cap.lk == 0:
            raise CapError("CountUnderflow",
                           f"unlock of {r} whose lock count is already 0", r)
        return eff.with_entry(r, Capability(cap.rg, cap.lk - 1, cap.pure), parent)
    if op is CapOp.RG_MINUS:
        if cap.rg == 1:
            doomed = eff.descendants_of(r) | {r}
            return eff.without(*doomed)
        return eff.with_entry(r, Capability(cap.rg - 1, cap.lk, cap.pure), parent)
    raise TypeError(f"unknown capability operator {op!r}")
