"""The capability algebra and region substitution as plain functions, for
model-based tests of the interned, cached ones in `effects` and `syntax`.

These are the functions as they were before effects and types were interned
and their operations cached on them: nothing is kept, and a substitution
returns its input itself only where it checks that no part changed.  They
build their results with `reglock.syntax`'s constructors, so a result equal
to the machine's in the same entry order is the same object.
"""

from __future__ import annotations

from reglock.effects import SplitResult, cap_split, missing_parent
from reglock.syntax import (
    BOTTOM,
    UNKNOWN,
    CapError,
    Capability,
    CapOp,
    Effect,
    FnType,
    HandleType,
    ParMode,
    RefType,
    RegionLit,
    RegionPolyType,
    RegionVar,
    free_regions,
    fresh_region_var,
)


def fragments(eff: Effect) -> Effect:
    return Effect((r, Capability(cap.rg, cap.lk, pure=False), parent)
                  for r, cap, parent in eff.items())


def effect_subtract(current: Effect, need: Effect) -> SplitResult:
    abstracted = set()
    passed = []
    retained = {r: (cap, parent) for r, cap, parent in current.items()}
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
        elif parent_have != parent_need:
            raise CapError("ParentMismatch",
                           f"callee expects parent {parent_need} for {r}, "
                           f"actual parent is {parent_have}", r)
        given, kept = cap_split(cap_have, cap_need)
        passed.append((r, given, parent_need))
        if kept.rg > 0:
            retained[r] = (kept, parent_have)
        elif kept.lk > 0:
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
                abstracted: frozenset) -> Effect:
    table = {r: (cap, parent) for r, cap, parent in retained.items()}
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


def apply_cap_op(eff: Effect, r, op: CapOp) -> Effect:
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


def subst_regions(x, rho: dict):
    kind = type(x)
    if kind is RegionVar:
        return rho.get(x, x)
    if kind is Effect:
        return _subst_effect(x, rho)
    if kind is FnType:
        parts = (x.param, x.effect_in, x.effect_out, x.result)
        new = tuple(subst_regions(part, rho) for part in parts)
        return x if all(a is b for a, b in zip(new, parts)) else FnType(*new)
    if kind is RefType:
        elem = subst_regions(x.elem, rho)
        region = rho.get(x.region, x.region)
        return x if elem is x.elem and region is x.region else RefType(elem, region)
    if kind is HandleType:
        region = rho.get(x.region, x.region)
        return x if region is x.region else HandleType(region)
    if kind is ParMode:
        transfer = subst_regions(x.transfer, rho)
        return x if transfer is x.transfer else ParMode(transfer)
    if kind is RegionPolyType:
        inner = {var: rep for var, rep in rho.items() if var != x.var}
        var, body = x.var, x.body
        if var in inner.values() and not inner.keys().isdisjoint(free_regions(body)):
            var = fresh_region_var(var, free_regions(body) | inner.keys() | set(inner.values()))
            body = subst_regions(body, {x.var: var})
        body = subst_regions(body, inner) if inner else body
        return x if body is x.body else RegionPolyType(var, body)
    return x


def _subst_effect(eff: Effect, rho: dict) -> Effect:
    if not any(r in rho or parent in rho for r, _, parent in eff.items()):
        return eff
    table = {}
    merged = None
    for r, cap, parent in eff.items():
        nr = rho.get(r, r)
        nparent = rho.get(parent, parent)
        if nr in table:
            ocap, oparent = table[nr]
            both = Capability(ocap.rg + cap.rg, ocap.lk + cap.lk, pure=False)
            if oparent is UNKNOWN:
                keep = nparent
            elif nparent is UNKNOWN or nparent == oparent:
                keep = oparent
            else:
                raise ValueError(
                    f"cannot merge effect entries for {nr} with parents "
                    f"{oparent} and {nparent}")
            table[nr] = (both, keep)
            merged = nr
        else:
            table[nr] = (cap, nparent)
    result = Effect((r, c, p) for r, (c, p) in table.items())
    reason = result.well_formed() if merged is not None else None
    if reason is not None:
        pairs = ", ".join(f"{rep} for {var}" for var, rep in rho.items())
        raise CapError("NotLive", f"substituting {pairs} merges {eff} "
                       f"into an ill-formed effect: {reason}", merged)
    return result
