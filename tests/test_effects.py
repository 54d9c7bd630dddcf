from __future__ import annotations

from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reglock import effects
from reglock.effects import (
    CapError,
    apply_cap_op,
    cap_split,
    check_par_constraints,
    effect_join,
    effect_subtract,
    is_accessible_static,
)
from reglock.syntax import (
    BOTTOM,
    UNIT,
    UNKNOWN,
    Capability,
    CapOp,
    Effect,
    RegionVar,
)

RHO = RegionVar("rho")
RHOH = RegionVar("rhoH")
R1, R2, R3, R4 = (RegionVar(f"r{i}") for i in range(1, 5))


def cap(rg, lk, pure=True):
    return Capability(rg, lk, pure)


def heap_rooted(*entries):
    return Effect([(RHOH, cap(1, 0), BOTTOM), *entries])


class TestCapSplit:
    def test_fractional_split(self):
        given_, kept = cap_split(cap(3, 2), cap(2, 1, pure=False))
        assert given_ == cap(2, 1, pure=False)
        assert kept == cap(1, 1, pure=False)

    def test_whole_pure_transfer(self):
        given_, kept = cap_split(cap(1, 1), cap(1, 1))
        assert given_ == cap(1, 1, pure=True)
        assert (kept.rg, kept.lk) == (0, 0)

    def test_two_halves_exhaust(self):
        g1, kept = cap_split(cap(2, 2), cap(1, 1, pure=False))
        assert g1 == cap(1, 1, pure=False) and kept == cap(1, 1, pure=False)
        g2, kept2 = cap_split(kept, cap(1, 1, pure=False))
        assert g2 == cap(1, 1, pure=False) and (kept2.rg, kept2.lk) == (0, 0)

    def test_insufficient(self):
        with pytest.raises(CapError) as exc:
            cap_split(cap(1, 0, pure=False), cap(2, 0, pure=False))
        assert exc.value.code == "InsufficientCapability"

    def test_pure_demand_needs_whole_pure(self):
        with pytest.raises(CapError) as exc:
            cap_split(cap(2, 1), cap(1, 1, pure=True))
        assert exc.value.code == "PurityViolation"
        with pytest.raises(CapError) as exc:
            cap_split(cap(1, 1, pure=False), cap(1, 1, pure=True))
        assert exc.value.code == "PurityViolation"


class TestEffectSubtract:
    def test_aliased_swap_demand(self):
        # Two (1,1) demands on the same region, merged to an impure (2,2).
        current = heap_rooted((RHO, cap(2, 2), RHOH))
        need = Effect.of((RHO, cap(2, 2, pure=False), UNKNOWN))
        res = effect_subtract(current, need)
        assert res.passed == need
        assert res.retained == Effect.of((RHOH, cap(1, 0), BOTTOM))
        assert res.abstracted == {RHOH}

    def test_half_split_retains_half(self):
        current = heap_rooted((RHO, cap(2, 0), RHOH))
        need = Effect.of((RHO, cap(1, 0, pure=False), RHOH))
        res = effect_subtract(current, need)
        assert res.passed.cap(RHO) == cap(1, 0, pure=False)
        assert res.retained.cap(RHO) == cap(1, 0, pure=False)
        assert res.abstracted == frozenset()

    def test_unknown_region(self):
        with pytest.raises(CapError) as exc:
            effect_subtract(Effect(), Effect.of((RHO, cap(1, 0, pure=False), UNKNOWN)))
        assert exc.value.code == "UnknownRegion"

    def test_parent_mismatch(self):
        current = heap_rooted((RHO, cap(1, 1), RHOH))
        need = Effect.of((RHO, cap(1, 1, pure=False), R1))
        with pytest.raises(CapError) as exc:
            effect_subtract(current, need)
        assert exc.value.code == "ParentMismatch"

    def test_orphaned_lock_counts_are_rejected(self):
        current = heap_rooted((RHO, cap(1, 1), RHOH))
        need = Effect.of((RHO, cap(1, 0, pure=False), UNKNOWN))
        with pytest.raises(CapError) as exc:
            effect_subtract(current, need)
        assert exc.value.code == "InsufficientCapability"

    def test_taking_a_parent_away_from_its_child_is_rejected(self):
        # Handing rho to a callee while keeping a child of rho would let the
        # callee free the child's ancestor.
        current = Effect([(RHOH, cap(1, 0), BOTTOM), (RHO, cap(1, 1), RHOH),
                          (R1, cap(1, 0), RHO)])
        need = Effect.of((RHO, cap(1, 1), UNKNOWN))
        with pytest.raises(CapError) as exc:
            effect_subtract(current, need)
        assert exc.value.code == "NotLive"


class TestEffectJoin:
    def test_purity_restored_on_full_reconstruction(self):
        original = heap_rooted((RHO, cap(2, 2), RHOH))
        retained = Effect.of((RHOH, cap(1, 0), BOTTOM))
        out = Effect.of((RHO, cap(2, 2, pure=False), UNKNOWN))
        joined = effect_join(original, retained, out, frozenset({RHOH}))
        assert joined.cap(RHO) == cap(2, 2, pure=True)
        assert joined.parent(RHO) == RHOH

    def test_empty_join(self):
        assert effect_join(Effect(), Effect(), Effect(), frozenset()) == Effect()

    def test_domain_violation(self):
        with pytest.raises(CapError) as exc:
            effect_join(Effect(), Effect(), Effect.of((RHO, cap(1, 0), UNKNOWN)),
                        frozenset())
        assert exc.value.code == "DomainViolation"

    def test_abstracted_parent_must_survive(self):
        original = heap_rooted((RHO, cap(1, 1), RHOH))
        # Callee consumed rho entirely and the heap was somehow dropped too.
        with pytest.raises(CapError) as exc:
            effect_join(original, Effect(), Effect(), frozenset({RHOH}))
        assert exc.value.code == "AbstractedParentDead"

    def test_parent_change_rejected(self):
        original = heap_rooted((RHO, cap(1, 1), RHOH))
        retained = Effect.of((RHOH, cap(1, 0), BOTTOM))
        out = Effect.of((RHO, cap(1, 1, pure=False), R1))
        with pytest.raises(CapError) as exc:
            effect_join(original, retained, out, frozenset())
        assert exc.value.code == "ConsistencyViolation"


class TestParConstraints:
    def test_impure_lock_escape(self):
        passed = Effect.of((RHO, cap(1, 1, pure=False), RHOH))
        with pytest.raises(CapError) as exc:
            check_par_constraints(passed, Effect(), UNIT)
        assert exc.value.code == "ImpureLockEscape"

    def test_sharing_transfer_ok(self):
        passed = Effect([(RHOH, cap(1, 0, pure=False), BOTTOM),
                         (RHO, cap(1, 0, pure=False), RHOH)])
        check_par_constraints(passed, Effect(), UNIT)

    def test_empty_ok(self):
        check_par_constraints(Effect(), Effect(), UNIT)

    def test_abstracted_parent_rejected(self):
        passed = Effect.of((RHO, cap(1, 0, pure=False), UNKNOWN))
        with pytest.raises(CapError) as exc:
            check_par_constraints(passed, Effect(), UNIT)
        assert exc.value.code == "HierarchyAbstractionInPar"

    def test_dangling_parent_rejected(self):
        passed = Effect.of((RHO, cap(1, 0, pure=False), RHOH))
        with pytest.raises(CapError) as exc:
            check_par_constraints(passed, Effect(), UNIT)
        assert exc.value.code == "HierarchyAbstractionInPar"

    def test_nonempty_output_rejected(self):
        with pytest.raises(CapError) as exc:
            check_par_constraints(Effect(), Effect.of((RHO, cap(1, 0), UNKNOWN)), UNIT)
        assert exc.value.code == "NonEmptyThreadOutput"

    def test_non_unit_result_rejected(self):
        from reglock.syntax import INT
        with pytest.raises(CapError) as exc:
            check_par_constraints(Effect(), Effect(), INT)
        assert exc.value.code == "NonUnitThreadResult"


class TestLivenessAccessibility:
    def test_live_iff_in_domain(self):
        eff = heap_rooted((RHO, cap(1, 1), RHOH))
        assert RHO in eff
        assert RHO not in Effect()
        assert R2 not in heap_rooted((R1, cap(1, 1), RHOH))

    def test_ancestor_lock_grants_access(self):
        eff = Effect([(R1, cap(1, 1), UNKNOWN), (R2, cap(1, 0), R1)])
        assert is_accessible_static(eff, R2)

    def test_no_lock_no_access(self):
        eff = heap_rooted((RHO, cap(1, 0), RHOH))
        assert not is_accessible_static(eff, RHO)

    def test_own_lock_suffices(self):
        eff = Effect.of((RHO, cap(1, 1), UNKNOWN))
        assert is_accessible_static(eff, RHO)

    def test_accessible_implies_live(self):
        eff = Effect([(R1, cap(1, 1), UNKNOWN), (R2, cap(1, 0), R1)])
        for r in (R1, R2):
            if is_accessible_static(eff, r):
                assert r in eff


class TestApplyCapOp:
    def test_share_then_unlock(self):
        eff = heap_rooted((RHO, cap(1, 1), RHOH))
        eff = apply_cap_op(eff, RHO, CapOp.RG_PLUS)
        eff = apply_cap_op(eff, RHO, CapOp.LK_MINUS)
        assert eff.cap(RHO) == cap(2, 0)

    def test_bulk_static_removal(self):
        eff = Effect([(RHOH, cap(1, 0), BOTTOM),
                      (R1, cap(1, 1), RHOH), (R2, cap(1, 1), R1),
                      (R3, cap(1, 1), R2), (R4, cap(1, 1), R2)])
        out = apply_cap_op(eff, R2, CapOp.RG_MINUS)
        assert {r for r, _, _ in out.items()} == {RHOH, R1}

    def test_lock_twice(self):
        eff = heap_rooted((RHO, cap(2, 0), RHOH))
        eff = apply_cap_op(eff, RHO, CapOp.LK_PLUS)
        eff = apply_cap_op(eff, RHO, CapOp.LK_PLUS)
        assert eff.cap(RHO) == cap(2, 2)

    def test_unlock_underflow(self):
        eff = heap_rooted((RHO, cap(1, 0), RHOH))
        with pytest.raises(CapError) as exc:
            apply_cap_op(eff, RHO, CapOp.LK_MINUS)
        assert exc.value.code == "CountUnderflow"

    def test_dead_region(self):
        with pytest.raises(CapError) as exc:
            apply_cap_op(Effect(), RHO, CapOp.RG_PLUS)
        assert exc.value.code == "RegionNotLive"


# -- property suites ------------------------------------------------------------


caps = st.builds(Capability, st.integers(0, 5), st.integers(0, 5), st.booleans())


@settings(max_examples=1000, deadline=None)
@given(caps, caps)
def test_cap_split_conservation(have: Capability, need: Capability):
    """given + kept == have, componentwise, whenever the split succeeds."""
    try:
        given_, kept = cap_split(have, need)
    except CapError:
        return
    assert given_.rg + kept.rg == have.rg
    assert given_.lk + kept.lk == have.lk


@st.composite
def forest_and_need(draw):
    """A well-formed heap-rooted effect plus a feasible pure-entry demand."""
    n = draw(st.integers(1, 5))
    entries = [(RHOH, cap(1, 0), BOTTOM)]
    names = [RHOH]
    for i in range(n):
        r = RegionVar(f"p{i}")
        parent = draw(st.sampled_from(names))
        entries.append((r, Capability(draw(st.integers(1, 4)), draw(st.integers(0, 4)),
                                      True), parent))
        names.append(r)
    eff = Effect(entries)
    # Demand pieces of the leaves only, so the retained effect stays closed.
    leaves = [r for r, _, _ in entries[1:]
              if not any(p == r for _, _, p in entries)]
    chosen = draw(st.lists(st.sampled_from(leaves), unique=True, min_size=1))
    need_entries = []
    for r in chosen:
        have = eff.cap(r)
        whole = draw(st.booleans())
        if whole:
            need_entries.append((r, have, draw(st.sampled_from([UNKNOWN, eff.parent(r)]))))
        else:
            rg = draw(st.integers(1, have.rg))
            # Taking all region counts while leaving lock counts behind is
            # rejected (the remainder could not live in an effect).
            lk = have.lk if rg == have.rg else draw(st.integers(0, have.lk))
            need_entries.append((r, Capability(rg, lk, False),
                                 draw(st.sampled_from([UNKNOWN, eff.parent(r)]))))
    return eff, Effect(need_entries)


@settings(max_examples=1000, deadline=None)
@given(forest_and_need())
def test_split_join_round_trip(data):
    """Splitting and rejoining the same pieces reconstructs the original."""
    eff, need = data
    res = effect_subtract(eff, need)
    joined = effect_join(eff, res.retained, res.passed, res.abstracted)
    assert joined == eff


@settings(max_examples=1000, deadline=None)
@given(effects=st.data())
def test_bulk_removal_completeness(effects):
    """After freeing drops a region, nothing whose chain reached it remains.

    Oracle: an independent reachability scan over the original parent links.
    """
    n = effects.draw(st.integers(1, 7))
    entries = [(RHOH, cap(1, 0), BOTTOM)]
    names = [RHOH]
    for i in range(n):
        r = RegionVar(f"b{i}")
        parent = effects.draw(st.sampled_from(names + [UNKNOWN]))
        entries.append((r, cap(1, effects.draw(st.integers(0, 2))), parent))
        names.append(r)
    eff = Effect(entries)
    victim = effects.draw(st.sampled_from([r for r, _, _ in entries[1:]]))

    # Oracle: reachability over parent links, computed before the operation.
    parent_of = {r: p for r, _, p in entries}
    def reaches(r):
        while isinstance(r, RegionVar):
            if r == victim:
                return True
            r = parent_of[r]
            if not isinstance(r, RegionVar):
                return False
        return False
    doomed = {r for r, _, _ in entries if r == victim or reaches(r)}

    out = apply_cap_op(eff, victim, CapOp.RG_MINUS)
    assert {r for r, _, _ in out.items()} == {r for r, _, _ in eff.items()} - doomed
    assert out.well_formed() is None


@given(effect=st.data())
def test_share_then_free_is_identity_without_removal(effect):
    rg = effect.draw(st.integers(1, 4))
    lk = effect.draw(st.integers(0, 3))
    eff = heap_rooted((RHO, Capability(rg, lk, True), RHOH))
    out = apply_cap_op(apply_cap_op(eff, RHO, CapOp.RG_PLUS), RHO, CapOp.RG_MINUS)
    assert out == eff


@st.composite
def split_and_join(draw):
    """A well-formed effect in any entry order, a demand on any of its
    regions (parents included, so a kept child may lose its parent), and a
    callee output over some of the demanded regions, well-formed itself."""
    n = draw(st.integers(1, 6))
    names = [RegionVar(f"q{i}") for i in range(n)]
    entries = []
    for i, r in enumerate(names):
        parent = draw(st.sampled_from([BOTTOM, UNKNOWN, *names[:i]]))
        entries.append((r, Capability(draw(st.integers(1, 3)), draw(st.integers(0, 2)),
                                      draw(st.booleans())), parent))
    eff = Effect(draw(st.permutations(entries)))
    need_entries = []
    for r in draw(st.lists(st.sampled_from(names), unique=True, min_size=1)):
        have = eff.cap(r)
        if draw(st.booleans()):
            need_entries.append((r, have, draw(st.sampled_from([UNKNOWN, eff.parent(r)]))))
        else:
            rg = draw(st.integers(1, have.rg))
            lk = have.lk if rg == have.rg else draw(st.integers(0, have.lk))
            need_entries.append((r, Capability(rg, lk, False), UNKNOWN))
    need = Effect(need_entries)
    returned = draw(st.lists(st.sampled_from([r for r, _, _ in need.items()]), unique=True))
    out = Effect((r, Capability(draw(st.integers(1, 3)), draw(st.integers(0, 2)), False),
                  eff.parent(r) if eff.parent(r) in returned else UNKNOWN)
                 for r in returned)
    return eff, need, out


@settings(max_examples=500, deadline=None)
@given(split_and_join())
def test_split_and_join_check_only_what_they_can_break(data):
    """From well-formed inputs, `effect_subtract` and `effect_join` raise
    `NotLive` exactly when their unchecked result is ill-formed, with the
    message `Effect.well_formed` gives, and otherwise return a well-formed
    effect: checking parent membership alone loses nothing."""
    eff, need, out = data

    def unchecked(fn, *args):
        with patch.object(effects, "missing_parent", lambda _: None):
            return fn(*args)

    def agree(fn, args, result_of, prefix):
        try:
            loose = unchecked(fn, *args)
        except CapError as exc:  # raised before the check, so by both
            with pytest.raises(CapError) as again:
                fn(*args)
            assert (again.value.code, again.value.message) == (exc.code, exc.message)
            return None
        reason = result_of(loose).well_formed()
        if reason is not None:
            with pytest.raises(CapError) as exc:
                fn(*args)
            assert exc.value.code == "NotLive"
            assert exc.value.message == f"{prefix}: {reason}"
            return None
        result = fn(*args)
        assert result == loose and result_of(result).well_formed() is None
        return result

    split = agree(effect_subtract, (eff, need), lambda res: res.retained,
                  "call would break region liveness for the caller")
    if split is not None:
        agree(effect_join, (eff, split.retained, out, split.abstracted),
              lambda res: res, "post-call effect is ill-formed")
