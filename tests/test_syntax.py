from __future__ import annotations

import copy
import gc
import pickle
import typing
import weakref

import pytest
from hypothesis import given
from hypothesis import strategies as st

from reglock import typecheck
from reglock.interp import BlockedOn, detect_deadlock
from reglock.parser import parse_expr, parse_program
from reglock.store import initial_store
from reglock.syntax import (
    BOTTOM,
    CLOSED,
    INT,
    UNIT_VALUE,
    UNIT,
    UNKNOWN,
    App,
    CapError,
    Capability,
    Cap,
    CapOp,
    Const,
    Effect,
    EMPTY_EFFECT,
    FnType,
    HandleType,
    BINDERS,
    LEAVES,
    _FIELDS,
    Expr,
    Lambda,
    NewRgn,
    RegionApp,
    RegionLambda,
    RefType,
    RegionLit,
    RegionPolyType,
    RegionVar,
    RgnVal,
    ParMode,
    Seq,
    Var,
    free_names,
    children,
    free_regions,
    subst_expr,
    subst_regions,
)
from reglock.typecheck import Checker, _Env

from conftest import CORPUS

RHO1 = RegionVar("rho1")
RHO2 = RegionVar("rho2")
RHOH = RegionVar("rhoH")
IOTA3 = RegionLit("r3")


class TestSubstRegion:
    def test_direct_substitution(self):
        assert subst_regions(RefType(INT, RHO1), {RHO1: IOTA3}) == RefType(INT, IOTA3)

    def test_non_occurring_variable_is_identity(self):
        t = FnType(RefType(INT, RHO2), Effect(), Effect(), RegionPolyType(RHO1, UNIT))
        assert subst_regions(t, {RHO1: IOTA3}) is t

    def test_shadowing_stops_substitution(self):
        t = RegionPolyType(RHO1, RefType(INT, RHO1))
        assert subst_regions(t, {RHO1: IOTA3}) is t

    def test_capture_is_avoided(self):
        # Substituting rho2 under a binder for rho2 must rename the binder.
        t = RegionPolyType(RHO2, RefType(INT, RHO1))
        out = subst_regions(t, {RHO1: RHO2})
        assert isinstance(out, RegionPolyType)
        assert out.var != RHO2
        assert out.body == RefType(INT, RHO2)

    def test_effect_domain_and_parents_substituted(self):
        eff = Effect.of((RHO1, Capability(1, 1), RHOH))
        out = subst_regions(eff, {RHO1: IOTA3})
        assert [r for r, _, _ in out.items()] == [IOTA3]
        out2 = subst_regions(out, {RHOH: IOTA3})  # parent collides with domain
        assert out2.parent(IOTA3) == IOTA3  # parent substituted
        assert subst_regions(eff, {RHOH: IOTA3}).parent(RHO1) == IOTA3

    def test_merge_into_a_parent_loop_is_not_live(self):
        # b := a turns a's parent into a itself.
        eff = Effect.of((RHO2, Capability(1, 0, pure=False), UNKNOWN),
                        (RHO1, Capability(1, 0, pure=False), RHO2))
        with pytest.raises(CapError) as exc:
            subst_regions(eff, {RHO2: RHO1})
        assert exc.value.code == "NotLive" and "its own parent" in exc.value.message

    def test_aliased_entries_merge_impure(self):
        eff = Effect.of((RHO1, Capability(1, 1, pure=False), UNKNOWN),
                        (RHO2, Capability(1, 1, pure=False), UNKNOWN))
        merged = subst_regions(subst_regions(eff, {RHO1: IOTA3}), {RHO2: IOTA3})
        assert [r for r, _, _ in merged.items()] == [IOTA3]
        cap = merged.cap(IOTA3)
        assert (cap.rg, cap.lk, cap.pure) == (2, 2, False)


class TestSubstVar:
    def test_hit(self):
        assert subst_expr(Var("x"), {"x": Const(5)}) == Const(5)

    def test_miss(self):
        assert subst_expr(Var("y"), {"x": Const(5)}) == Var("y")

    def test_shadowing(self):
        lam = Lambda("x", INT, Var("x"), Effect(), Effect())
        assert subst_expr(lam, {"x": Const(5)}) is lam
        # Only the shadowed name stops at the binder.
        lam = Lambda("x", INT, Seq(Var("x"), Var("y")), Effect(), Effect())
        assert subst_expr(lam, {"x": Const(5), "y": Const(6)}).body == Seq(Var("x"), Const(6))


class TestSubstitutionSharing:
    """Substitution rebuilds only the paths to what it replaces."""

    BODY = Seq(Cap(CapOp.RG_PLUS, Var("h")),
               Seq(Lambda("x", RefType(INT, RHO2), Var("x"), Effect(), Effect()),
                   Const(UNIT_VALUE)))

    def test_absent_names_return_the_same_object(self):
        assert subst_expr(self.BODY, {"nowhere": Const(5)}) is self.BODY
        assert subst_expr(self.BODY, {RHO1: IOTA3}) is self.BODY
        eff = Effect.of((RHO2, Capability(1, 0), BOTTOM))
        assert subst_regions(eff, {RHO1: IOTA3}) is eff

    def test_only_the_path_to_an_occurrence_is_rebuilt(self):
        out = subst_expr(self.BODY, {"h": Const(5)})
        assert out.first == Cap(CapOp.RG_PLUS, Const(5))
        assert out.second is self.BODY.second
        out = subst_expr(self.BODY, {RHO2: IOTA3})
        assert out.first is self.BODY.first
        assert out.second.first.param_type == RefType(INT, IOTA3)
        assert out.second.second is self.BODY.second.second

    def test_walks_leave_no_reference_cycles(self):
        # The collector finds nothing: every object a call made was freed by
        # reference counting as soon as it was dropped.
        seq = Seq(Var("x"), Var("y"))
        heap, a = RegionLit("H"), RegionLit("a")
        store, b = initial_store(heap, 1).newrgn(heap, 1, "b")
        store = store.updcap(CapOp.RG_PLUS, heap, 1)
        waits = {1: BlockedOn(1, a, frozenset({2})), 2: BlockedOn(2, heap, frozenset({1}))}
        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            for _ in range(100):
                subst_expr(seq, {"x": Const(5)})
                subst_expr(self.BODY, {RHO2: IOTA3, "h": Const(5)})
                free_names(Seq(Var("x"), self.BODY))
                free_regions(self.BODY.second.first.param_type)
                # The store's walks and every operation that rebuilds a path.
                grown, _ = store.newrgn(b, 1, "a")
                grown, loc = grown.alloc(a, 1, Const(1))
                grown = grown.update(loc, grown.lookup(loc, 1), 1)
                grown = grown.transfer(1, 2, Effect([(heap, Capability(1, 0), BOTTOM)]))
                for op in (CapOp.LK_MINUS, CapOp.LK_PLUS, CapOp.RG_PLUS, CapOp.RG_MINUS,
                           CapOp.RG_MINUS):
                    grown = grown.updcap(op, a, 1)
                list(grown.regions())
                grown.to_json(str)
                assert detect_deadlock(waits) == [1, 2]
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()


class TestTraversal:
    def test_table_covers_every_form_once(self):
        forms = set(typing.get_args(Expr))
        assert set(_FIELDS) == forms and set(LEAVES) <= forms
        assert len(forms - set(LEAVES)) == 13
        # Each binding form binds names in its body, its last subterm.
        binding = [parse_expr(text) for text in (
            "\\x: int @ [{} -> {}]. x", "/\\r. y", "newrgn r, h at y in z")]
        assert set(BINDERS) == {type(e) for e in binding}
        for e in binding:
            assert children(e)[-1] is e.body
            assert set(BINDERS[type(e)]) <= set(_FIELDS[type(e)])

    def test_region_binders_shadow(self):
        # The newrgn binder shadows rho1 and h in its body, not in its parent handle.
        inner = Seq(RegionApp(Var("f"), RHO1), Var("h"))
        shadow = NewRgn(RHO1, "h", inner, inner)
        out = subst_expr(shadow, {RHO1: IOTA3, "h": Const(5)})
        assert out == NewRgn(RHO1, "h", Seq(RegionApp(Var("f"), IOTA3), Const(5)), inner)
        assert out.body is inner
        lam = RegionLambda(RHO1, inner)
        assert subst_expr(lam, {RHO1: IOTA3}) is lam


class TestFreeRegions:
    def test_ref(self):
        assert free_regions(RefType(INT, RHO1)) == {RHO1}

    def test_unit(self):
        assert free_regions(UNIT) == set()

    def test_effects_contribute(self):
        eff = Effect.of((RHO1, Capability(1, 1), RHOH))
        fn = FnType(INT, eff, Effect(), UNIT)
        assert free_regions(fn) == {RHO1, RHOH}

    def test_poly_binds(self):
        t = RegionPolyType(RHO1, RefType(INT, RHO1))
        assert free_regions(t) == set()


class TestFreeNames:
    def test_binders_annotations_and_region_arguments(self):
        # Term binders: the lambda's x and newrgn's h; region binders: the
        # abstraction's rho and newrgn's r.  sigma is free in the annotation,
        # tau in the region argument.
        e = parse_expr("/\\rho. \\x: ref(int, rho) @ [{sigma^(1,0)@_, rho^(1,0)@sigma} "
                       "-> {sigma^(1,0)@_, rho^(1,0)@sigma}]. "
                       "(f[tau]; newrgn r, h at y in (free h; r_use[r]; x; z))")
        assert free_names(e) == ({"f", "y", "r_use", "z"},
                                 {RegionVar("sigma"), RegionVar("tau")})
        assert free_names(e) is free_names(e)  # cached on the node

    def test_closed_terms_share_one_value(self):
        e = parse_expr("/\\rho. \\x: rgn(rho) @ [{rho^(1,0)@_} -> {rho^(1,0)@_}]. free x")
        assert free_names(e) is CLOSED and free_names(Const(1)) is CLOSED
        # The newrgn binder does not scope over its parent handle.
        assert free_names(NewRgn(RHO1, "h", RegionApp(Var("h"), RHO1), Var("h"))) == (
            {"h"}, {RHO1})

    def test_spawn_transfer_regions_are_free(self):
        spawn = App(Var("f"), Const(1), ParMode(Effect.of((RHO1, Capability(1, 0), BOTTOM))))
        assert free_names(spawn) == ({"f"}, {RHO1})

    def test_term_part_agrees_with_free_term_vars(self, corpus_dir):
        for path in sorted(corpus_dir.glob("*.rgn")):
            for d in parse_program(path.read_text()).defs:
                assert free_names(d.body)[0] == free_term_vars(d.body), (path.name, d.name)


def free_term_vars(e: Expr, bound: frozenset[str] = frozenset()) -> set[str]:
    """A reference walk: the free term variables of `e`, from the binding
    rules spelled out by hand."""
    if isinstance(e, Var):
        return set() if e.name in bound else {e.name}
    if isinstance(e, NewRgn):
        return free_term_vars(e.parent_handle, bound) | free_term_vars(
            e.body, bound | {e.handle_name})
    if isinstance(e, Lambda):
        bound = bound | {e.param}
    return set().union(*(free_term_vars(c, bound) for c in children(e)))


class TestEffectInvariants:
    def test_duplicate_regions_rejected(self):
        with pytest.raises(ValueError):
            Effect([(RHO1, Capability(1, 0), BOTTOM), (RHO1, Capability(1, 0), BOTTOM)])

    def test_well_formed_requires_parents_present(self):
        dangling = Effect.of((RHO1, Capability(1, 1), RHOH))
        assert dangling.well_formed() is not None
        closed = Effect.of((RHOH, Capability(1, 0), BOTTOM),
                           (RHO1, Capability(1, 1), RHOH))
        assert closed.well_formed() is None

    def test_zero_region_count_ill_formed(self):
        eff = Effect.of((RHO1, Capability(0, 1), BOTTOM))
        assert eff.well_formed() is not None

    def test_equality_is_order_insensitive(self):
        a = Effect.of((RHOH, Capability(1, 0), BOTTOM), (RHO1, Capability(1, 1), RHOH))
        b = Effect.of((RHO1, Capability(1, 1), RHOH), (RHOH, Capability(1, 0), BOTTOM))
        assert a == b and hash(a) == hash(b)


class TestInterning:
    """Region names and capabilities are hash-consed: equal fields, one object."""

    ATOMS = [(lambda: RegionVar("a"), "name"), (lambda: RegionLit("r1"), "name"),
             (lambda: Capability(1, 0), "rg")]

    @pytest.mark.parametrize("make, field", ATOMS, ids=["var", "lit", "cap"])
    def test_equal_fields_give_one_object(self, make, field):
        atom = make()
        assert make() is atom
        assert copy.copy(atom) is atom and copy.deepcopy(atom) is atom
        assert pickle.loads(pickle.dumps(atom)) is atom
        assert copy.deepcopy(Effect.of((atom, atom, BOTTOM))).items()[0][0] is atom
        with pytest.raises(AttributeError):
            setattr(atom, field, getattr(atom, field))
        assert str(atom) == str(make()) and repr(atom) == repr(make())

    def test_kinds_and_defaults(self):
        assert RegionLit("r1") is not RegionVar("r1") and RegionLit("r1") != RegionVar("r1")
        assert Capability(1, 0) is Capability(1, 0, pure=True)
        assert Capability(1, 0) is not Capability(1, 0, pure=False)
        assert repr(Capability(1, 0, False)) == "Capability(rg=1, lk=0, pure=False)"
        assert repr(RegionVar("a")) == "RegionVar(name='a')"

    def test_negative_counts_are_refused(self):
        with pytest.raises(ValueError):
            Capability(-1, 0)
        with pytest.raises(ValueError):
            Capability(0, -1, pure=False)

    def test_dropped_atoms_are_freed(self):
        # The tables behind interning hold their atoms weakly, so names
        # minted once (say, by a long exploration) do not pile up.
        refs = [weakref.ref(make(i)) for i in range(500) for make in (
            lambda i: RegionVar(f"gone{i}"), lambda i: RegionLit(f"gone{i}"),
            lambda i: Capability(10**6 + i, i))]
        gc.collect()
        assert not any(ref() is not None for ref in refs)

    def test_region_application_instantiates_once(self, monkeypatch):
        calls = []

        def counting(x, rho):
            calls.append(x)
            return subst_regions(x, rho)

        monkeypatch.setattr(typecheck, "subst_regions", counting)
        a, b = RegionVar("a"), RegionVar("b")
        env = _Env({"f": RegionPolyType(a, HandleType(a))}, frozenset({b}))
        checker = Checker()
        types = [checker.check(RegionApp(Var("f"), b), env, EMPTY_EFFECT)[0]
                 for _ in range(2)]
        assert types == [HandleType(b)] * 2 and len(calls) == 1


# -- properties ---------------------------------------------------------------


@st.composite
def effect_forests(draw, max_regions: int = 6) -> Effect:
    """Random well-formed effects: parents point at earlier regions or roots."""
    n = draw(st.integers(min_value=0, max_value=max_regions))
    entries = []
    names = []
    for i in range(n):
        r = RegionVar(f"g{i}")
        choices = [BOTTOM, UNKNOWN] + names
        parent = draw(st.sampled_from(choices))
        cap = Capability(draw(st.integers(1, 3)), draw(st.integers(0, 3)),
                         draw(st.booleans()))
        entries.append((r, cap, parent))
        names.append(r)
    return Effect(entries)


@given(effect_forests())
def test_generated_effects_are_well_formed_and_walkable(eff: Effect):
    assert eff.well_formed() is None
    for r, _, _ in eff.items():
        # liveness closure walk terminates (acyclic parent chains)
        chain = list(eff.ancestors(r))
        assert r not in chain


@given(effect_forests(), st.integers(0, 5))
def test_substitution_identity_when_absent(eff: Effect, k: int):
    ghost = RegionVar(f"absent{k}")
    assert subst_regions(eff, {ghost: RegionLit("zzz")}) is eff


def _corpus_subterms() -> list[Expr]:
    out: list[Expr] = []
    for path in sorted(CORPUS.glob("*.rgn")):
        stack = [d.body for d in parse_program(path.read_text()).defs]
        while stack:
            e = stack.pop()
            if any(free_names(e)):
                out.append(e)
            stack.extend(children(e))
    return out


CORPUS_SUBTERMS = _corpus_subterms()
CLOSED_VALUES = [Const(7), Const(True), RgnVal(RegionLit("r9")),
                 parse_expr("/\\a. \\x: ref(int, a) @ [{a^(1,1)@?} -> {a^(1,1)@?}]. deref x")]


@given(st.sampled_from(CORPUS_SUBTERMS), st.data())
def test_simultaneous_substitution_is_sequential_for_closed_replacements(e: Expr, data):
    terms, regions = free_names(e)
    sigma = {}
    for name in data.draw(st.sets(st.sampled_from(sorted(terms))) if terms else st.just(set())):
        sigma[name] = data.draw(st.sampled_from(CLOSED_VALUES))
    for var in data.draw(st.sets(st.sampled_from(sorted(regions, key=str)))
                         if regions else st.just(set())):
        sigma[var] = RegionLit(f"r{len(sigma)}")
    sequential = e
    for key, rep in sigma.items():
        sequential = subst_expr(sequential, {key: rep})
    assert subst_expr(e, sigma) == sequential
    assert free_names(sequential) == (terms - set(sigma), regions - set(sigma))
