"""The type-and-effect checker.

Checking threads an effect through every expression: the judgement takes an
input effect and yields the expression's type together with an output effect.
Function application is where capabilities move: the callee's instantiated
input effect is split out of the caller's, and the callee's output effect is
joined back (for spawns nothing returns and the transferred effect must be
hierarchy-complete, lock-safe and fully consumed by the new thread).

A spawn transfers exactly the callee's instantiated input effect (the
split passes that effect on whole), so the checker rewrites nothing: a
written `spawn[{...}]` annotation must equal it, and for an unannotated
spawn the interpreter moves the spawned function's own `effect_in`.

Definitions are non-recursive and may only reference earlier definitions;
loops are expressed with `while`, which requires its body to preserve the
effect exactly.

`/\\` and `newrgn` bind their region variable as written, with no renaming.
This is exact: the parser names each binder apart from those around it in
its definition, and a closure binds only closed values (by linking, the
definitions a body names; at run time, the values a step binds), each
typed on its own.  A closed term's judgement reads nothing from the
environment, so it never consults an outer binder of the same name, and a
`newrgn` inside it extends the value's own annotation.

A linked program and the terms of a run hold closures (`syntax.Closure`),
which the checker types as their read-back.  It meets only closed ones,
whose bindings bind all of the body's free names: a value, or a run-time
control or frame operand; the harness types a whole thread as its
read-back.  Run-time bindings are read in one place, `Checker.check_bound`:
it renames each bound literal back to its variable, types the body under
the static judgement with those variables in scope, and renames the result
forward.  A memo (the harness's) keys a subterm on its digest, what it
reads of the environment and `Effect.items()`, and interned region names
and capabilities make that key hash in C; `meta` says why an entry is
exact.  Effects and types are interned too, and a call's split and join, a
region application's instance and a type's free regions are computed once
per value (`per_value`).
"""

from __future__ import annotations

from typing import Callable, Optional

from . import effects as fx
from .parser import SourceProgram
from .syntax import (
    BOOL,
    BOTTOM,
    CLOSED,
    EMPTY_EFFECT,
    RUNTIME,
    INT,
    LEAVES,
    PRIM_BINARY,
    PRIM_UNARY,
    UNIT,
    App,
    Assign,
    Cap,
    Capability,
    Closure,
    Const,
    Deref,
    Effect,
    Env,
    Expr,
    FnType,
    HandleType,
    If,
    Lambda,
    Loc,
    LocVal,
    Location,
    NewRef,
    NewRgn,
    ParMode,
    Prim,
    Record,
    RefType,
    RegionApp,
    RegionLambda,
    RegionLit,
    RegionName,
    RegionPolyType,
    RegionVar,
    RgnVal,
    Seq,
    Type,
    UnitType,
    UnitVal,
    Var,
    While,
    close,
    expr_digest,
    free_names,
    free_regions,
    inner_regions,
    is_let,
    is_value,
    read_back,
    subst_regions,
)

#: Closed enumeration of diagnostic codes.
DIAG_CODES = frozenset({
    "TypeMismatch", "EffectMismatch", "UnboundVariable", "UnknownRegion",
    "RegionEscapes", "InaccessibleRegion", "NotLive", "CountUnderflow",
    "RegionNotLive", "InsufficientCapability", "PurityViolation",
    "ParentMismatch", "AbstractedParentDead", "DomainViolation",
    "ConsistencyViolation", "ImpureLockEscape", "HierarchyAbstractionInPar",
    "NonEmptyThreadOutput", "NonUnitThreadResult", "MalformedMain",
    "MalformedAnnotation", "SpawnAnnotationMismatch", "UnknownLocation",
    "NotAValue", "UnsupportedForm", "DefinitionCycle",
})


class Diagnostic(Record):
    def __init__(self, code: str, message: str, loc: Optional[Loc] = None,
                 effect: Optional[Effect] = None) -> None:
        assert code in DIAG_CODES, f"unknown diagnostic code {code}"
        self.__dict__.update(code=code, message=message, loc=loc, effect=effect)

    def render(self) -> str:
        where = f"{self.loc}: " if self.loc else ""
        eff = f"  [effect {self.effect.pretty()}]" if self.effect is not None else ""
        return f"{where}{self.code}: {self.message}{eff}"

    def to_json(self) -> dict:
        return {
            "code": self.code,
            "message": self.message,
            "loc": str(self.loc) if self.loc else None,
            "effect": self.effect.pretty() if self.effect is not None else None,
        }


class CheckFailure(Exception):
    def __init__(self, diagnostic: Diagnostic):
        super().__init__(diagnostic.render())
        self.diagnostic = diagnostic


class TypedProgram(Record, frozen=False):
    """A successfully checked program, with each definition's type, the
    effect after each of its source lines, and the earlier definitions each
    body names, as its check resolved them (`uses`)."""

    def __init__(self, program: SourceProgram, def_types: dict[str, Type],
                 effect_lines: dict[str, dict[int, Effect]],
                 uses: Optional[dict[str, list[str]]] = None) -> None:
        self.__dict__.update(program=program, def_types=def_types, effect_lines=effect_lines,
                             uses=uses)

    def linked_main(self) -> Expr:
        return link_bodies(self.program, self.uses)


class CheckResult(Record, frozen=False):
    def __init__(self, ok: bool, diagnostics: Optional[list[Diagnostic]] = None,
                 typed: Optional[TypedProgram] = None) -> None:
        self.__dict__.update(ok=ok, diagnostics=[] if diagnostics is None else diagnostics,
                             typed=typed)


def type_eq(a: Type, b: Type, lenient: bool = False) -> bool:
    """Structural type equality; alpha-equivalence for region polymorphism.

    In lenient mode effect comparisons ignore purity flags (used when
    re-typing run-time terms, where beta reduction has erased the call
    frames that restore purity).
    """
    # Interned: a type with no effect inside (a base type, unit or a
    # handle) equals only itself.
    if a is b:
        return True
    if isinstance(a, RefType) and isinstance(b, RefType):
        return a.region == b.region and type_eq(a.elem, b.elem, lenient)
    if isinstance(a, FnType) and isinstance(b, FnType):
        return (type_eq(a.param, b.param, lenient)
                and effect_eq(a.effect_in, b.effect_in, lenient)
                and effect_eq(a.effect_out, b.effect_out, lenient)
                and type_eq(a.result, b.result, lenient))
    if isinstance(a, RegionPolyType) and isinstance(b, RegionPolyType):
        if a.var == b.var:
            return type_eq(a.body, b.body, lenient)
        fresh = RegionVar(f"{a.var.name}%eq")
        return type_eq(subst_regions(a.body, {a.var: fresh}),
                       subst_regions(b.body, {b.var: fresh}), lenient)
    return False


def effect_eq(a: Effect, b: Effect, lenient: bool = False) -> bool:
    return a.same_counts(b) if lenient else a == b


class _Env(Record, frozen=False):
    """The typing environment: term variables' types and the region
    variables in scope."""

    def __init__(self, vars: dict[str, Type], region_vars: frozenset[RegionVar]) -> None:
        self.__dict__.update(vars=vars, region_vars=region_vars)

    def bind(self, name: str, t: Type) -> "_Env":
        table = dict(self.vars)
        table[name] = t
        return _Env(table, self.region_vars)

    def bind_region(self, r: RegionVar) -> "_Env":
        return _Env(self.vars, self.region_vars | {r})

    @staticmethod
    def order(e: Expr) -> tuple[tuple[str, ...], tuple[RegionVar, ...]]:
        """`e`'s free names, sorted, cached on `e`."""
        order = getattr(e, "_order", None)
        if order is None:
            terms, regions = free_names(e)
            order = (tuple(sorted(terms)), tuple(sorted(regions, key=str)))
            object.__setattr__(e, "_order", order)
        return order

    def key(self, e: Expr) -> tuple:
        """What `e`, an open term, reads of the environment: each free
        variable's type, and whether each free region variable is in scope,
        in a fixed order of their names."""
        terms, regions = self.order(e)
        return (tuple(map(self.vars.get, terms)),
                tuple(map(self.region_vars.__contains__, regions)))


_EMPTY_ENV = _Env({}, frozenset())


class Checker:
    """Expression-level checker over a fixed (regions, locations) context."""

    def __init__(self,
                 regions: frozenset[RegionLit] = frozenset(),
                 locations: Optional[dict[Location, Type]] = None,
                 lenient: bool = False,
                 record: Optional[Callable[[int, Effect], None]] = None,
                 memo: Optional[dict] = None,
                 uses: Optional[set[str]] = None):
        self.regions = regions
        self.locations = {} if locations is None else locations
        self.lenient = lenient
        self.record = record
        # Subterms that checked, by `_key`, the environments of run-time
        # bindings (`bound_env`) and bodies substituted (`_substituted`).  Owned
        # by the metatheory harness, whose module docstring says why an
        # entry stays valid.  A checker with a memo records no lines.
        self.memo = memo
        # The names that variables resolved to (`check_program`, for `link_bodies`).
        self.uses = uses

    # -- helpers ---------------------------------------------------------------

    def fail(self, code: str, message: str, loc: Optional[Loc],
             eff: Optional[Effect] = None) -> "CheckFailure":
        return CheckFailure(Diagnostic(code, message, loc, eff))

    def _note(self, e: Expr, eff: Effect) -> None:
        if self.record is not None and e.loc is not None:
            self.record(e.loc.line, eff)

    def _region_in_scope(self, r: RegionName, env: _Env) -> bool:
        if isinstance(r, RegionVar):
            return r in env.region_vars
        return r in self.regions

    def _validate_annotation(self, eff: Effect, env: _Env, loc: Optional[Loc]) -> None:
        reason = eff.well_formed()
        if reason is not None:
            raise self.fail("MalformedAnnotation", reason, loc, eff)
        for r, _, parent in eff.items():
            if not self._region_in_scope(r, env):
                raise self.fail("MalformedAnnotation",
                                f"region {r} in effect annotation is not in scope", loc, eff)
            if isinstance(parent, (RegionVar, RegionLit)) and not self._region_in_scope(parent, env):
                raise self.fail("MalformedAnnotation",
                                f"parent {parent} in effect annotation is not in scope", loc, eff)

    def _require_accessible(self, eff: Effect, r: RegionName, loc: Optional[Loc]) -> None:
        if not fx.is_accessible_static(eff, r):
            raise self.fail("InaccessibleRegion", f"region {r} is not accessible (no lock "
                            f"held on it or an ancestor)", loc, eff)

    # -- the judgement -----------------------------------------------------------

    def check(self, e: Expr, env: _Env, eff: Effect) -> tuple[Type, Effect]:
        # Output effects are well-formed by construction when `eff` is: the
        # effect constructors that can break the invariant check it.
        if self.memo is not None:
            return self._memo_check(e, env, eff)
        t, out = self._check(e, env, eff)
        # Sequencing plumbing spans lines and would overwrite the per-line
        # effects of the statements it contains; newrgn records its body's
        # entry effect instead (done in _check).
        if self.record is not None and not isinstance(e, (NewRgn, Seq)) and not is_let(e):
            self._note(e, out)
        return t, out

    def _memo_check(self, e: Expr, env: _Env, eff: Effect) -> tuple[Type, Effect]:
        """`check` through the memo (see `meta`)."""
        names = free_names(e)
        if names is RUNTIME or type(e) in LEAVES:
            # A term that holds a closure is typed as its parts, and a leaf
            # is cheaper to type than to look up.
            return self._check(e, env, eff)
        key, value = self._key(e, names, env, eff)
        memo = self.memo
        hit = memo.get(key)
        if hit is None:
            hit = self._check(e, env, eff)
            memo[key] = hit[0] if value else hit
        elif value:
            return hit, eff
        return hit

    @staticmethod
    def _key(e: Expr, names, env: _Env, eff: Effect) -> tuple[object, bool]:
        """The memo's key for typing `e` under `env` and `eff`, and whether
        `e` is a function value, whose type does not depend on `eff` and
        whose output effect is `eff` itself: its digest, what it reads of
        `env` unless it is closed, and the input effect's entries."""
        key = expr_digest(e) if names is CLOSED else (expr_digest(e), env.key(e))
        if isinstance(e, (Lambda, RegionLambda)):
            return key, True
        return (key, eff.items()), False

    def check_bound(self, body: Expr, bindings: Env, eff: Effect) -> tuple[Type, Effect]:
        """`check` of `body` under run-time `bindings`, which bind each of its
        free names: the one reading of run-time region bindings.

        The judgement treats a region variable in scope and a live region
        literal alike, so it commutes with a renaming of one into the other
        that is a bijection on the names it meets (equivariance).  So the
        bound literals are renamed back to their variables, in the input
        effect and in the bound values' types (`bound_env`), `body` is typed
        with the variables in scope, and the result is renamed forward: a
        body that a step has just entered is found as the typing around it
        stored it, while its binders were variables.  Where the renaming is
        not a bijection (aliased or unknown literals, a body that names a
        literal or rebinds a variable, an effect or a bound type that names
        a variable), `body` is typed with the literals substituted
        (`_substituted`).  A failure is not retried: the harness then types
        the read-back of the thread or stored value, which words the
        diagnostic."""
        if not bindings:
            return self.check(body, _EMPTY_ENV, eff)
        bound, renamed, back = self.bound_env(bindings)
        if back:
            scope = renamed.region_vars
            literal, binders = inner_regions(body)
            if not (literal or not scope.isdisjoint(binders)
                    or not scope.isdisjoint(free_regions(eff))):
                t, out = self.check(body, renamed, subst_regions(eff, back))
                return subst_regions(t, bindings.regions), subst_regions(out, bindings.regions)
        if bindings.regions:
            body = self._substituted(body, bindings.regions)
        return self.check(body, bound, eff)

    def bound_env(self, bindings: Env) -> tuple[_Env, Optional[_Env], Optional[dict]]:
        """Run-time `bindings` as typing environments: each bound value's
        type, and the same with each bound literal renamed back to its
        variable and each bound region variable in scope, with that renaming;
        None for both where there are no region bindings, or the renaming is
        not exact: aliased literals, one outside the regions, or a type that
        names a bound variable.  Kept in the memo per `Env`, which closures
        pushed from one closure share: a value's type does not change during
        a run."""
        key = ("env", id(bindings))
        hit = self.memo and self.memo.get(key)
        if hit:
            return hit[1]
        regions = bindings.regions
        types = {x: self.check(v, _EMPTY_ENV, EMPTY_EFFECT)[0]
                 for x, v in bindings.items() if type(x) is str}
        back = {lit: var for var, lit in regions.items()}
        renamed = None
        if back and len(back) == len(regions) and self.regions.issuperset(back) and all(
                regions.keys().isdisjoint(free_regions(t)) for t in types.values()):
            renamed = _Env({x: subst_regions(t, back) for x, t in types.items()},
                           frozenset(regions))
        found = (_Env(types, frozenset()), renamed, back if renamed else None)
        if self.memo is not None:
            self.memo[key] = (bindings, found)  # holds the bindings: no `id` is reused
        return found

    def _substituted(self, body: Expr, regions: dict) -> Expr:
        """`body` with the bound `regions` substituted, kept in the memo per
        body and bindings."""
        key = ("back", id(body), tuple(regions.items()))
        hit = self.memo and self.memo.get(key)
        if hit:
            return hit[1]
        term = self.read_back(close(body, Env(regions)))
        if self.memo is not None:
            self.memo[key] = (body, term)  # holds the body: no `id` is reused
        return term

    def read_back(self, term: Expr) -> Expr:
        """`read_back(term)`, or the failure, at `term`, of a substitution
        that it cannot make (aliased entries that do not merge)."""
        loc = (term.body if type(term) is Closure else term).loc
        try:
            return read_back(term)
        except fx.CapError as exc:
            raise self.fail(exc.code, exc.message, loc)
        except ValueError as exc:
            raise self.fail("MalformedAnnotation", str(exc), loc)

    def _check(self, e: Expr, env: _Env, eff: Effect) -> tuple[Type, Effect]:
        if isinstance(e, Var):
            t = env.vars.get(e.name)
            if t is None:
                raise self.fail("UnboundVariable", f"unbound variable {e.name!r}", e.loc, eff)
            if self.uses is not None:
                self.uses.add(e.name)
            return t, eff

        if isinstance(e, Const):
            if isinstance(e.value, UnitVal):
                return UNIT, eff
            if isinstance(e.value, bool):
                return BOOL, eff
            return INT, eff

        if isinstance(e, RgnVal):
            if e.region not in self.regions:
                raise self.fail("UnknownRegion", f"region {e.region} is not allocated", e.loc, eff)
            return HandleType(e.region), eff

        if isinstance(e, LocVal):
            t = self.locations.get(e.location)
            if t is None:
                raise self.fail("UnknownLocation",
                                f"location {e.location} is not allocated", e.loc, eff)
            return RefType(t, e.location.region), eff

        if isinstance(e, Lambda):
            if e.param_type is None:
                raise self.fail("UnsupportedForm",
                                "internal let binder outside application position", e.loc, eff)
            assert e.effect_in is not None and e.effect_out is not None
            self._validate_annotation(e.effect_in, env, e.loc)
            self._validate_annotation(e.effect_out, env, e.loc)
            body_env = env.bind(e.param, e.param_type)
            t_body, out = self.check(e.body, body_env, e.effect_in)
            if not effect_eq(out, e.effect_out, self.lenient):
                raise self.fail("EffectMismatch",
                                f"body produces effect {out.pretty()}, "
                                f"annotation says {e.effect_out.pretty()}", e.loc, out)
            return FnType(e.param_type, e.effect_in, e.effect_out, t_body), eff

        if isinstance(e, RegionLambda):
            if not is_value(e.body):
                raise self.fail("NotAValue",
                                "the body of a region abstraction must be a value", e.loc, eff)
            t_body, _ = self.check(e.body, env.bind_region(e.var), EMPTY_EFFECT)
            return RegionPolyType(e.var, t_body), eff

        if isinstance(e, App):
            return self._check_app(e, env, eff)

        if isinstance(e, RegionApp):
            t_fn, out = self.check(e.fn, env, eff)
            if not isinstance(t_fn, RegionPolyType):
                raise self.fail("TypeMismatch",
                                f"region application of non-polymorphic type {t_fn}", e.loc, out)
            if not self._region_in_scope(e.region, env):
                raise self.fail("UnknownRegion",
                                f"region {e.region} is not in scope", e.loc, out)
            try:
                return subst_regions(t_fn.body, {t_fn.var: e.region}), out
            except fx.CapError as exc:
                raise self.fail(exc.code, exc.message, e.loc, out)
            except ValueError as exc:
                raise self.fail("MalformedAnnotation", str(exc), e.loc, out)

        if isinstance(e, NewRef):
            t_init, out = self.check(e.init, env, eff)
            t_handle, out = self.check(e.handle, env, out)
            if not isinstance(t_handle, HandleType):
                raise self.fail("TypeMismatch",
                                f"`new .. at` needs a region handle, got {t_handle}", e.loc, out)
            if t_handle.region not in out:
                raise self.fail("NotLive",
                                f"region {t_handle.region} is not live", e.loc, out)
            return RefType(t_init, t_handle.region), out

        if isinstance(e, Deref):
            t_ref, out = self.check(e.ref, env, eff)
            if not isinstance(t_ref, RefType):
                raise self.fail("TypeMismatch", f"deref of non-reference {t_ref}", e.loc, out)
            self._require_accessible(out, t_ref.region, e.loc)
            return t_ref.elem, out

        if isinstance(e, Assign):
            t_ref, out = self.check(e.target, env, eff)
            if not isinstance(t_ref, RefType):
                raise self.fail("TypeMismatch", f"assignment to non-reference {t_ref}", e.loc, out)
            t_val, out = self.check(e.value, env, out)
            if not type_eq(t_val, t_ref.elem, self.lenient):
                raise self.fail("TypeMismatch",
                                f"cannot store {t_val} into a cell of {t_ref.elem}", e.loc, out)
            self._require_accessible(out, t_ref.region, e.loc)
            return UNIT, out

        if isinstance(e, NewRgn):
            t_handle, out = self.check(e.parent_handle, env, eff)
            if not isinstance(t_handle, HandleType):
                raise self.fail("TypeMismatch",
                                f"newrgn needs a parent region handle, got {t_handle}", e.loc, out)
            if t_handle.region not in out:
                raise self.fail("NotLive",
                                f"parent region {t_handle.region} is not live", e.loc, out)
            inner = out.with_entry(e.var, Capability(1, 1, pure=True), t_handle.region)
            if e.loc is not None and self.record is not None:
                self.record(e.loc.line, inner)
            body_env = env.bind(e.handle_name, HandleType(e.var)).bind_region(e.var)
            t_body, body_out = self.check(e.body, body_env, inner)
            escaped = free_regions(t_body) | free_regions(body_out)
            if e.var in escaped:
                raise self.fail("RegionEscapes",
                                f"region {e.var} escapes its scope (it must be freed or "
                                f"transferred before the end of the newrgn body)",
                                e.loc, body_out)
            return t_body, body_out

        if isinstance(e, Cap):
            t_handle, out = self.check(e.handle, env, eff)
            if not isinstance(t_handle, HandleType):
                raise self.fail("TypeMismatch",
                                f"capability operator needs a region handle, got {t_handle}",
                                e.loc, out)
            try:
                out2 = fx.apply_cap_op(out, t_handle.region, e.op)
            except fx.CapError as exc:
                code = "NotLive" if exc.code == "RegionNotLive" else exc.code
                raise self.fail(code, exc.message, e.loc, out)
            return UNIT, out2

        if isinstance(e, If):
            t_cond, out = self.check(e.cond, env, eff)
            if t_cond is not BOOL:
                raise self.fail("TypeMismatch", f"if condition has type {t_cond}", e.loc, out)
            t_then, out_then = self.check(e.then, env, out)
            t_else, out_else = self.check(e.orelse, env, out)
            if not type_eq(t_then, t_else, self.lenient):
                raise self.fail("TypeMismatch",
                                f"if branches disagree: {t_then} vs {t_else}", e.loc, out_then)
            if not effect_eq(out_then, out_else, self.lenient):
                raise self.fail("EffectMismatch",
                                f"if branches produce different effects: "
                                f"{out_then.pretty()} vs {out_else.pretty()}", e.loc, out_then)
            return t_then, out_then

        if isinstance(e, Seq):
            _, out = self.check(e.first, env, eff)
            return self.check(e.second, env, out)

        if isinstance(e, While):
            t_cond, out_cond = self.check(e.cond, env, eff)
            if t_cond is not BOOL:
                raise self.fail("TypeMismatch", f"while condition has type {t_cond}", e.loc, eff)
            if not effect_eq(out_cond, eff, self.lenient):
                raise self.fail("EffectMismatch",
                                f"while condition must preserve the effect; got "
                                f"{out_cond.pretty()} from {eff.pretty()}", e.loc, out_cond)
            _, out_body = self.check(e.body, env, eff)
            if not effect_eq(out_body, eff, self.lenient):
                raise self.fail("EffectMismatch",
                                f"while body must preserve the effect; got "
                                f"{out_body.pretty()} from {eff.pretty()}", e.loc, out_body)
            return UNIT, eff

        if isinstance(e, Prim):
            want, result = (PRIM_UNARY.get(e.op) or PRIM_BINARY[e.op])[:2]
            arg_types, out = [], eff
            for a in e.args:
                t, out = self.check(a, env, out)
                arg_types.append(t)
            if any(t is not want for t in arg_types):
                raise self.fail("TypeMismatch", f"{e.op} applied to "
                                f"{' and '.join(map(str, arg_types))}", e.loc, out)
            return result, out

        if type(e) is Closure:  # closed: its bindings bind its body's free names
            return self.check_bound(e.body, e.env, eff)

        raise self.fail("UnsupportedForm", f"cannot type {type(e).__name__}", e.loc, eff)

    def _check_app(self, e: App, env: _Env, eff: Effect) -> tuple[Type, Effect]:
        # `let x = e1 in e2` is a transparent binder, not a capability split.
        if is_let(e):
            t_arg, out = self.check(e.arg, env, eff)
            return self.check(e.fn.body, env.bind(e.fn.param, t_arg), out)

        t_fn, out = self.check(e.fn, env, eff)
        t_arg, out = self.check(e.arg, env, out)
        if not isinstance(t_fn, FnType):
            raise self.fail("TypeMismatch", f"application of non-function {t_fn}", e.loc, out)
        if not type_eq(t_arg, t_fn.param, self.lenient):
            raise self.fail("TypeMismatch",
                            f"argument type {t_arg} does not match parameter "
                            f"{t_fn.param}", e.loc, out)
        par = isinstance(e.mode, ParMode)
        try:
            need = fx.fragments(t_fn.effect_in) if self.lenient else t_fn.effect_in
            split = fx.effect_subtract(out, need)
            if par:
                if not self.lenient:
                    fx.check_par_constraints(split.passed, t_fn.effect_out, t_fn.result)
                joined = split.retained
            else:
                joined = fx.effect_join(out, split.retained, t_fn.effect_out,
                                        split.abstracted)
        except fx.CapError as exc:
            raise self.fail(exc.code, exc.message, e.loc, out)
        if par:
            declared = e.mode.transfer
            if declared is not None and not effect_eq(declared, split.passed, self.lenient):
                raise self.fail("SpawnAnnotationMismatch",
                                f"spawn annotation {declared.pretty()} does not match the "
                                f"inferred transfer {split.passed.pretty()}", e.loc, out)
            return UNIT, joined
        return t_fn.result, joined


def main_input_effect(var: RegionVar) -> Effect:
    return Effect.of((var, Capability(1, 0, pure=True), BOTTOM))


def check_program(program: SourceProgram) -> CheckResult:
    """Check every definition in order; definitions see earlier ones only."""
    diagnostics: list[Diagnostic] = []
    def_types: dict[str, Type] = {}
    effect_lines: dict[str, dict[int, Effect]] = {}
    uses: dict[str, list[str]] = {}

    failed: set[str] = set()
    for d in program.defs:
        if failed and free_names(d.body)[0] & failed:
            # The root cause is already reported; do not pile on.
            failed.add(d.name)
            continue
        lines: dict[int, Effect] = {}
        names: set[str] = set()
        checker = Checker(record=lambda line, eff: lines.__setitem__(line, eff), uses=names)
        env = _Env(dict(def_types), frozenset())
        try:
            t, _ = checker.check(d.body, env, EMPTY_EFFECT)
            if not is_value(d.body):
                raise checker.fail("NotAValue",
                                   f"definition {d.name!r} must be a function value",
                                   d.loc, None)
        except CheckFailure as exc:
            diagnostics.append(exc.diagnostic)
            failed.add(d.name)
            continue
        def_types[d.name] = t
        effect_lines[d.name] = lines
        uses[d.name] = sorted(names & def_types.keys())

    if "main" in def_types:
        bad = _validate_main(def_types["main"])
        if bad is not None:
            main_loc = program.get("main").loc
            diagnostics.append(Diagnostic("MalformedMain", bad, main_loc))

    if diagnostics:
        return CheckResult(False, diagnostics)
    typed = TypedProgram(program, def_types, effect_lines, uses)
    return CheckResult(True, [], typed)


def _validate_main(t: Type) -> Optional[str]:
    if not isinstance(t, RegionPolyType):
        return "main must be region-polymorphic over the heap region"
    body = t.body
    if not isinstance(body, FnType) or not isinstance(body.param, HandleType) \
            or body.param.region != t.var:
        return "main must take the heap region handle as its argument"
    expected_in = main_input_effect(t.var)
    if body.effect_in != expected_in:
        return (f"main's input effect must be {expected_in.pretty()}, "
                f"found {body.effect_in.pretty()}")
    if body.effect_out not in (expected_in, EMPTY_EFFECT):
        return (f"main's output effect must be {expected_in.pretty()} or {{}}, "
                f"found {body.effect_out.pretty()}")
    if not isinstance(body.result, UnitType):
        return f"main must return unit, found {body.result}"
    return None


def link_bodies(program: SourceProgram, uses: Optional[dict[str, list[str]]] = None) -> Expr:
    """`main` closed over the definitions it names, one closed expression.

    Each definition is closed over the earlier definitions its body names,
    and only those, so linking costs the names each body uses.  A closure
    digests and reads back as the term with those definitions substituted.
    The names are those the check resolved (`uses`, see `TypedProgram`), or,
    unchecked, the body's free names, which walk the body.  A local that
    shadows a definition adds the definition's name to `uses`: a binding
    the body never reads, which leaves its read-back as it is.  Later
    definitions may reference earlier ones; cycles are impossible by
    construction.  Raises CheckFailure on references to missing or
    not-yet-defined names.
    """
    linked: dict[str, Expr] = {}
    for d in program.defs:
        names = uses[d.name] if uses is not None else sorted(free_names(d.body)[0])
        for name in names:
            if name in linked:
                continue
            if any(other.name == name for other in program.defs):
                raise CheckFailure(Diagnostic(
                    "DefinitionCycle",
                    f"definition {d.name!r} references {name!r} before it is defined",
                    d.loc))
            raise CheckFailure(Diagnostic(
                "UnboundVariable",
                f"definition {d.name!r} references unknown name {name!r}", d.loc))
        env = Env({name: linked[name] for name in names})
        # Checked, the names are the ones `close` would walk the body to find.
        linked[d.name] = close(d.body, env) if uses is None else \
            Closure(d.body, env) if names else d.body
    return linked["main"]
