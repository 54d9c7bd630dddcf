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
which the checker types as their read-back: the body with each bound
variable at its value's type and each bound region variable read as its
literal (`_Env.rho`).  A memo (the harness's) keys a subterm on its
digest, what it reads of the environment and `Effect.items()`, and interned
region names and capabilities make that key hash in C; `meta` says why an
entry is exact.  Effects and types are interned too, and a call's split and
join, a region application's instance and a type's free regions are
computed once per value (`per_value`).
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
    """A successfully checked program, with each definition's type and the
    effect after each of its source lines."""

    def __init__(self, program: SourceProgram, def_types: dict[str, Type],
                 effect_lines: dict[str, dict[int, Effect]]) -> None:
        self.__dict__.update(program=program, def_types=def_types, effect_lines=effect_lines)

    def linked_main(self) -> Expr:
        return link_bodies(self.program)


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


_NO_RHO: dict = {}


class _Env(Record, frozen=False):
    """The typing environment: term variables' types, the region variables
    in scope, and `rho`, the region variables that read as literals (a
    closure's, see `Checker.check`)."""

    def __init__(self, vars: dict[str, Type], region_vars: frozenset[RegionVar],
                 rho: Optional[dict[RegionVar, RegionLit]] = None) -> None:
        self.__dict__.update(vars=vars, region_vars=region_vars, rho=rho or _NO_RHO)

    def bind(self, name: str, t: Type) -> "_Env":
        table = dict(self.vars)
        table[name] = t
        return _Env(table, self.region_vars, self.rho)

    def bind_region(self, r: RegionVar) -> "_Env":
        rho = self.rho if r not in self.rho else {k: v for k, v in self.rho.items() if k != r}
        return _Env(self.vars, self.region_vars | {r}, rho)

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
        variable's type, and each free region variable's literal or whether
        it is in scope, in a fixed order of their names."""
        order = self.order(e)
        reads = self.__dict__.get("_reads")
        if reads is None:
            reads = dict.fromkeys(self.region_vars, True)
            reads.update(self.rho)
            self._reads = reads
        return tuple(map(self.vars.get, order[0])), tuple(map(reads.get, order[1]))


_EMPTY_ENV = _Env({}, frozenset())


class Checker:
    """Expression-level checker over a fixed (regions, locations) context."""

    def __init__(self,
                 regions: frozenset[RegionLit] = frozenset(),
                 locations: Optional[dict[Location, Type]] = None,
                 lenient: bool = False,
                 record: Optional[Callable[[int, Effect], None]] = None,
                 memo: Optional[dict] = None):
        self.regions = regions
        self.locations = locations or {}
        self.lenient = lenient
        self.record = record
        # Subterms that checked, by `_key`, and closures by identity.  Owned
        # by the metatheory harness, whose module docstring says why an
        # entry stays valid.  A checker with a memo records no lines.
        self.memo = memo

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
        memo = self.memo
        if type(e) is Closure:
            # A continuation is re-typed at each step under the same effect
            # (preservation).  The entry holds the closure: no `id` is reused.
            # An open closure reads its free names from `env`.
            key = (id(e), eff.items())
            if free_names(e) is not RUNTIME:
                key = (*key, env.key(e))
            hit = memo.get(key)
            if hit is None:
                hit = memo[key] = (e, *self._check_bound(e.body, self._closure_env(e, env),
                                                         eff))
            return hit[1:]
        names = free_names(e)
        if names is RUNTIME or type(e) in LEAVES:
            # A term that holds a closure is new at each step, and a leaf is
            # cheaper to type than to look up.
            return self._check(e, env, eff)
        key, value = self._key(e, names, env, eff)
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

    def _check_bound(self, body: Expr, env: _Env, eff: Effect) -> tuple[Type, Effect]:
        """`check` of a body that a closure or a let binds, which may be
        found renamed (`_renamed`) when the memo lacks it."""
        memo = self.memo
        if memo is None or not env.rho:
            return self.check(body, env, eff)
        key, value = self._key(body, free_names(body), env, eff)
        hit = memo.get(key)
        if hit is None:
            hit = self._renamed(body, env, eff)
            if hit is None:
                return self.check(body, env, eff)
            memo[key] = hit
        return (hit, eff) if value else hit

    def _renamed(self, body: Expr, env: _Env, eff: Effect):
        """The memo's entry for `body` with some of its bound region
        variables in scope instead of read as literals, renamed back to the
        literals; None when there is none, or when renaming is not exact.

        The judgement treats a region variable in scope and a live region
        literal alike, so it commutes with a renaming of one into the other
        that is a bijection on the names it meets: the literals are distinct
        and live, the body names no literal and does not rebind the
        variables, and the input effect and the bound variables' types name
        none of the variables.  The renamings tried put the innermost
        bindings back in scope, all of them first: a body after E-RP or E-NG
        is found as the typing of an enclosing term stored it, while the
        binders just applied were still variables.  With all of them, that
        is the program's own typing of a definition."""
        rho = env.rho
        if not rho or len(set(rho.values())) < len(rho) or not self.regions.issuperset(
                rho.values()):
            return None
        literal, binders = inner_regions(body)
        if literal or not binders.isdisjoint(rho) or any(
                r in rho or p in rho for r, _, p in eff.items()):
            return None
        bound = list(rho.items())
        terms, regions = env.order(body)
        types = tuple(map(env.vars.get, terms))
        named = [free_regions(t) for t in types]  # a definition's type names none
        value = isinstance(body, (Lambda, RegionLambda))
        for i in range(len(bound)):
            back = dict(bound[i:])
            renamed = {lit: var for var, lit in bound[i:]}
            # No bound variable's type may name a renamed variable.
            if any(not back.keys().isdisjoint(names) for names in named):
                continue
            key = (expr_digest(body), (tuple([subst_regions(t, renamed) if names else t
                                              for t, names in zip(types, named)]), tuple(
                [True if r in back or r in env.region_vars else rho.get(r)
                 for r in regions])))
            if not value:
                key = (key, subst_regions(eff, renamed).items())
            hit = self.memo.get(key)
            if hit is not None:
                return subst_regions(hit, back) if value else (
                    subst_regions(hit[0], back), subst_regions(hit[1], back))
        return None

    def _closure_env(self, c: Closure, env: _Env) -> _Env:
        """The environment that types `c.body` as its read-back: each bound
        variable at its value's type, each bound region variable read as its
        literal, and each name that `c` leaves free (a binder's, see
        `syntax.push`) as `env`, the environment around `c`, has it.  The
        bindings' part is memoised per set of bindings, which closures
        pushed from one closure share: a value's type does not change during
        a run."""
        bindings = c.env
        key = ("env", id(bindings))
        hit = self.memo and self.memo.get(key)
        if hit:
            bound = hit[1]
        else:
            bound = _Env({x: self.check(v, _EMPTY_ENV, EMPTY_EFFECT)[0]
                          for x, v in bindings.items() if type(x) is str},
                         frozenset(), bindings.regions)
            if self.memo is not None:
                self.memo[key] = (bindings, bound)  # holds the bindings: no `id` is reused
        names = free_names(c)
        if names is RUNTIME:
            return bound
        terms, regions = names
        types = {**bound.vars, **{x: env.vars[x] for x in terms if x in env.vars}}
        rho = {**bound.rho, **{r: env.rho[r] for r in regions if r in env.rho}}
        return _Env(types, regions & env.region_vars, rho)

    def _resolve(self, x, env: _Env, loc: Optional[Loc]):
        """A type, effect or calling mode as written, read under `env.rho`."""
        if not env.rho or x is None:
            return x
        try:
            return subst_regions(x, env.rho)
        except fx.CapError as exc:
            raise self.fail(exc.code, exc.message, loc)
        except ValueError as exc:
            raise self.fail("MalformedAnnotation", str(exc), loc)

    def _check(self, e: Expr, env: _Env, eff: Effect) -> tuple[Type, Effect]:
        if isinstance(e, Var):
            t = env.vars.get(e.name)
            if t is None:
                raise self.fail("UnboundVariable", f"unbound variable {e.name!r}", e.loc, eff)
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
            if env.rho:  # the annotations as read under a closure's bindings
                e = Lambda(e.param, self._resolve(e.param_type, env, e.loc), e.body,
                           self._resolve(e.effect_in, env, e.loc),
                           self._resolve(e.effect_out, env, e.loc), e.loc)
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
            region = env.rho.get(e.region, e.region) if env.rho else e.region
            if not self._region_in_scope(region, env):
                raise self.fail("UnknownRegion",
                                f"region {region} is not in scope", e.loc, out)
            try:
                return subst_regions(t_fn.body, {t_fn.var: region}), out
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

        if type(e) is Closure:
            return self.check(e.body, self._closure_env(e, env), eff)

        raise self.fail("UnsupportedForm", f"cannot type {type(e).__name__}", e.loc, eff)

    def _check_app(self, e: App, env: _Env, eff: Effect) -> tuple[Type, Effect]:
        # `let x = e1 in e2` is a transparent binder, not a capability split.
        # At run time its binder may be closed over the let's environment.
        if is_let(e):
            t_arg, out = self.check(e.arg, env, eff)
            if type(e.fn) is not Closure:
                return self.check(e.fn.body, env.bind(e.fn.param, t_arg), out)
            fn, fn_env = e.fn.body, self._closure_env(e.fn, env)
            return self._check_bound(fn.body, fn_env.bind(fn.param, t_arg), out)

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
            declared = self._resolve(e.mode.transfer, env, e.loc)
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

    failed: set[str] = set()
    for d in program.defs:
        if failed and free_names(d.body)[0] & failed:
            # The root cause is already reported; do not pile on.
            failed.add(d.name)
            continue
        lines: dict[int, Effect] = {}
        checker = Checker(record=lambda line, eff: lines.__setitem__(line, eff))
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

    if "main" in def_types:
        bad = _validate_main(def_types["main"])
        if bad is not None:
            main_loc = program.get("main").loc
            diagnostics.append(Diagnostic("MalformedMain", bad, main_loc))

    if diagnostics:
        return CheckResult(False, diagnostics)
    typed = TypedProgram(program, def_types, effect_lines)
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


def link_bodies(program: SourceProgram) -> Expr:
    """`main` closed over the definitions it names, one closed expression.

    Each definition is closed (`syntax.close`) over the earlier definitions
    its body names, and only those, so linking costs the names each body
    uses.  A closure digests and reads back as the term with those
    definitions substituted.  Later definitions may reference earlier ones;
    cycles are impossible by construction.  Raises CheckFailure on
    references to missing or not-yet-defined names.
    """
    linked: dict[str, Expr] = {}
    for d in program.defs:
        names = sorted(free_names(d.body)[0])
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
        linked[d.name] = close(d.body, Env({name: linked[name] for name in names}))
    return linked["main"]
