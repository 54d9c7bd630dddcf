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
its definition, and at run time only closed values (definitions by linking,
arguments by E-A) are placed under a binder.  A closed term's judgement
reads nothing from the environment, so it never consults an outer binder of
the same name, and a `newrgn` inside it extends the value's own annotation.

A memo (the harness's) keys a subterm on its digest and `Effect.items()`,
and interned region names and capabilities make that key hash in C.  A
region application's instance is cached on its type, one per region.
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
    INT,
    PRIM_BINARY,
    PRIM_UNARY,
    UNIT,
    App,
    Assign,
    BaseType,
    Cap,
    Capability,
    Const,
    Deref,
    Effect,
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
    expr_digest,
    free_names,
    free_regions,
    is_let,
    is_value,
    subst_expr,
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
    if isinstance(a, BaseType) and isinstance(b, BaseType):
        return a.name == b.name
    if isinstance(a, UnitType) and isinstance(b, UnitType):
        return True
    if isinstance(a, HandleType) and isinstance(b, HandleType):
        return a.region == b.region
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
    def __init__(self, vars: dict[str, Type], region_vars: frozenset[RegionVar]) -> None:
        self.__dict__.update(vars=vars, region_vars=region_vars)

    def bind(self, name: str, t: Type) -> "_Env":
        table = dict(self.vars)
        table[name] = t
        return _Env(table, self.region_vars)

    def bind_region(self, r: RegionVar) -> "_Env":
        return _Env(self.vars, self.region_vars | {r})


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
        # Subterms that checked: (term digest, `Effect.items()` of the input
        # effect) -> (type, output effect), and a function value's digest ->
        # its type.  Owned by the metatheory harness, whose module docstring
        # says why an entry stays valid.
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
        key = None
        if self.memo is not None and (not env.vars and not env.region_vars
                                      or free_names(e) is CLOSED):
            # The environment is empty or the term never reads it.  A
            # function value's type does not depend on `eff`, and its output
            # effect is `eff` itself.
            key = expr_digest(e)
            if not isinstance(e, (Lambda, RegionLambda)):
                key = (key, eff.items())
            hit = self.memo.get(key)
            if hit is not None:
                return hit if type(key) is tuple else (hit, eff)
        t, out = self._check(e, env, eff)
        if key is not None:
            self.memo[key] = (t, out) if type(key) is tuple else t
        # Sequencing plumbing spans lines and would overwrite the per-line
        # effects of the statements it contains; newrgn records its body's
        # entry effect instead (done in _check).
        if self.record is not None and not isinstance(e, (NewRgn, Seq)) and not is_let(e):
            self._note(e, out)
        return t, out

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
            # Instances are cached on the type, one per region: exact, as
            # the substitution reads nothing but its arguments.
            instances = vars(t_fn).setdefault("_instances", {})
            inst = instances.get(e.region)
            if inst is None:
                try:
                    inst = instances[e.region] = subst_regions(t_fn.body, {t_fn.var: e.region})
                except fx.CapError as exc:
                    raise self.fail(exc.code, exc.message, e.loc, out)
                except ValueError as exc:
                    raise self.fail("MalformedAnnotation", str(exc), e.loc, out)
            return inst, out

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
            if not type_eq(t_cond, BOOL, self.lenient):
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
            if not type_eq(t_cond, BOOL, self.lenient):
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
            if not all(type_eq(t, want, self.lenient) for t in arg_types):
                raise self.fail("TypeMismatch", f"{e.op} applied to "
                                f"{' and '.join(map(str, arg_types))}", e.loc, out)
            return result, out

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
    """Substitute definitions into `main`, producing one closed expression.

    Later definitions may reference earlier ones; cycles are impossible by
    construction.  Raises CheckFailure on references to missing or
    not-yet-defined names.
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
        linked[d.name] = subst_expr(d.body, {name: linked[name] for name in names})
    return linked["main"]
