"""Core syntax: region names, capabilities, effects, types and expressions.

Everything here is an immutable value.  A *record* (`Record`) declares its
fields once, as the parameters of a hand-written `__init__` whose body is one
`self.__dict__.update(...)` call, so defining one generates and compiles no
code.  Records of one class are equal when their compared fields are, and
`hash(r)` is `hash(tuple(compared fields))`, so a closure, whose bindings
are a dict (`Env`), has none.  A term form neither compares
nor shows its source location, so a pretty-printed and re-parsed term
compares equal to the original.  Assigning or deleting a field raises
`FrozenInstanceError`, except on a record made with `frozen=False`, which is
unhashable.  A value cached on a node (a digest, free names, a step) is an
attribute outside the fields, set with `object.__setattr__`.  An *atom*
(`_Atom`: region names, capabilities, effects and types) is
hash-consed, so equality is identity (an effect's ignores entry order), and
region substitution, free regions and the capability algebra are cached per
atom.
"""

from __future__ import annotations

import operator
import weakref
from enum import Enum
from functools import partial
from hashlib import blake2b
from typing import AbstractSet, Callable, Iterable, Iterator, Optional, Union, get_args


# ---------------------------------------------------------------------------
# Records and atoms
# ---------------------------------------------------------------------------


class FrozenInstanceError(AttributeError):
    """An assignment to, or a deletion of, an attribute of an immutable value."""


class Record:
    """A value with named fields; see the module docstring.  `_fields` are
    the parameters of `__init__`, in order, and `_compared` are those that
    `==`, `hash` and `repr` read: all but the `_hidden` ones."""

    _fields: tuple[str, ...] = ()
    _compared: tuple[str, ...] = ()
    _hidden: tuple[str, ...] = ()

    def __init_subclass__(cls, frozen: bool = True) -> None:
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]
        cls._compared = tuple(name for name in cls._fields if name not in cls._hidden)
        # The compared fields as a tuple, fetched in C.
        get = operator.attrgetter(*cls._compared) if cls._compared else None
        cls._values = ((lambda self: ()) if get is None
                       else (lambda self: (get(self),)) if len(cls._compared) == 1
                       else (lambda self: get(self)))
        if not frozen:
            cls.__setattr__, cls.__delattr__ = object.__setattr__, object.__delattr__
            cls.__hash__ = None  # type: ignore[assignment]

    def __init__(self) -> None:
        pass

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._compared)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value=None) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def _forget(table: dict, key: tuple, ref: weakref.ref) -> None:
    if table.get(key) is ref:  # not yet replaced by a newer atom
        del table[key]


class _Atom:
    """An immutable, hash-consed value: building one with equal fields
    returns the same object, so `==` is identity and `hash` is
    `object.__hash__`, both in C (Filliatre & Conchon, "Type-safe modular
    hash-consing", 2006).  The table holds atoms weakly, so it never outgrows
    the atoms in use, and copies and unpickled atoms are the same object.
    An atom's operations are cached on it (`per_value`)."""

    __slots__ = ("__weakref__", "_memo")
    _table: dict

    def __init_subclass__(cls) -> None:
        cls._table = {}  # key -> weak reference to the atom

    def __new__(cls, *values):
        ref = cls._table.get(values)  # a hit in the fewest calls
        atom = None if ref is None else ref()
        if atom is None and len(values) != len(cls.__slots__):
            raise TypeError(f"{cls.__name__} takes {len(cls.__slots__)} fields")
        return atom if atom is not None else cls._intern(values, values)

    @classmethod
    def _intern(cls, key: tuple, values: tuple):
        """The atom of `cls` with `values` in its fields, found by `key`."""
        table = cls._table
        ref = table.get(key)
        atom = None if ref is None else ref()
        if atom is None:
            atom = object.__new__(cls)
            object.__setattr__(atom, "_memo", None)  # read often, by `per_value`
            for name, value in zip(cls.__slots__, values):
                object.__setattr__(atom, name, value)
            table[key] = weakref.ref(atom, partial(_forget, table, key))
        return atom

    __setattr__, __delattr__ = Record.__setattr__, Record.__delattr__

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({shown})"


def per_value(first: _Atom, body: Callable, key, *args):
    """`body(first, *args)`, computed once per `(body, key)` and kept on
    `first` while it lives.  `key` stands for `args`, an effect by its
    entries (`Effect.items()`), whose order `==` ignores.  An error is not
    kept, nor `first` on itself, and a result whose own table holds `first`
    (an inverse) is kept weakly, a dead one a miss: cycles that only the
    collector frees.  A table is dropped at 256 entries: a long-lived value
    (a program's own type) met by fresh operands stays bounded."""
    table = first._memo
    if table is None or len(table) >= 256:
        table = {}
        object.__setattr__(first, "_memo", table)
    hit = table.get((body, key))
    if hit is None and _WEAK in table:
        hit = table[_WEAK].get((body, key))
        hit = hit and hit()  # None once dead: a miss
    if hit is None:
        hit = body(first, *args)
        if hit is first:
            table[body, key] = _SAME
        elif isinstance(hit, _Atom) and any(kept is first for kept in (hit._memo or {}).values()):
            table.setdefault(_WEAK, {})[body, key] = weakref.ref(hit)
        else:
            table[body, key] = hit
    return first if hit is _SAME else hit


_SAME = object()

#: The key of a table's results kept weakly, a table of their own.
_WEAK = object()


# ---------------------------------------------------------------------------
# Source locations
# ---------------------------------------------------------------------------


class Loc(Record):
    def __init__(self, line: int, col: int) -> None:
        self.__dict__.update(line=line, col=col)

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


# ---------------------------------------------------------------------------
# Region names and parents
# ---------------------------------------------------------------------------


class RegionVar(_Atom):
    """Static region variable bound by a region lambda or `newrgn`."""

    __slots__ = ("name",)

    def __str__(self) -> str:
        return self.name


class RegionLit(_Atom):
    """Dynamic region literal; only the runtime mints these."""

    __slots__ = ("name",)

    def __str__(self) -> str:
        return "#" + self.name


RegionName = Union[RegionVar, RegionLit]

#: The distinguished literal for the global heap region.
HEAP = RegionLit("H")


class Root(Enum):
    """The parents that are not region names."""

    BOTTOM = "_"   # parent of the physical root region
    UNKNOWN = "?"  # abstracted parent: the region is treated as a logical root

    def __str__(self) -> str:
        return self.value

    __repr__ = __str__
    __hash__ = object.__hash__  # in C: every effect entry's parent is hashed


BOTTOM = Root.BOTTOM
UNKNOWN = Root.UNKNOWN

Parent = Union[RegionVar, RegionLit, Root]


# ---------------------------------------------------------------------------
# Capabilities and effects
# ---------------------------------------------------------------------------


class Capability(_Atom):
    """A (region count, lock count) pair with a purity flag.

    A pure capability is whole knowledge of a region's counts; an impure one
    is a fragment obtained by splitting.
    """

    __slots__ = ("rg", "lk", "pure")

    def __new__(cls, rg: int, lk: int, pure: bool = True) -> "Capability":
        if rg < 0 or lk < 0:
            raise ValueError(f"negative capability counts ({rg},{lk})")
        return super().__new__(cls, rg, lk, pure)

    def __str__(self) -> str:
        bar = "" if self.pure else "~"
        return f"{bar}({self.rg},{self.lk})"


class CapError(Exception):
    """A capability-algebra failure with a stable machine-readable code."""

    def __init__(self, code: str, message: str, region: RegionName | None = None):
        super().__init__(message)
        self.code = code
        self.message = message
        self.region = region


class Effect(_Atom):
    """Ordered map from region names to (capability, parent) entries.

    Well-formedness: domain entries have region count >= 1 and every parent
    that is a region name is itself in the domain (chains terminate at `_`
    or `?` roots).  Equality is domain-wise and order-insensitive.

    An effect is interned by its ordered entries, one tuple (`items`), on
    which the checker's memo keys; the well-formedness verdict is computed
    once.
    """

    __slots__ = ("_items", "_entries", "_why")

    def __new__(cls, entries: Iterable[tuple[RegionName, Capability, Parent]] = ()) -> "Effect":
        items = tuple(entries)
        ref = cls._table.get(items)
        eff = None if ref is None else ref()
        if eff is None:
            table = {r: (cap, parent) for r, cap, parent in items}
            if len(table) != len(items):
                names = [r for r, _, _ in items]
                raise ValueError(f"duplicate region {max(names, key=names.count)} in effect")
            eff = cls._intern(items, (items, table))
        return eff

    def __reduce__(self):
        return Effect, (self._items,)

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def of(*entries: tuple[RegionName, Capability, Parent]) -> "Effect":
        return Effect(entries)

    def with_entry(self, r: RegionName, cap: Capability, parent: Parent) -> "Effect":
        items = dict(self._entries)
        items[r] = (cap, parent)
        return Effect((k, c, p) for k, (c, p) in items.items())

    def without(self, *regions: RegionName) -> "Effect":
        gone = set(regions)
        return Effect((k, c, p) for k, (c, p) in self._entries.items() if k not in gone)

    # -- queries ---------------------------------------------------------------

    def __contains__(self, r: RegionName) -> bool:
        return r in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def is_empty(self) -> bool:
        return not self._entries

    def items(self) -> tuple[tuple[RegionName, Capability, Parent], ...]:
        return self._items

    def cap(self, r: RegionName) -> Capability:
        return self._entries[r][0]

    def parent(self, r: RegionName) -> Parent:
        return self._entries[r][1]

    def get(self, r: RegionName) -> Optional[tuple[Capability, Parent]]:
        return self._entries.get(r)

    def ancestors(self, r: RegionName) -> Iterator[RegionName]:
        """Walk parent links that stay inside the effect, nearest first."""
        seen = {r}
        cur = self._entries[r][1]
        while isinstance(cur, (RegionVar, RegionLit)) and cur in self._entries:
            if cur in seen:
                raise ValueError(f"parent cycle through {cur} in effect")
            seen.add(cur)
            yield cur
            cur = self._entries[cur][1]

    def descendants_of(self, r: RegionName) -> set[RegionName]:
        """Regions whose in-effect parent chain reaches `r` (excluding r)."""
        return {k for k in self._entries if k != r and r in self.ancestors(k)}

    def well_formed(self) -> Optional[str]:
        """Return a reason string if ill-formed, else None; found once."""
        if not hasattr(self, "_why"):
            object.__setattr__(self, "_why", self._ill_formed())
        return self._why

    def _ill_formed(self) -> Optional[str]:
        for r, (cap, parent) in self._entries.items():
            if cap.rg < 1:
                return f"region {r} has region count {cap.rg}"
            if isinstance(parent, (RegionVar, RegionLit)):
                if parent == r:
                    return f"region {r} is its own parent"
                if parent not in self._entries:
                    return f"parent {parent} of {r} is not in the effect"
        for r in self._entries:
            try:
                for _ in self.ancestors(r):
                    pass
            except ValueError as exc:
                return str(exc)
        return None

    # -- comparisons -----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Effect):
            return NotImplemented
        return self is other or self._entries == other._entries

    def __hash__(self) -> int:
        return hash(frozenset(self._items))

    def same_counts(self, other: "Effect") -> bool:
        """Equality that ignores purity flags (counts and parents only)."""
        if set(self._entries) != set(other._entries):
            return False
        for r, (cap, parent) in self._entries.items():
            ocap, oparent = other._entries[r]
            if (cap.rg, cap.lk) != (ocap.rg, ocap.lk) or parent != oparent:
                return False
        return True

    # -- display ---------------------------------------------------------------

    def pretty(self) -> str:
        return "{" + ", ".join(f"{r}^{cap}@{parent}"
                               for r, (cap, parent) in self._entries.items()) + "}"

    def margin(self) -> str:
        """The effect as per-line effect reporting prints it: entries
        parented at the physical root (the ambient heap capability) hidden,
        and counts without the impurity mark."""
        return "{" + ", ".join(f"{r}^({cap.rg},{cap.lk})@{parent}"
                               for r, (cap, parent) in self._entries.items()
                               if parent is not BOTTOM) + "}"

    def __str__(self) -> str:
        return self.pretty()

    def __repr__(self) -> str:
        return f"Effect{self.pretty()}"


EMPTY_EFFECT = Effect()


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


class BaseType(_Atom):
    __slots__ = ("name",)  # "int" or "bool"

    def __str__(self) -> str:
        return self.name


class UnitType(_Atom):
    __slots__ = ()

    def __str__(self) -> str:
        return "unit"


class FnType(_Atom):
    __slots__ = ("param", "effect_in", "effect_out", "result")

    def __new__(cls, param: Type, effect_in: Effect, effect_out: Effect, result: Type) -> "FnType":
        # Keyed by the effects' entries, whose order `==` ignores.
        return cls._intern((param, effect_in.items(), effect_out.items(), result),
                           (param, effect_in, effect_out, result))

    def __str__(self) -> str:
        return f"fn({self.param}) @ [{self.effect_in} -> {self.effect_out}] -> {self.result}"


class RegionPolyType(_Atom):
    __slots__ = ("var", "body")

    def __str__(self) -> str:
        return f"forall {self.var}. {self.body}"


class RefType(_Atom):
    __slots__ = ("elem", "region")

    def __str__(self) -> str:
        return f"ref({self.elem}, {self.region})"


class HandleType(_Atom):
    __slots__ = ("region",)

    def __str__(self) -> str:
        return f"rgn({self.region})"


Type = Union[BaseType, UnitType, FnType, RegionPolyType, RefType, HandleType]

INT = BaseType("int")
BOOL = BaseType("bool")
UNIT = UnitType()


# ---------------------------------------------------------------------------
# Calling modes and capability operators
# ---------------------------------------------------------------------------


class SeqMode(Enum):
    SEQ = "seq"

    def __repr__(self) -> str:
        return self.value


SEQ_MODE = SeqMode.SEQ


class ParMode(Record):
    """Thread-spawning application; transfer is None until inferred."""

    def __init__(self, transfer: Optional[Effect] = None) -> None:
        self.__dict__.update(transfer=transfer)

    def __repr__(self) -> str:
        return f"par[{self.transfer}]"


CallingMode = Union[SeqMode, ParMode]


class CapOp(Enum):
    RG_PLUS = "rg+"
    RG_MINUS = "rg-"
    LK_PLUS = "lk+"
    LK_MINUS = "lk-"

    __hash__ = object.__hash__


#: Surface keyword for each capability operator.
CAP_KEYWORD = {
    CapOp.RG_PLUS: "share",
    CapOp.RG_MINUS: "free",
    CapOp.LK_PLUS: "lock",
    CapOp.LK_MINUS: "unlock",
}


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class UnitVal(Enum):
    """The unit constant's payload (distinct from None/False/0)."""

    UNIT = "()"

    def __repr__(self) -> str:
        return self.value


UNIT_VALUE = UnitVal.UNIT


class Location(Record):
    """Runtime heap location, tagged with the region literal it lives in."""

    def __init__(self, idx: int, region: RegionLit) -> None:
        self.__dict__.update(idx=idx, region=region)

    def __str__(self) -> str:
        return f"loc{self.idx}@{self.region}"


class _Term(Record):
    """A term form.  Its last field, `loc`, is the source location, which
    `==`, `hash` and `repr` leave out."""

    _hidden = ("loc",)


class Var(_Term):
    def __init__(self, name: str, loc: Optional[Loc] = None) -> None:
        self.__dict__.update(name=name, loc=loc)


class Const(_Term):
    def __init__(self, value: Union[int, bool, UnitVal], loc: Optional[Loc] = None) -> None:
        self.__dict__.update(value=value, loc=loc)


class Lambda(_Term):
    """Term abstraction.  A parser-generated `let` binder carries no
    annotations (param_type/effects are None) and is applied transparently."""

    def __init__(self, param: str, param_type: Optional[Type], body: Expr,
                 effect_in: Optional[Effect], effect_out: Optional[Effect],
                 loc: Optional[Loc] = None) -> None:
        self.__dict__.update(param=param, param_type=param_type, body=body,
                             effect_in=effect_in, effect_out=effect_out, loc=loc)


class RegionLambda(_Term):
    def __init__(self, var: RegionVar, body: Expr, loc: Optional[Loc] = None) -> None:
        self.__dict__.update(var=var, body=body, loc=loc)


class App(_Term):
    def __init__(self, fn: Expr, arg: Expr, mode: CallingMode = SEQ_MODE,
                 loc: Optional[Loc] = None) -> None:
        self.__dict__.update(fn=fn, arg=arg, mode=mode, loc=loc)


class RegionApp(_Term):
    def __init__(self, fn: Expr, region: RegionName, loc: Optional[Loc] = None) -> None:
        self.__dict__.update(fn=fn, region=region, loc=loc)


class NewRef(_Term):
    def __init__(self, init: Expr, handle: Expr, loc: Optional[Loc] = None) -> None:
        self.__dict__.update(init=init, handle=handle, loc=loc)


class Deref(_Term):
    def __init__(self, ref: Expr, loc: Optional[Loc] = None) -> None:
        self.__dict__.update(ref=ref, loc=loc)


class Assign(_Term):
    def __init__(self, target: Expr, value: Expr, loc: Optional[Loc] = None) -> None:
        self.__dict__.update(target=target, value=value, loc=loc)


class NewRgn(_Term):
    def __init__(self, var: RegionVar, handle_name: str, parent_handle: Expr, body: Expr,
                 loc: Optional[Loc] = None) -> None:
        self.__dict__.update(var=var, handle_name=handle_name, parent_handle=parent_handle,
                             body=body, loc=loc)


class Cap(_Term):
    def __init__(self, op: CapOp, handle: Expr, loc: Optional[Loc] = None) -> None:
        self.__dict__.update(op=op, handle=handle, loc=loc)


class RgnVal(_Term):
    """Runtime-only region handle value; never produced by the parser."""

    def __init__(self, region: RegionLit, loc: Optional[Loc] = None) -> None:
        self.__dict__.update(region=region, loc=loc)


class LocVal(_Term):
    """Runtime-only location value; never produced by the parser."""

    def __init__(self, location: Location, loc: Optional[Loc] = None) -> None:
        self.__dict__.update(location=location, loc=loc)


class If(_Term):
    def __init__(self, cond: Expr, then: Expr, orelse: Expr, loc: Optional[Loc] = None) -> None:
        self.__dict__.update(cond=cond, then=then, orelse=orelse, loc=loc)


class Seq(_Term):
    def __init__(self, first: Expr, second: Expr, loc: Optional[Loc] = None) -> None:
        self.__dict__.update(first=first, second=second, loc=loc)


class While(_Term):
    def __init__(self, cond: Expr, body: Expr, loc: Optional[Loc] = None) -> None:
        self.__dict__.update(cond=cond, body=body, loc=loc)


class Prim(_Term):
    """Primitive operator over base-type values."""

    def __init__(self, op: str, args: tuple[Expr, ...], loc: Optional[Loc] = None) -> None:
        self.__dict__.update(op=op, args=args, loc=loc)


Expr = Union[Var, Const, Lambda, RegionLambda, App, RegionApp, NewRef, Deref,
             Assign, NewRgn, Cap, RgnVal, LocVal, If, Seq, While, Prim]

#: Binary primitives: op -> (operand base type, result type, binding
#: strength, meaning).  The parser and the printer read precedence here.
PRIM_BINARY = {
    "||": (BOOL, BOOL, 3, lambda a, b: a or b),
    "&&": (BOOL, BOOL, 4, lambda a, b: a and b),
    "<": (INT, BOOL, 5, operator.lt),
    "<=": (INT, BOOL, 5, operator.le),
    "==": (INT, BOOL, 5, operator.eq),
    "!=": (INT, BOOL, 5, operator.ne),
    "+": (INT, INT, 6, operator.add),
    "-": (INT, INT, 6, operator.sub),
    "*": (INT, INT, 7, operator.mul),
}
PRIM_UNARY = {"!": (BOOL, BOOL, operator.not_)}


def is_value(e: Expr) -> bool:
    return (isinstance(e, (Const, Lambda, RegionLambda, RgnVal, LocVal))
            or type(e) is Closure and isinstance(e.body, (Lambda, RegionLambda)))


def is_let(e: Expr) -> bool:
    """`let x = e1 in e2`: an unannotated binder lambda, or a closure of
    one, applied to e1."""
    if not isinstance(e, App) or e.mode is not SEQ_MODE:
        return False
    fn = e.fn.body if type(e.fn) is Closure else e.fn
    return isinstance(fn, Lambda) and fn.param_type is None


# ---------------------------------------------------------------------------
# The one traversal
# ---------------------------------------------------------------------------
# The generic walks over terms loop over `_FIELDS`: `children`, `push`
# (the one statement of substitution, see Closures below), the cached
# digests, free names and read-backs, and the interpreter's contexts.
# `BINDERS` is the only statement of which names a form binds, `_SUBTERMS`
# of which fields hold subterms, and `REGION_FIELDS` of where a term names
# regions outside its subterms.

#: Forms without subterms.
LEAVES = (Var, Const, RgnVal, LocVal)

#: The names each binding form binds in its `body`; a `newrgn`'s parent
#: handle is outside them.
BINDERS = {Lambda: ("param",), RegionLambda: ("var",), NewRgn: ("var", "handle_name")}

#: The fields, binders aside, in which a form names regions: each holds a
#: type, an effect, a region name or a calling mode (`subst_regions`).
REGION_FIELDS = {Lambda: ("param_type", "effect_in", "effect_out"), RegionApp: ("region",),
                 App: ("mode",)}

#: Each form's fields, the source location left out, in evaluation order.
_FIELDS = {form: form._compared for form in get_args(Expr)}

#: Each form's subterm fields, in evaluation order (a `Prim`'s operands are
#: one field, a tuple), and its other fields, which the digest encodes.  The
#: walks read these tables instead of testing the type of every field.
_SUBTERMS = {
    Var: (), Const: (), RgnVal: (), LocVal: (),
    Lambda: ("body",), RegionLambda: ("body",), App: ("fn", "arg"), RegionApp: ("fn",),
    NewRef: ("init", "handle"), Deref: ("ref",), Assign: ("target", "value"),
    NewRgn: ("parent_handle", "body"), Cap: ("handle",), If: ("cond", "then", "orelse"),
    Seq: ("first", "second"), While: ("cond", "body"), Prim: ("args",),
}
_ATTRS = {form: tuple(name for name in names if name not in _SUBTERMS[form])
          for form, names in _FIELDS.items()}


def children(e: Expr) -> list[Expr]:
    """The immediate subterms, in evaluation order."""
    form = type(e)
    if form is Prim:
        return list(e.args)
    if form is Closure:  # none of its own: digests and read-backs take its push (`_sub_nodes`)
        return []
    return [getattr(e, name) for name in _SUBTERMS[form]]


def _sub_nodes(e: Expr) -> list[Expr]:
    """The sub-nodes of a digest or a read-back: a closure's kept push
    (`pushed`), any other node's `children`."""
    return [pushed(e)] if type(e) is Closure else children(e)


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------

def fresh_region_var(base: RegionVar, avoid: AbstractSet[RegionName]) -> RegionVar:
    """The first of `base`, `base%1`, `base%2`, ... not in `avoid`.  '%' is
    not a lexable name character, so a renamed variable cannot collide with
    a source name, and the name depends on its arguments alone."""
    var, n = base, 0
    while var in avoid:
        n += 1
        var = RegionVar(f"{base.name}%{n}")
    return var


def subst_regions(x, rho: dict):
    """`x` (a type, an effect, a region name or a calling mode) with the
    region variables in `rho` replaced at once; `x` itself when none occurs.
    An effect's or a type's is computed once per `rho` (`per_value`).

    In an effect, both domain and parents are replaced, and aliased entries
    merge: the counts add up, and the merged capability is impure, since it
    stands for several separately usable fragments.  Parents that disagree
    cannot merge (ValueError).  A merge can tie a parent chain into a loop,
    so a merged result is checked for well-formedness (CapError `NotLive`).

    A `forall` binder that a replacement would capture is renamed: the
    checker instantiates one definition's type with a region bound by
    another (`g[b]` under `/\\b`).  Each body rebuilds its value from its
    substituted fields, which interning makes `x` itself if none changed."""
    kind = type(x)
    if kind is RegionVar:
        return rho.get(x, x)
    if kind in _SUBSTITUTED:
        return per_value(x, _SUBSTITUTED[kind], tuple(rho.items()), rho)
    if kind is ParMode:
        transfer = subst_regions(x.transfer, rho)
        return x if transfer is x.transfer else ParMode(transfer)
    return x  # base types, unit, region literals, the sequential mode, None


def _subst_fn(x: FnType, rho: dict) -> FnType:
    return FnType(*[subst_regions(part, rho)
                    for part in (x.param, x.effect_in, x.effect_out, x.result)])


def _subst_poly(x: RegionPolyType, rho: dict) -> RegionPolyType:
    inner = {var: rep for var, rep in rho.items() if var != x.var}
    var, body = x.var, x.body
    if var in inner.values() and not inner.keys().isdisjoint(free_regions(body)):
        var = fresh_region_var(var, free_regions(body) | inner.keys() | set(inner.values()))
        body = subst_regions(body, {x.var: var})
    body = subst_regions(body, inner) if inner else body
    return x if body is x.body else RegionPolyType(var, body)  # a renaming alone is undone


def _subst_effect(eff: Effect, rho: dict) -> Effect:
    table: dict[RegionName, tuple[Capability, Parent]] = {}
    merged: Optional[RegionName] = None
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


_SUBSTITUTED = {
    Effect: _subst_effect, FnType: _subst_fn, RegionPolyType: _subst_poly,
    RefType: lambda x, rho: RefType(subst_regions(x.elem, rho), rho.get(x.region, x.region)),
    HandleType: lambda x, rho: HandleType(rho.get(x.region, x.region)),
}


def free_regions(x) -> frozenset[RegionName]:
    """The free region names, literals included, of whatever `subst_regions`
    takes (effect parents included); an effect's or a type's is computed
    once per value (`per_value`)."""
    kind = type(x)
    if kind is RegionVar or kind is RegionLit:
        return frozenset((x,))
    if kind in _FREE_REGIONS:
        return per_value(x, _FREE_REGIONS[kind], None)
    if kind is ParMode:
        return free_regions(x.transfer)
    return frozenset()  # base types, unit, the sequential mode, None


_FREE_REGIONS = {
    Effect: lambda x: frozenset([name for r, _, parent in x.items() for name in (r, parent)
                                 if type(name) is not Root]),
    FnType: lambda x: frozenset().union(
        *map(free_regions, (x.param, x.effect_in, x.effect_out, x.result))),
    RegionPolyType: lambda x: free_regions(x.body) - {x.var},
    RefType: lambda x: free_regions(x.elem) | {x.region},
    HandleType: lambda x: frozenset((x.region,)),
}


# ---------------------------------------------------------------------------
# Values cached on nodes: Merkle digests and free names
# ---------------------------------------------------------------------------

# Attributes, not fields: eq, hash and repr ignore them, and a node with
# other fields is a new node, so a cached value never outlives the fields it
# was computed from.
_DIGEST = "_digest"
_FREE = "_free"


def cached_attr(root, attr: str, kids: Callable, compute: Callable[[object, list], object]):
    """`compute(node, kid_values)` for `root`, computed once per node and
    cached on it as `attr`.

    `kids(n)` lists a node's sub-nodes, and `kid_values` holds their cached
    values in that order.  Nodes without a value are computed bottom-up from
    an explicit stack, so depth costs no recursion.  When every sub-node
    has its value, the common case for a node rebuilt over cached ones,
    `root` is computed at once.
    """
    value = getattr(root, attr, None)
    if value is not None:
        return value
    values = [getattr(k, attr, None) for k in kids(root)]
    if None not in values:
        value = compute(root, values)
        object.__setattr__(root, attr, value)
        return value
    stack = [(root, None)]  # a node, and its sub-nodes once it has been met
    while stack:
        node, subs = stack.pop()
        if subs is not None:  # its sub-nodes are done
            object.__setattr__(node, attr, compute(node, [getattr(k, attr) for k in subs]))
        elif getattr(node, attr, None) is None:  # not done by another parent
            subs = kids(node)
            stack.append((node, subs))
            stack.extend([(k, None) for k in subs if getattr(k, attr, None) is None])
    return getattr(root, attr)


def _encode_expr(e: Expr, kid_digests: bytes) -> bytes:
    # Non-term fields are tagged with their type, so Const 1 and True differ.
    texts = [type(e).__name__]
    for name in _ATTRS[type(e)]:
        value = getattr(e, name)
        try:
            texts.append(f"{type(value).__name__}:{value}")
        except ValueError:  # an int past `sys.get_int_max_str_digits()`: in hex
            texts.append(f"int:{value:#x}")
    texts.append("")
    return "\0".join(texts).encode() + kid_digests


def _node_digest(e: Expr, kid_digests: list) -> bytes:
    if type(e) is Closure:  # its push's
        return kid_digests[0]
    return blake2b(_encode_expr(e, b"".join(kid_digests)), digest_size=16).digest()


def expr_digest(e: Expr) -> bytes:
    """16-byte Merkle digest of a term; source locations are ignored, and
    it is the same in every process.  A closure's is its push's, so its
    read-back's."""
    digest = getattr(e, _DIGEST, None)
    return digest if digest is not None else cached_attr(e, _DIGEST, _sub_nodes, _node_digest)


#: The free names of a term with none, shared by every such node.
CLOSED: tuple[frozenset[str], frozenset[RegionVar]] = (frozenset(), frozenset())

#: The free names of a closed closure and of a closed term that holds a
#: closure: none, like `CLOSED`, but a distinct object, so a run-time term
#: is told from a closed program term by identity.
RUNTIME: tuple[frozenset[str], frozenset[RegionVar]] = (frozenset(), frozenset())


def _free_of(e: Expr, kid_free: list) -> tuple[frozenset[str], frozenset[RegionVar]]:
    form = type(e)
    if form is Var:
        return frozenset({e.name}), frozenset()
    if form is Closure:  # the body's names that its bindings leave free
        terms, regions = free_names(e.body)
        terms = frozenset([x for x in terms if x not in e.env])
        regions = frozenset([r for r in regions if r not in e.env])
        return (terms, regions) if terms or regions else RUNTIME
    runtime = any(kid is RUNTIME for kid in kid_free)
    bound = BINDERS.get(form)
    if bound:  # the body is the last subterm, and the only one under the binders
        names = {getattr(e, name) for name in bound}
        body_terms, body_regions = kid_free[-1]
        kid_free = kid_free[:-1] + [(body_terms - names, body_regions - names)]
        runtime = runtime or type(e.body) is Closure  # an open closure (`push`)
    terms, regions = CLOSED
    for kid_terms, kid_regions in kid_free:
        if kid_terms:
            terms = terms | kid_terms if terms else kid_terms
        if kid_regions:
            regions = regions | kid_regions if regions else kid_regions
    for name in REGION_FIELDS.get(form, ()):
        named = {r for r in free_regions(getattr(e, name)) if type(r) is RegionVar}
        if named:
            regions = regions | named
    if terms or regions:
        return terms, regions
    return RUNTIME if runtime else CLOSED


def free_names(e: Expr) -> tuple[frozenset[str], frozenset[RegionVar]]:
    """The free term variables and free region variables of a term, cached
    on each node like its digest; `CLOSED` itself when there are none, and
    `RUNTIME` for a closed term that holds a closure.  Region literals are
    not variables and never count.  A closure's are its body's names that
    its bindings leave free: a binder's names, when `push` closes its body."""
    names = getattr(e, _FREE, None)
    return names if names is not None else cached_attr(e, _FREE, children, _free_of)


#: `inner_regions` of a term that names no literal and binds no region.
_PLAIN: tuple[bool, frozenset[RegionVar]] = (False, frozenset())


def _inner_of(e: Expr, kids: list) -> tuple[bool, frozenset[RegionVar]]:
    literal = type(e) in (RgnVal, LocVal) or any(
        type(r) is RegionLit for name in REGION_FIELDS.get(type(e), ())
        for r in free_regions(getattr(e, name)))
    literal = literal or any(kid_literal for kid_literal, _ in kids)
    binders = _PLAIN[1]
    if free_names(e) is not CLOSED:  # a closed term types alike in any context
        binders = frozenset({e.var}) if type(e) in (RegionLambda, NewRgn) else binders
        for _, kid_binders in kids:
            binders = binders | kid_binders if kid_binders else binders
    return (literal, binders) if literal or binders else _PLAIN


def inner_regions(e: Expr) -> tuple[bool, frozenset[RegionVar]]:
    """Whether a term names a region literal anywhere (a run-time value, an
    annotation or a region application), and the region variables bound by
    its binders outside its closed subterms; cached on each node like its
    digest."""
    found = getattr(e, "_inner", None)
    return found if found is not None else cached_attr(e, "_inner", children, _inner_of)


# ---------------------------------------------------------------------------
# Closures: bindings in place of substitution
# ---------------------------------------------------------------------------
# A closure is a program subterm under an environment, an explicit
# substitution (Abadi, Cardelli, Curien & Levy, JFP 1991).  It stands for
# its read-back, the body with the environment substituted, and `push`, its
# one-level propagation rule, is the one statement of that meaning: a
# closure is digested as its push (`pushed`, made once and kept on it) and
# read back as its push's read-back.  A body keeps its digest and free
# names, cached on its nodes, however often it is entered.


class Env(dict):
    """A closure's bindings: term names to closed values, region variables
    to region literals, the latter also as `regions`.  Closures pushed from
    one closure share its `Env`.  Never changed once made."""

    __slots__ = ("regions",)

    def __init__(self, bindings: dict = ()) -> None:
        super().__init__(bindings)
        self.regions = {var: lit for var, lit in self.items() if type(var) is RegionVar}

    def extend(self, bindings: dict) -> "Env":
        return Env({**self, **bindings})

    def without(self, names: AbstractSet) -> "Env":
        return Env({k: v for k, v in self.items() if k not in names})


EMPTY_ENV = Env()


class Closure(Record):
    """Run-time only: a program subterm `body` under `env` (see above)."""

    def __init__(self, body: Expr, env: Env) -> None:
        self.__dict__.update(body=body, env=env)


def close(e: Expr, env: Env) -> Expr:
    """`e` under `env`: a variable's value, `e` itself when `env` binds none
    of its free names, else a closure."""
    if type(e) is Var:
        return env.get(e.name, e)
    terms, regions = free_names(e)
    if env.keys().isdisjoint(terms) and env.keys().isdisjoint(regions):
        return e
    return Closure(e, env)


def _binder_env(e: Expr, env: Env) -> Env:
    """The bindings that reach the body of `e`, a binding form."""
    names = {getattr(e, name) for name in BINDERS[type(e)]}
    return env if env.keys().isdisjoint(names) else env.without(names)


def push(c: Closure) -> Expr:
    """One level of `c`'s read-back: a node of its body's form, the fields
    that name regions substituted, and each subterm closed over `c.env`.
    A binder's body is closed over the bindings it does not shadow, so its
    closure is open in the binder's names until the binder's own rule
    binds them (a `newrgn` whose parent handle is still to be evaluated)."""
    e, env = c.body, c.env
    form = type(e)
    values = []
    for name in _FIELDS[form]:
        old = getattr(e, name)
        kind = type(old)
        if kind in _FIELDS:
            new = close(old, _binder_env(e, env) if name == "body" and form in BINDERS
                        else env)
        elif kind is tuple:  # Prim's operands
            new = tuple([close(arg, env) for arg in old])
        elif name in REGION_FIELDS.get(form, ()):
            new = subst_regions(old, env.regions)
        else:
            new = old
        values.append(new)
    return form(*values, e.loc)


_PUSHED = "_pushed"


def pushed(c: Closure) -> Expr:
    """`push(c)`, made once and kept on `c`, like a digest."""
    node = getattr(c, _PUSHED, None)
    if node is None:
        node = push(c)
        object.__setattr__(c, _PUSHED, node)
    return node


def _read_node(e: Expr, _) -> Expr:
    if type(e) is Closure:
        return read_back(pushed(e))  # done first, as its one sub-node
    old = children(e)
    kids = [k._read if holds_closure(k) else k for k in old]
    if all(new is k for new, k in zip(kids, old)):
        return e
    if type(e) is Prim:
        return Prim(e.op, tuple(kids), e.loc)
    fields = dict(zip(_SUBTERMS[type(e)], kids))
    return type(e)(*[fields.get(name, getattr(e, name)) for name in _FIELDS[type(e)]], e.loc)


def read_back(e: Expr) -> Expr:
    """`e` with each closure replaced by what it stands for, cached on each
    node it rebuilds: a term with no closure, the same object each time."""
    if not holds_closure(e):
        return e
    return cached_attr(e, "_read", _runtime_children, _read_node)


def holds_closure(e: Expr) -> bool:
    """Whether `e` is a closure or holds one.  `free_names` marks a closed
    term that holds one (`RUNTIME`), but an open term has no such mark: an
    open term that holds one is the push of an open closure (a binder's
    body, `push`), whose closures are its children."""
    names = free_names(e)
    if names is RUNTIME or type(e) is Closure:
        return True
    return names is not CLOSED and any(
        free_names(k) is RUNTIME or type(k) is Closure for k in children(e))


def _runtime_children(e: Expr) -> list:
    return [k for k in _sub_nodes(e) if holds_closure(k)]
