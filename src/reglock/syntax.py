"""Core syntax: region names, capabilities, effects, types and expressions.

Everything here is an immutable value.  Expressions carry an optional source
location that is ignored by structural equality, so a pretty-printed and
re-parsed term compares equal to the original.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from enum import Enum
from hashlib import blake2b
from typing import AbstractSet, Callable, Iterable, Iterator, Optional, Union, get_args


# ---------------------------------------------------------------------------
# Source locations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Loc:
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


# ---------------------------------------------------------------------------
# Region names and parents
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegionVar:
    """Static region variable bound by a region lambda or `newrgn`."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class RegionLit:
    """Dynamic region literal; only the runtime mints these."""

    name: str

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


BOTTOM = Root.BOTTOM
UNKNOWN = Root.UNKNOWN

Parent = Union[RegionVar, RegionLit, Root]


# ---------------------------------------------------------------------------
# Capabilities and effects
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Capability:
    """A (region count, lock count) pair with a purity flag.

    A pure capability is whole knowledge of a region's counts; an impure one
    is a fragment obtained by splitting.
    """

    rg: int
    lk: int
    pure: bool = True

    def __post_init__(self) -> None:
        if self.rg < 0 or self.lk < 0:
            raise ValueError(f"negative capability counts ({self.rg},{self.lk})")

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


class Effect:
    """Ordered map from region names to (capability, parent) entries.

    Well-formedness: domain entries have region count >= 1 and every parent
    that is a region name is itself in the domain (chains terminate at `_`
    or `?` roots).  Equality is domain-wise and order-insensitive.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Iterable[tuple[RegionName, Capability, Parent]] = ()):
        table: dict[RegionName, tuple[Capability, Parent]] = {}
        for r, cap, parent in entries:
            if r in table:
                raise ValueError(f"duplicate region {r} in effect")
            table[r] = (cap, parent)
        object.__setattr__(self, "_entries", table)

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

    def items(self) -> Iterator[tuple[RegionName, Capability, Parent]]:
        for r, (cap, parent) in self._entries.items():
            yield r, cap, parent

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
        """Return a reason string if ill-formed, else None."""
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
        return self._entries == other._entries

    def __hash__(self) -> int:
        return hash(frozenset((r, c, p) for r, (c, p) in self._entries.items()))

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

    def pretty(self, omit_bottom: bool = False, show_purity: bool = True) -> str:
        """Render the effect.

        With omit_bottom, entries parented at the physical root (the ambient
        heap capability) are hidden, and with show_purity=False counts print
        without the impurity mark: together these give the display format
        used for per-line effect reporting.
        """
        parts = []
        for r, (cap, parent) in self._entries.items():
            if omit_bottom and parent is BOTTOM:
                continue
            shown = str(cap) if show_purity else f"({cap.rg},{cap.lk})"
            parts.append(f"{r}^{shown}@{parent}")
        return "{" + ", ".join(parts) + "}"

    def __str__(self) -> str:
        return self.pretty()

    def __repr__(self) -> str:
        return f"Effect{self.pretty()}"


EMPTY_EFFECT = Effect()


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BaseType:
    name: str  # "int" or "bool"

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class UnitType:
    def __str__(self) -> str:
        return "unit"


@dataclass(frozen=True)
class FnType:
    param: "Type"
    effect_in: Effect
    effect_out: Effect
    result: "Type"

    def __str__(self) -> str:
        return f"fn({self.param}) @ [{self.effect_in} -> {self.effect_out}] -> {self.result}"


@dataclass(frozen=True)
class RegionPolyType:
    var: RegionVar
    body: "Type"

    def __str__(self) -> str:
        return f"forall {self.var}. {self.body}"


@dataclass(frozen=True)
class RefType:
    elem: "Type"
    region: RegionName

    def __str__(self) -> str:
        return f"ref({self.elem}, {self.region})"


@dataclass(frozen=True)
class HandleType:
    region: RegionName

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


@dataclass(frozen=True)
class ParMode:
    """Thread-spawning application; transfer is None until inferred."""

    transfer: Optional[Effect] = None

    def __repr__(self) -> str:
        return f"par[{self.transfer}]"


CallingMode = Union[SeqMode, ParMode]


class CapOp(Enum):
    RG_PLUS = "rg+"
    RG_MINUS = "rg-"
    LK_PLUS = "lk+"
    LK_MINUS = "lk-"


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


@dataclass(frozen=True)
class Location:
    """Runtime heap location, tagged with the region literal it lives in."""

    idx: int
    region: RegionLit

    def __str__(self) -> str:
        return f"loc{self.idx}@{self.region}"


def _loc_field():
    return field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Var:
    name: str
    loc: Optional[Loc] = _loc_field()


@dataclass(frozen=True)
class Const:
    value: Union[int, bool, UnitVal]
    loc: Optional[Loc] = _loc_field()


@dataclass(frozen=True)
class Lambda:
    """Term abstraction.  A parser-generated `let` binder carries no
    annotations (param_type/effects are None) and is applied transparently."""

    param: str
    param_type: Optional[Type]
    body: "Expr"
    effect_in: Optional[Effect]
    effect_out: Optional[Effect]
    loc: Optional[Loc] = _loc_field()


@dataclass(frozen=True)
class RegionLambda:
    var: RegionVar
    body: "Expr"
    loc: Optional[Loc] = _loc_field()


@dataclass(frozen=True)
class App:
    fn: "Expr"
    arg: "Expr"
    mode: CallingMode = SEQ_MODE
    loc: Optional[Loc] = _loc_field()


@dataclass(frozen=True)
class RegionApp:
    fn: "Expr"
    region: RegionName
    loc: Optional[Loc] = _loc_field()


@dataclass(frozen=True)
class NewRef:
    init: "Expr"
    handle: "Expr"
    loc: Optional[Loc] = _loc_field()


@dataclass(frozen=True)
class Deref:
    ref: "Expr"
    loc: Optional[Loc] = _loc_field()


@dataclass(frozen=True)
class Assign:
    target: "Expr"
    value: "Expr"
    loc: Optional[Loc] = _loc_field()


@dataclass(frozen=True)
class NewRgn:
    var: RegionVar
    handle_name: str
    parent_handle: "Expr"
    body: "Expr"
    loc: Optional[Loc] = _loc_field()


@dataclass(frozen=True)
class Cap:
    op: CapOp
    handle: "Expr"
    loc: Optional[Loc] = _loc_field()


@dataclass(frozen=True)
class RgnVal:
    """Runtime-only region handle value; never produced by the parser."""

    region: RegionLit
    loc: Optional[Loc] = _loc_field()


@dataclass(frozen=True)
class LocVal:
    """Runtime-only location value; never produced by the parser."""

    location: Location
    loc: Optional[Loc] = _loc_field()


@dataclass(frozen=True)
class If:
    cond: "Expr"
    then: "Expr"
    orelse: "Expr"
    loc: Optional[Loc] = _loc_field()


@dataclass(frozen=True)
class Seq:
    first: "Expr"
    second: "Expr"
    loc: Optional[Loc] = _loc_field()


@dataclass(frozen=True)
class While:
    cond: "Expr"
    body: "Expr"
    loc: Optional[Loc] = _loc_field()


@dataclass(frozen=True)
class Prim:
    """Primitive operator over base-type values."""

    op: str
    args: tuple["Expr", ...]
    loc: Optional[Loc] = _loc_field()


Expr = Union[Var, Const, Lambda, RegionLambda, App, RegionApp, NewRef, Deref,
             Assign, NewRgn, Cap, RgnVal, LocVal, If, Seq, While, Prim]

#: Binary primitive signatures: op -> (operand base type, result type).
PRIM_BINARY = {
    "+": (INT, INT),
    "-": (INT, INT),
    "*": (INT, INT),
    "<": (INT, BOOL),
    "<=": (INT, BOOL),
    "==": (INT, BOOL),
    "!=": (INT, BOOL),
    "&&": (BOOL, BOOL),
    "||": (BOOL, BOOL),
}
PRIM_UNARY = {"!": (BOOL, BOOL)}


def is_value(e: Expr) -> bool:
    return isinstance(e, (Const, Lambda, RegionLambda, RgnVal, LocVal))


def is_let(e: Expr) -> bool:
    """`let x = e1 in e2`: an unannotated binder lambda applied to e1."""
    return (isinstance(e, App) and isinstance(e.fn, Lambda)
            and e.fn.param_type is None and e.mode is SEQ_MODE)


# ---------------------------------------------------------------------------
# The one traversal
# ---------------------------------------------------------------------------
# The generic walks over terms loop over `_FIELDS`: `children`,
# `subst_expr`, the cached digests and free names, and the interpreter's
# contexts.  `BINDERS` is the only statement of which names a form binds.

#: Forms without subterms.
LEAVES = (Var, Const, RgnVal, LocVal)

#: The names each binding form binds in its `body`; a `newrgn`'s parent
#: handle is outside them.
BINDERS = {Lambda: ("param",), RegionLambda: ("var",), NewRgn: ("var", "handle_name")}

#: Each form's fields, the source location left out, in evaluation order.
_FIELDS = {form: tuple(f.name for f in fields(form) if f.name != "loc")
           for form in get_args(Expr)}


def children(e: Expr) -> list[Expr]:
    """The immediate subterms, in evaluation order."""
    kids: list[Expr] = []
    for name in _FIELDS[type(e)]:
        value = getattr(e, name)
        if type(value) in _FIELDS:
            kids.append(value)
        elif type(value) is tuple:  # Prim's operands
            kids.extend(value)
    return kids


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------

def fresh_region_var(base: RegionVar, avoid: AbstractSet[RegionName]) -> RegionVar:
    """The first `base%n` (n = 1, 2, ...) not in `avoid`.  '%' is not a
    lexable name character, so a renamed variable cannot collide with a
    source name, and the name depends on its arguments alone."""
    n = 1
    while RegionVar(f"{base.name}%{n}") in avoid:
        n += 1
    return RegionVar(f"{base.name}%{n}")


def subst_region_effect(eff: Effect, var: RegionVar, rep: RegionName) -> Effect:
    """Substitute in both domain and parents; aliased entries merge.

    Merging sums the counts and the merged capability is impure, since it
    stands for several separately usable fragments.  A merge can tie a
    parent chain into a loop, so a merged result is checked for
    well-formedness (CapError `NotLive`); `eff` itself is returned when it
    does not mention `var`.
    """
    if not any(r == var or parent == var for r, _, parent in eff.items()):
        return eff
    table: dict[RegionName, tuple[Capability, Parent]] = {}
    merged_any = False
    for r, cap, parent in eff.items():
        nr = rep if r == var else r
        nparent = rep if parent == var else parent
        if nr in table:
            ocap, oparent = table[nr]
            merged = Capability(ocap.rg + cap.rg, ocap.lk + cap.lk, pure=False)
            if oparent is UNKNOWN:
                keep = nparent
            elif nparent is UNKNOWN or nparent == oparent:
                keep = oparent
            else:
                raise ValueError(
                    f"cannot merge effect entries for {nr} with parents "
                    f"{oparent} and {nparent}")
            table[nr] = (merged, keep)
            merged_any = True
        else:
            table[nr] = (cap, nparent)
    result = Effect((r, c, p) for r, (c, p) in table.items())
    reason = result.well_formed() if merged_any else None
    if reason is not None:
        raise CapError("NotLive", f"substituting {rep} for {var} merges {eff} "
                       f"into an ill-formed effect: {reason}", rep)
    return result


def subst_region_type(t: Type, var: RegionVar, rep: RegionName) -> Type:
    if isinstance(t, (BaseType, UnitType)):
        return t
    if isinstance(t, FnType):
        return FnType(subst_region_type(t.param, var, rep),
                      subst_region_effect(t.effect_in, var, rep),
                      subst_region_effect(t.effect_out, var, rep),
                      subst_region_type(t.result, var, rep))
    if isinstance(t, RegionPolyType):
        if t.var == var:
            return t  # shadowed
        if t.var == rep:
            fresh = fresh_region_var(t.var, free_regions(t.body) | {var, rep})
            body = subst_region_type(t.body, t.var, fresh)
            return RegionPolyType(fresh, subst_region_type(body, var, rep))
        return RegionPolyType(t.var, subst_region_type(t.body, var, rep))
    if isinstance(t, RefType):
        return RefType(subst_region_type(t.elem, var, rep),
                       rep if t.region == var else t.region)
    if isinstance(t, HandleType):
        return HandleType(rep if t.region == var else t.region)
    raise TypeError(f"unknown type {t!r}")


_TYPES = get_args(Type)


def _subst_regions(note, sigma: dict):
    """A region-naming field (a type, an effect, a region name or a calling
    mode) with the region entries of `sigma` substituted; `note` itself
    when none occurs in it."""
    for var, rep in sigma.items():
        if type(var) is not RegionVar:
            continue
        kind = type(note)
        if kind is RegionVar:
            note = rep if note == var else note
        elif kind is Effect:
            note = subst_region_effect(note, var, rep)
        elif kind is ParMode and note.transfer is not None:
            transfer = subst_region_effect(note.transfer, var, rep)
            note = note if transfer is note.transfer else ParMode(transfer)
        elif kind in _TYPES and var in free_regions(note):
            note = subst_region_type(note, var, rep)
    return note


def subst_expr(e: Expr, sigma: dict) -> Expr:
    """Simultaneous substitution: `sigma` maps term names (`str`) to values
    and region variables to region names.  Binders shadow (`BINDERS`), and
    a node in which nothing is replaced is returned itself, so only the
    paths to the occurrences are rebuilt (and re-hashed).

    No binder is renamed: every caller keeps the variable convention, so no
    replacement names a binder it passes under.  A value substituted by
    E-A or by linking is closed; E-RP and E-NG substitute region literals,
    and the checker's `_unshadow` a `%` name, which no term binds."""
    form = type(e)
    if form is Var:
        return sigma.get(e.name, e)
    if not sigma or form in LEAVES:
        return e
    bound = BINDERS.get(form, ())
    inner = sigma
    for name in bound:
        binder = getattr(e, name)
        if binder in inner:
            inner = {k: v for k, v in inner.items() if k != binder}
    values, same = [], True
    for name in _FIELDS[form]:
        old = getattr(e, name)
        kind = type(old)
        if kind in _FIELDS:  # a loop, not a comprehension: one frame per level
            new = subst_expr(old, inner if name == "body" else sigma)
        elif kind is tuple:  # Prim's operands
            new = old
            for i, arg in enumerate(old):
                sub = subst_expr(arg, sigma)
                if sub is not arg:
                    new = new[:i] + (sub,) + new[i + 1:]
        elif name in bound:
            new = old
        else:
            new = _subst_regions(old, sigma)
        values.append(new)
        same = same and new is old
    return e if same else form(*values, e.loc)


def free_regions(obj) -> set[RegionName]:
    """Free region names of a type or effect (effect parents included)."""
    out: set[RegionName] = set()
    if isinstance(obj, Effect):
        _free_regions_effect(obj, frozenset(), out)
    else:
        _free_regions_type(obj, frozenset(), out)
    return out


def _free_regions_effect(eff: Effect, bound: frozenset[RegionName],
                         out: set[RegionName]) -> None:
    for r, _, parent in eff.items():
        if r not in bound:
            out.add(r)
        if isinstance(parent, (RegionVar, RegionLit)) and parent not in bound:
            out.add(parent)


def _free_regions_type(t: Type, bound: frozenset[RegionName], out: set[RegionName]) -> None:
    if isinstance(t, (BaseType, UnitType)):
        return
    if isinstance(t, FnType):
        _free_regions_type(t.param, bound, out)
        _free_regions_effect(t.effect_in, bound, out)
        _free_regions_effect(t.effect_out, bound, out)
        _free_regions_type(t.result, bound, out)
        return
    if isinstance(t, RegionPolyType):
        _free_regions_type(t.body, bound | {t.var}, out)
        return
    if isinstance(t, RefType):
        if t.region not in bound:
            out.add(t.region)
        _free_regions_type(t.elem, bound, out)
        return
    if isinstance(t, HandleType):
        if t.region not in bound:
            out.add(t.region)
        return
    raise TypeError(f"unknown type {t!r}")


# ---------------------------------------------------------------------------
# Values cached on nodes: Merkle digests and free names
# ---------------------------------------------------------------------------

# Attributes, not fields: eq, repr and replace ignore them, and
# `dataclasses.replace` makes a new node, so a cached value never outlives
# the fields it was computed from.
_DIGEST = "_digest"
_FREE = "_free"


def cached_attr(root, attr: str, kids: Callable, compute: Callable[[object, list], object]):
    """`compute(node, kid_values)` for `root`, computed once per node and
    cached on it as `attr`.

    `kids(n)` lists a node's sub-nodes, and `kid_values` holds their cached
    values in that order.  Nodes without a value are computed bottom-up from
    an explicit stack, so depth costs no recursion.
    """
    stack = [root]
    while stack:
        node = stack[-1]
        if getattr(node, attr, None) is not None:  # done, or shared and done
            stack.pop()
            continue
        subs = kids(node)
        todo = [k for k in subs if getattr(k, attr, None) is None]
        if todo:
            stack.extend(todo)
            continue
        stack.pop()
        object.__setattr__(node, attr, compute(node, [getattr(k, attr) for k in subs]))
    return getattr(root, attr)


def cached_digest(root, kids: Callable, encode: Callable[[object, bytes], bytes]) -> bytes:
    """The Merkle digest of `root`: `encode(n, kid_digests)` gives the bytes
    hashed for a node."""
    digest = getattr(root, _DIGEST, None)
    if digest is not None:  # already cached: the common case
        return digest
    return cached_attr(root, _DIGEST, kids, lambda n, digests: blake2b(
        encode(n, b"".join(digests)), digest_size=16).digest())


def _encode_expr(e: Expr, kid_digests: bytes) -> bytes:
    # Non-term fields are tagged with their type, so Const 1 and True differ.
    texts = [type(e).__name__]
    for name in _FIELDS[type(e)]:
        value = getattr(e, name)
        if type(value) not in _FIELDS and type(value) is not tuple:
            texts.append(f"{type(value).__name__}:{value}")
    texts.append("")
    return "\0".join(texts).encode() + kid_digests


def expr_digest(e: Expr) -> bytes:
    """16-byte Merkle digest of a term; source locations are ignored, and
    it is the same in every process."""
    return cached_digest(e, children, _encode_expr)


#: The free names of a term with none, shared by every such node.
CLOSED: tuple[frozenset[str], frozenset[RegionVar]] = (frozenset(), frozenset())


def _region_vars(obj) -> frozenset[RegionVar]:
    return frozenset(r for r in free_regions(obj) if isinstance(r, RegionVar))


def _free_of(e: Expr, kid_free: list) -> tuple[frozenset[str], frozenset[RegionVar]]:
    form = type(e)
    if form is Var:
        return frozenset({e.name}), frozenset()
    bound = BINDERS.get(form)
    if bound:  # the body is the last subterm, and the only one under the binders
        names = {getattr(e, name) for name in bound}
        body_terms, body_regions = kid_free[-1]
        kid_free = kid_free[:-1] + [(body_terms - names, body_regions - names)]
    terms, regions = CLOSED
    for kid_terms, kid_regions in kid_free:
        if kid_terms:
            terms = terms | kid_terms if terms else kid_terms
        if kid_regions:
            regions = regions | kid_regions if regions else kid_regions
    if form is Lambda:
        for note in (e.param_type, e.effect_in, e.effect_out):
            if note is not None:
                regions = regions | _region_vars(note)
    elif form is RegionApp and isinstance(e.region, RegionVar):
        regions = regions | {e.region}
    elif form is App and isinstance(e.mode, ParMode) and e.mode.transfer is not None:
        regions = regions | _region_vars(e.mode.transfer)
    return (terms, regions) if terms or regions else CLOSED


def free_names(e: Expr) -> tuple[frozenset[str], frozenset[RegionVar]]:
    """The free term variables and free region variables of a term, cached
    on each node like its digest; `CLOSED` itself when there are none.
    Region literals are not variables and never count."""
    names = getattr(e, _FREE, None)
    return names if names is not None else cached_attr(e, _FREE, children, _free_of)
