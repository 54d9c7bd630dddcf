"""A reference parser and printer, for the differential test of
`parser.parse_program` and `parser.pretty_program` (`tests/test_parser.py`).

It is the recursive descent that the parser's precedence loop replaced:
`expr`, `stmt`, `assign`, `binary`, `unary`, `postfix` and `atom` call one
another, one Python frame per level, and every token goes through `peek`,
`next`, `accept` or `eat`.  A region binder takes the first `rho%n` not in
scope by trying each in turn.  The printer recurses once per term level.
Both share `parser.lex` and the forms of `reglock.syntax`; recursion is fine
on test-sized inputs.
"""

from __future__ import annotations

from typing import Optional

from reglock.parser import (
    _BASE_TYPES,
    _CAP_OP,
    KEYWORDS,
    Definition,
    ParseError,
    SourceProgram,
    _line_starts,
    _locate,
    _Token,
    lex,
)
from reglock.syntax import (
    BOTTOM,
    CAP_KEYWORD,
    EMPTY_EFFECT,
    PRIM_BINARY,
    SEQ_MODE,
    UNIT_VALUE,
    UNKNOWN,
    App,
    Assign,
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
    NewRef,
    NewRgn,
    Parent,
    ParMode,
    Prim,
    RefType,
    RegionApp,
    RegionLambda,
    RegionVar,
    RgnVal,
    Seq,
    Type,
    UnitVal,
    Var,
    While,
    fresh_region_var,
    is_let,
)


class _Parser:
    def __init__(self, tokens: list[_Token], source: str):
        self.tokens = tokens
        self.pos = 0
        self.line_starts = _line_starts(source)
        # The region binders in scope, innermost last: (source name, name).
        self.regions: list[tuple[str, RegionVar]] = []

    # -- token plumbing --------------------------------------------------------

    def loc(self, tok: _Token) -> Loc:
        return _locate(self.line_starts, tok[2])

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok[0] != "eof":
            self.pos += 1
        return tok

    def accept(self, text: str) -> Optional[_Token]:
        """The next token, consumed, if it reads `text`."""
        return self.next() if self.tokens[self.pos][1] == text else None

    def eat(self, text: str) -> _Token:
        tok = self.peek()
        if tok[1] != text:
            raise ParseError("SyntaxError", f"expected {text!r}, found {tok[1]!r}", self.loc(tok))
        return self.next()

    def eat_name(self, what: str = "identifier") -> _Token:
        tok = self.peek()
        if tok[0] != "name" or tok[1] in KEYWORDS:
            raise ParseError("SyntaxError", f"expected {what}, found {tok[1]!r}", self.loc(tok))
        return self.next()

    def region_binder(self, source: str, sep: str) -> tuple[RegionVar, Expr]:
        """The name of a region binder written `source`, and its body after
        `sep`, where a reference to `source` reads that name."""
        var = fresh_region_var(RegionVar(source), {var for _, var in self.regions})
        self.regions.append((source, var))
        self.eat(sep)
        body = self.stmt()
        self.regions.pop()
        return var, body

    def region(self, what: str) -> RegionVar:
        """A region reference: the name of the innermost binder it names."""
        source = self.eat_name(what)[1]
        return next((var for name, var in reversed(self.regions) if name == source),
                    RegionVar(source))

    # -- program ----------------------------------------------------------------

    def program(self) -> SourceProgram:
        defs: list[Definition] = []
        names: set[str] = set()
        while self.peek()[0] != "eof":
            loc = self.loc(self.eat("def"))
            name = self.eat_name("definition name")[1]
            if name in names:
                raise ParseError("DuplicateDefinition", f"definition {name!r} repeated", loc)
            names.add(name)
            self.eat("=")
            body = self.expr()
            defs.append(Definition(name, body, loc))
        if "main" not in names:
            raise ParseError("MissingMain", "program has no `main` definition")
        return SourceProgram(tuple(defs))

    # -- expressions ------------------------------------------------------------

    def expr(self) -> Expr:
        """`s1; …; sn`, nested to the right; each `Seq` is at its `;`."""
        heads: list[tuple[Expr, Loc]] = []
        e = self.stmt()
        while semi := self.accept(";"):
            heads.append((e, self.loc(semi)))
            e = self.stmt()
        for first, loc in reversed(heads):
            e = Seq(first, e, loc)
        return e

    def stmt(self) -> Expr:
        text = self.peek()[1]
        if text == "let":
            return self.let_expr()
        if text == "if":
            loc = self.loc(self.next())
            cond = self.assign()
            self.eat("then")
            then = self.stmt()
            self.eat("else")
            orelse = self.stmt()
            return If(cond, then, orelse, loc)
        if text == "while":
            loc = self.loc(self.next())
            self.eat("(")
            cond = self.expr()
            self.eat(")")
            self.eat("do")
            body = self.stmt()
            return While(cond, body, loc)
        if text == "newrgn":
            loc = self.loc(self.next())
            source = self.eat_name("region variable")[1]
            self.eat(",")
            handle = self.eat_name("handle name")[1]
            self.eat("at")
            parent = self.postfix()  # outside the binder's scope
            rvar, body = self.region_binder(source, "in")
            return NewRgn(rvar, handle, parent, body, loc)
        if text == "/\\":
            loc = self.loc(self.next())
            rvar, body = self.region_binder(self.eat_name("region variable")[1], ".")
            return RegionLambda(rvar, body, loc)
        if text == "\\":
            return self.lambda_expr()
        if text == "spawn":
            return self.spawn_expr()
        return self.assign()

    def let_expr(self) -> Expr:
        """`let x1 = e1 in … let xn = en in e`, nested to the right."""
        binders: list[tuple[str, Expr, Loc]] = []
        while tok := self.accept("let"):
            name = self.eat_name("binder name")[1]
            self.eat("=")
            bound = self.stmt()
            self.eat("in")
            binders.append((name, bound, self.loc(tok)))
        e = self.stmt()
        for name, bound, loc in reversed(binders):
            e = App(Lambda(name, None, e, None, None, loc), bound, SEQ_MODE, loc)
        return e

    def lambda_expr(self) -> Expr:
        loc = self.loc(self.eat("\\"))
        params: list[tuple[str, Type]] = []
        parens = self.accept("(")
        while True:
            pname = self.eat_name("parameter name")[1]
            self.eat(":")
            params.append((pname, self.type_expr()))
            if not (parens and self.accept(",")):
                break
        if parens:
            self.eat(")")
        eff_in, eff_out = self.annotation()
        self.eat(".")
        body = self.stmt()
        # Outer binders of a multi-parameter lambda are effect-neutral; the
        # declared effect belongs to the innermost one.
        name, ptype = params[-1]
        out = Lambda(name, ptype, body, eff_in, eff_out, loc)
        for name, ptype in reversed(params[:-1]):
            out = Lambda(name, ptype, out, EMPTY_EFFECT, EMPTY_EFFECT, loc)
        return out

    def spawn_expr(self) -> Expr:
        loc = self.loc(self.eat("spawn"))
        transfer: Optional[Effect] = None
        if self.accept("["):
            transfer = self.effect()
            self.eat("]")
        call = self.postfix()
        if not isinstance(call, App):
            raise ParseError("SyntaxError", "spawn must be followed by an application", loc)
        return App(call.fn, call.arg, ParMode(transfer), call.loc or loc)

    def assign(self) -> Expr:
        lhs = self.binary()
        tok = self.accept(":=")
        return Assign(lhs, self.assign(), self.loc(tok)) if tok else lhs

    def binary(self, floor: int = 0) -> Expr:
        """A chain of binary operators that bind at least as strongly as
        `floor`, by precedence climbing (`PRIM_BINARY`), each to the left."""
        e = self.unary()
        while True:
            tok = self.peek()
            op = PRIM_BINARY.get(tok[1])
            if op is None or op[2] < floor:
                return e
            self.next()
            e = Prim(tok[1], (e, self.binary(op[2] + 1)), self.loc(tok))

    def unary(self) -> Expr:
        tok = self.peek()
        if tok[1] == "!":
            loc = self.loc(self.next())
            return Prim("!", (self.unary(),), loc)
        if tok[1] == "deref":
            loc = self.loc(self.next())
            return Deref(self.unary(), loc)
        if tok[1] in _CAP_OP:
            self.next()
            return Cap(_CAP_OP[tok[1]], self.unary(), self.loc(tok))
        if tok[1] == "new":
            loc = self.loc(self.next())
            init = self.binary(PRIM_BINARY["+"][2])
            self.eat("at")
            handle = self.unary()
            return NewRef(init, handle, loc)
        return self.postfix()

    def postfix(self) -> Expr:
        e = self.atom()
        while True:
            if tok := self.accept("["):
                e = RegionApp(e, self.region("region name"), self.loc(tok))
                self.eat("]")
            elif tok := self.accept("("):
                # Application; `()` directly after an expression is a
                # unit-argument call.
                loc = self.loc(tok)
                if self.accept(")"):
                    e = App(e, Const(UNIT_VALUE, loc), SEQ_MODE, loc)
                    continue
                args = [self.stmt()]
                while self.accept(","):
                    args.append(self.stmt())
                self.eat(")")
                for a in args:
                    e = App(e, a, SEQ_MODE, loc)
            else:
                return e

    def atom(self) -> Expr:
        tok = self.peek()
        if tok[0] == "int":
            self.next()
            return Const(int(tok[1]), self.loc(tok))
        if tok[1] in ("true", "false"):
            self.next()
            return Const(tok[1] == "true", self.loc(tok))
        if self.accept("("):
            if self.accept(")"):
                return Const(UNIT_VALUE, self.loc(tok))
            inner = self.expr()
            self.eat(")")
            return inner
        if tok[0] == "name" and tok[1] not in KEYWORDS:
            self.next()
            return Var(tok[1], self.loc(tok))
        raise ParseError("SyntaxError", f"unexpected token {tok[1]!r}", self.loc(tok))

    # -- types and effects --------------------------------------------------------

    def type_expr(self) -> Type:
        tok = self.peek()
        if tok[1] in _BASE_TYPES:
            self.next()
            return _BASE_TYPES[tok[1]]
        if self.accept("rgn"):
            self.eat("(")
            r = self.region("region name")
            self.eat(")")
            return HandleType(r)
        if self.accept("ref"):
            self.eat("(")
            elem = self.type_expr()
            self.eat(",")
            r = self.region("region name")
            self.eat(")")
            return RefType(elem, r)
        if self.accept("fn"):
            self.eat("(")
            param = self.type_expr()
            self.eat(")")
            eff_in, eff_out = self.annotation()
            self.eat("->")
            result = self.type_expr()
            return FnType(param, eff_in, eff_out, result)
        raise ParseError("SyntaxError", f"expected a type, found {tok[1]!r}", self.loc(tok))

    def annotation(self) -> tuple[Effect, Effect]:
        """`@ [e1 -> e2]`: a function's input and output effects."""
        self.eat("@")
        self.eat("[")
        eff_in = self.effect()
        self.eat("->")
        eff_out = self.effect()
        self.eat("]")
        return eff_in, eff_out

    def effect(self) -> Effect:
        self.eat("{")
        entries: list[tuple[RegionVar, Capability, Parent]] = []
        if self.peek()[1] != "}":
            while True:
                r = self.region("region name")
                self.eat("^")
                pure = not self.accept("~")
                self.eat("(")
                rg = int(self.eat_int()[1])
                self.eat(",")
                lk = int(self.eat_int()[1])
                self.eat(")")
                self.eat("@")
                entries.append((r, Capability(rg, lk, pure), self.parent()))
                if not self.accept(","):
                    break
        self.eat("}")
        try:
            return Effect(entries)
        except ValueError as exc:
            raise ParseError("SyntaxError", str(exc), self.loc(self.peek()))

    def eat_int(self) -> _Token:
        tok = self.peek()
        if tok[0] != "int":
            raise ParseError("SyntaxError", f"expected a number, found {tok[1]!r}", self.loc(tok))
        return self.next()

    def parent(self) -> Parent:
        if self.accept("?"):
            return UNKNOWN
        if self.accept("_"):
            return BOTTOM
        return self.region("parent region")


def parse_program(text: str) -> SourceProgram:
    parser = _Parser(lex(text), text)
    return parser.program()


def parse_expr(text: str) -> Expr:
    parser = _Parser(lex(text), text)
    e = parser.expr()
    tok = parser.peek()
    if tok[0] != "eof":
        raise ParseError("SyntaxError", f"trailing input {tok[1]!r}", parser.loc(tok))
    return e


def _app_spine(e: Expr) -> tuple[Expr, list[Expr]]:
    args: list[Expr] = []
    while isinstance(e, App) and e.mode is SEQ_MODE and not is_let(e):
        args.append(e.arg)
        e = e.fn
    return e, list(reversed(args))


# precedence levels: 0 seq, 1 stmt-forms, 2 assign, then the binary
# operators' strengths from `PRIM_BINARY` (3 to 7), 8 unary, 9 postfix/atom


def _pp(e: Expr, level: int) -> str:
    def wrap(text: str, mine: int) -> str:
        return f"({text})" if mine < level else text

    if isinstance(e, Var):
        return e.name
    if isinstance(e, Const):
        if isinstance(e.value, UnitVal):
            return "()"
        if isinstance(e.value, bool):
            return "true" if e.value else "false"
        return str(e.value)
    if isinstance(e, RgnVal):
        return f"rgn<{e.region}>"
    if isinstance(e, LocVal):
        return f"loc<{e.location.idx}@{e.location.region}>"
    if isinstance(e, Seq):
        heads = []
        while isinstance(e, Seq):
            heads.append(f"{_pp(e.first, 1)}; ")
            e = e.second
        return wrap("".join(heads) + _pp(e, 0), 0)
    if is_let(e):
        heads = []
        while is_let(e):
            heads.append(f"let {e.fn.param} = {_pp(e.arg, 1)} in ")
            e = e.fn.body
        return wrap("".join(heads) + _pp(e, 1), 1)
    if isinstance(e, If):
        return wrap(f"if {_pp(e.cond, 2)} then {_pp(e.then, 1)} else {_pp(e.orelse, 1)}", 1)
    if isinstance(e, While):
        return wrap(f"while ({_pp(e.cond, 0)}) do {_pp(e.body, 1)}", 1)
    if isinstance(e, NewRgn):
        return wrap(f"newrgn {e.var}, {e.handle_name} at {_pp(e.parent_handle, 9)} "
                    f"in {_pp(e.body, 1)}", 1)
    if isinstance(e, RegionLambda):
        return wrap(f"/\\{e.var}. {_pp(e.body, 1)}", 1)
    if isinstance(e, Lambda):
        if e.param_type is None:
            # Internal let binder escaping into value position: print as a
            # degenerate let to stay readable; cannot be re-parsed standalone.
            return wrap(f"\\{e.param}. {_pp(e.body, 1)}", 1)
        ann = ""
        if e.effect_in is not None and e.effect_out is not None:
            ann = f" @ [{e.effect_in.pretty()} -> {e.effect_out.pretty()}]"
        return wrap(f"\\{e.param}: {e.param_type}{ann}. {_pp(e.body, 1)}", 1)
    if isinstance(e, Assign):
        return wrap(f"{_pp(e.target, 3)} := {_pp(e.value, 2)}", 2)
    if isinstance(e, Prim):
        if e.op == "!":
            return wrap(f"!{_pp(e.args[0], 8)}", 8)
        mine = PRIM_BINARY[e.op][2]
        left = _pp(e.args[0], mine)
        right = _pp(e.args[1], mine + 1)
        return wrap(f"{left} {e.op} {right}", mine)
    if isinstance(e, Deref):
        return wrap(f"deref {_pp(e.ref, 8)}", 8)
    if isinstance(e, Cap):
        return wrap(f"{CAP_KEYWORD[e.op]} {_pp(e.handle, 8)}", 8)
    if isinstance(e, NewRef):
        return wrap(f"new {_pp(e.init, PRIM_BINARY['+'][2])} at {_pp(e.handle, 8)}", 8)
    if isinstance(e, App):
        if isinstance(e.mode, ParMode):
            head, args = _app_spine(e.fn)
            args = args + [e.arg]
            ann = f"[{e.mode.transfer.pretty()}]" if e.mode.transfer is not None else ""
            arglist = ", ".join(_pp(a, 1) for a in args)
            return wrap(f"spawn{ann} {_pp(head, 9)}({arglist})", 1)
        head, args = _app_spine(e)
        arglist = ", ".join(_pp(a, 1) for a in args)
        return wrap(f"{_pp(head, 9)}({arglist})", 9)
    if isinstance(e, RegionApp):
        return wrap(f"{_pp(e.fn, 9)}[{e.region}]", 9)
    raise TypeError(f"unknown expression {e!r}")


def pretty_program(p: SourceProgram) -> str:
    chunks = [f"def {d.name} =\n  {_pp(d.body, 1)}" for d in p.defs]
    return "\n\n".join(chunks) + "\n"
