"""Surface syntax for the region/lock language.

Programs are lists of `def name = expr` bindings, one of which must be
`main`.  The concrete syntax mirrors the construct keywords used throughout
the worked examples (`newrgn .. at .. in`, `new .. at ..`, `deref`, `:=`,
`share`/`lock`/`unlock`/`free`, `spawn`), so example programs read almost
verbatim.  Sugar handled here:

  let x = e1 in e2        an unannotated binder lambda applied to e1
  e1 ; e2                 sequencing
  while (e) do e          a core loop form
  share/lock/unlock/free  capability operators
  spawn f[r](a, b)        application in parallel calling mode
  \\(a: t, b: t) @ ...     curried lambdas; the effect annotation sits on the
                          innermost one, outer binders are effect-neutral
  f(a, b)                 curried application

The parser can never produce runtime-only forms (region or location values).

Expressions are parsed by one loop over the token list, by operator
precedence on an explicit stack (Pratt, POPL 1973; Dijkstra's shunting
yard), so nesting costs no recursion.  A prefix form (`(`, `let`, `newrgn`,
`if`, `while`, `\\`, `/\\`, `spawn`, `!`, `deref`, a capability operator,
`new .. at`) pushes a frame that says what to build once each operand it
waits for is done.  A frame sets its operand's floor, the loosest form it
may be: 0 `s1; …; sn`, 1 a statement form, 2 `:=`, 3 to 7 the binary
operators at least that strong (`PRIM_BINARY`), 8 a prefix operator, 9 an
atom with its postfix `[r]` and `(args)`: an `if` condition is at 2, a
`newrgn` parent and a `spawn` call at 9, `new`'s initialiser at the
strength of `+`.  `;` and `:=` nest to the right, a binary operator takes
its right operand one floor up, so nests to the left, and only `;` may
follow a statement form.  Types and effects are parsed by recursion.

Region binders (`/\\rho` and `newrgn rho`) follow the variable convention:
a binder that shadows one in scope is named by the first `rho%n` (n = 1,
2, ...) not in scope, and every reference reads its binder's name.  No
binder of a definition then shadows another, so no later pass renames one.
A renamed binder prints as `rho%n`, which the lexer rejects, like `rgn<..>`.
A name's binders in scope are `rho`, `rho%1`, ...: a new one takes their count.

`lex` gives each token as a plain `(kind, text, offset)` tuple, kind one of
"name", "int", "punct" and "eof", from one match of `_TOKEN` that also
takes the blanks, newlines and `//` comments before it.  A token carries
no `Loc`: the parser makes one only for a node, a `Definition` or a
`ParseError`, from the token's offset and the offsets at which lines start.
A column counts characters, a tab as one.  The "eof" token ends every
list; the end of input sits after the last character outside a comment, so
a comment that ends the input without a newline is not counted.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from typing import Optional

from .syntax import (
    BOOL,
    BOTTOM,
    CAP_KEYWORD,
    EMPTY_EFFECT,
    INT,
    PRIM_BINARY,
    SEQ_MODE,
    UNIT,
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
    Record,
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
    is_let,
    read_back,
)


class ParseError(Exception):
    def __init__(self, code: str, message: str, loc: Optional[Loc] = None):
        where = f" at {loc}" if loc else ""
        super().__init__(f"{code}{where}: {message}")
        self.code = code
        self.message = message
        self.loc = loc


class Definition(Record):
    def __init__(self, name: str, body: Expr, loc: Loc) -> None:
        self.__dict__.update(name=name, body=body, loc=loc)


class SourceProgram(Record):
    def __init__(self, defs: tuple[Definition, ...]) -> None:
        self.__dict__.update(defs=defs)

    def get(self, name: str) -> Definition:
        for d in self.defs:
            if d.name == name:
                return d
        raise KeyError(name)


KEYWORDS = {
    "def", "let", "in", "if", "then", "else", "while", "do",
    "newrgn", "new", "at", "deref", "share", "lock", "unlock", "free",
    "spawn", "true", "false", "int", "bool", "unit", "rgn", "ref", "fn",
}

_BASE_TYPES = {"int": INT, "bool": BOOL, "unit": UNIT}

_CAP_OP = {keyword: op for op, keyword in CAP_KEYWORD.items()}

_PUNCT = [
    "/\\", ":=", "->", "<=", "==", "!=", "&&", "||",
    "(", ")", "{", "}", "[", "]", ",", ".", ";", ":", "@", "^", "~", "?",
    "+", "-", "*", "<", "!", "\\", "=",
]

# A token: the blanks, newlines and comments before it, then one group of
# `_KINDS`, none of which starts as another does; a punctuation mark of two
# characters goes before one of one.  A comment runs to the end of its line:
# the lookahead stops backtracking from cutting it short and reading its tail
# as a token.  A name starts with a letter or `_`; `[^\W\d]` also admits a
# non-decimal numeric character such as `²`, which `lex` rejects.
_SKIP = r"[ \t\r\n]*(?://[^\n]*(?![^\n])[ \t\r\n]*)*"
_TOKEN = re.compile(_SKIP + "(?:" + "|".join([
    r"([^\W\d]\w*)",
    "(" + "|".join(re.escape(p) for p in _PUNCT if len(p) == 2)
    + "|[" + "".join(re.escape(p) for p in _PUNCT if len(p) == 1) + "])",
    r"([0-9]+)",
]) + ")")
_KINDS = (None, "name", "punct", "int")
# What may follow the last token: blanks, newlines and comments, of which
# only the last may end the input without a newline.
_TAIL = re.compile(r"[ \t\r\n]*(?://[^\n]*\n[ \t\r\n]*)*")
_NEWLINE = re.compile("\n")

_Token = tuple[str, str, int]


def lex(source: str) -> list[_Token]:
    """The tokens of `source`, each `(kind, text, offset)`, the last of kind
    "eof".  Raises ParseError at the first character that starts no token."""
    tokens = [(_KINDS[m.lastindex], m[m.lastindex], m.start(m.lastindex))
              for m in iter(_TOKEN.scanner(source).match, None)]
    if not source.isascii():
        for kind, text, offset in tokens:
            if kind == "name" and not (text[0].isalpha() or text[0] == "_"):
                raise _unexpected_character(source, offset)
    _, text, offset = tokens[-1] if tokens else ("", "", 0)
    end = _TAIL.match(source, offset + len(text)).end()
    if end < len(source) and not source.startswith("//", end):
        raise _unexpected_character(source, end)
    tokens.append(("eof", "", end))
    return tokens


def _unexpected_character(source: str, offset: int) -> ParseError:
    return ParseError("SyntaxError", f"unexpected character {source[offset]!r}",
                      _locate(_line_starts(source), offset))


def _line_starts(source: str) -> list[int]:
    return [0] + [m.end() for m in _NEWLINE.finditer(source)]


def _locate(line_starts: list[int], offset: int) -> Loc:
    """The line and column of `offset`, given the offset each line starts
    at; a column counts characters, a tab as one."""
    line = bisect_right(line_starts, offset)
    return Loc(line, offset - line_starts[line - 1] + 1)


# The kinds of frame of the expression loop: a form, or the operand it waits for.
(_END, _SEQ, _BINARY, _ASSIGN, _PAREN, _ARGS, _NOT, _DEREF, _CAP, _NEW, _NEW_AT, _IF,
 _THEN, _ELSE, _WHILE, _DO, _PARENT, _IN, _REGION_LAMBDA, _LAMBDA, _SPAWN, _LET,
 _LET_IN) = range(23)

#: The prefix forms: the frame each pushes, the strongest floor that admits
#: it, and its operand's floor, None for a form with a head to read first.
_PREFIX = {"let": (_LET, 1, None), "while": (_WHILE, 1, None), "newrgn": (_PARENT, 1, None),
           "/\\": (_REGION_LAMBDA, 1, None), "\\": (_LAMBDA, 1, None), "spawn": (_SPAWN, 1, None),
           "if": (_IF, 1, 2), "!": (_NOT, 8, 8), "deref": (_DEREF, 8, 8),
           "new": (_NEW, 8, PRIM_BINARY["+"][2]), **{k: (_CAP, 8, 8) for k in _CAP_OP}}

#: The postfix and infix forms: the strongest floor that admits each, and an
#: infix form's frame and right operand's floor.
_INFIX = {"[": (10, None, None), "(": (10, None, None), ";": (0, _SEQ, 0), ":=": (2, _ASSIGN, 2),
          **{op: (s, _BINARY, s + 1) for op, (_, _, s, _) in PRIM_BINARY.items()}}

#: A complete operand's level, the strongest form above that may extend it:
#: an atom's (a postfix form), an operand's (an infix form), a statement's (`;`).
_ATOM, _OPERAND, _STMT = 10, 9, 0


class _Parser:
    def __init__(self, tokens: list[_Token], source: str):
        self.tokens = tokens
        self.line_starts = _line_starts(source)
        # The region binders in scope, innermost last, per source name.
        self.scopes: dict[str, list[RegionVar]] = {}

    # -- tokens and names ------------------------------------------------------

    def at(self, pos: int) -> Loc:
        return _locate(self.line_starts, self.tokens[pos][2])

    def expected(self, pos: int, what: str) -> ParseError:
        found = self.tokens[pos][1]
        return ParseError("SyntaxError", f"expected {what}, found {found!r}", self.at(pos))

    def want(self, pos: int, text: str) -> int:
        """The position after the token `text`, which must be at `pos`."""
        if self.tokens[pos][1] != text:
            raise self.expected(pos, repr(text))
        return pos + 1

    def name(self, pos: int, what: str) -> str:
        kind, text, _ = self.tokens[pos]
        if kind != "name" or text in KEYWORDS:
            raise self.expected(pos, what)
        return text

    def number(self, pos: int) -> int:
        kind, text, _ = self.tokens[pos]
        if kind != "int":
            raise self.expected(pos, "a number")
        try:
            return int(text)
        except ValueError:  # past `sys.get_int_max_str_digits()`
            raise ParseError("SyntaxError", "number too long", self.at(pos)) from None

    def bind(self, source: str) -> tuple[RegionVar, list[RegionVar]]:
        """A binder written `source`, now in scope, and the stack it leaves by."""
        binders = self.scopes.setdefault(source, [])
        var = RegionVar(f"{source}%{len(binders)}" if binders else source)
        binders.append(var)
        return var, binders

    def region(self, pos: int, what: str) -> RegionVar:
        """A region reference: the name of the innermost binder it names."""
        source = self.name(pos, what)
        binders = self.scopes.get(source)
        return binders[-1] if binders else RegionVar(source)

    # -- program ----------------------------------------------------------------

    def program(self) -> SourceProgram:
        defs: list[Definition] = []
        names: set[str] = set()
        pos = 0
        while self.tokens[pos][0] != "eof":
            loc = self.at(pos)
            name = self.name(self.want(pos, "def"), "definition name")
            if name in names:
                raise ParseError("DuplicateDefinition", f"definition {name!r} repeated", loc)
            names.add(name)
            body, pos = self.expr(self.want(pos + 2, "="))
            defs.append(Definition(name, body, loc))
        if "main" not in names:
            raise ParseError("MissingMain", "program has no `main` definition")
        return SourceProgram(tuple(defs))

    # -- expressions ------------------------------------------------------------

    def expr(self, pos: int) -> tuple[Expr, int]:
        """The `s1; …; sn` at `pos`, and the position after it."""
        tokens, starts, at, want = self.tokens, self.line_starts, self.at, self.want
        stack: list[tuple] = [(_END, 0)]
        floor, e, level = 0, None, _ATOM
        while True:
            if e is None:  # an operand at `floor`: a prefix form, or an atom
                kind, text, offset = tokens[pos]
                if kind == "name" and text not in KEYWORDS:
                    e = Var(text, _locate(starts, offset))
                elif (form := _PREFIX.get(text)) is not None and floor <= form[1]:
                    pushed, _, operand = form
                    loc, pos = _locate(starts, offset), pos + 1
                    if operand is not None:
                        stack.append((pushed, floor, loc, text))
                        floor = operand
                    elif pushed == _LET:
                        stack.append((_LET, floor, loc, self.name(pos, "binder name")))
                        floor, pos = 1, want(pos + 1, "=")
                    elif pushed == _WHILE:
                        stack.append((_WHILE, floor, loc))
                        floor, pos = 0, want(pos, "(")
                    elif pushed == _PARENT:
                        source = self.name(pos, "region variable")
                        handle = self.name(want(pos + 1, ","), "handle name")
                        stack.append((_PARENT, floor, loc, source, handle))
                        floor, pos = 9, want(pos + 3, "at")
                    elif pushed == _REGION_LAMBDA:
                        var, binders = self.bind(self.name(pos, "region variable"))
                        stack.append((_REGION_LAMBDA, floor, loc, var, binders))
                        floor, pos = 1, want(pos + 1, ".")
                    elif pushed == _LAMBDA:
                        params, parens = [], tokens[pos][1] == "("
                        pos += parens
                        while True:
                            name = self.name(pos, "parameter name")
                            ptype, pos = self.type_expr(want(pos + 1, ":"))
                            params.append((name, ptype))
                            if not (parens and tokens[pos][1] == ","):
                                break
                            pos += 1
                        eff_in, eff_out, pos = self.annotation(want(pos, ")") if parens else pos)
                        stack.append((_LAMBDA, floor, loc, params, eff_in, eff_out))
                        floor, pos = 1, want(pos, ".")
                    else:  # `spawn`, and the effect it transfers
                        transfer = None
                        if tokens[pos][1] == "[":
                            transfer, pos = self.effect(pos + 1)
                            pos = want(pos, "]")
                        stack.append((_SPAWN, floor, loc, transfer))
                        floor = 9
                    continue
                elif text == "(" and tokens[pos + 1][1] != ")":
                    stack.append((_PAREN, floor))
                    floor, pos = 0, pos + 1
                    continue
                elif text == "(":
                    e, pos = Const(UNIT_VALUE, at(pos)), pos + 1
                elif kind == "int":
                    e = Const(self.number(pos), at(pos))
                elif text == "true" or text == "false":
                    e = Const(text == "true", at(pos))
                else:
                    raise ParseError("SyntaxError", f"unexpected token {text!r}", at(pos))
                pos, level = pos + 1, _ATOM
            # `e` is complete: the frames on top take it until a postfix or an
            # infix form does, or one waits for another operand.
            infix = _INFIX.get(tokens[pos][1])
            while e is not None and (infix is None or not floor <= infix[0] <= level):
                frame = stack.pop()
                kind, floor = frame[0], frame[1]
                if kind == _SEQ:
                    e = Seq(frame[3], e, frame[2])
                elif kind == _CAP:
                    e, level = Cap(_CAP_OP[frame[3]], e, frame[2]), _OPERAND
                elif kind == _PAREN:
                    pos, level = want(pos, ")"), _ATOM
                    infix = _INFIX.get(tokens[pos][1])
                elif kind == _ARGS:
                    frame[4].append(e)
                    if tokens[pos][1] == ",":
                        stack.append(frame)
                        floor, pos, e = 1, pos + 1, None
                        continue
                    e = frame[3]
                    for arg in frame[4]:
                        e = App(e, arg, SEQ_MODE, frame[2])
                    pos, level = want(pos, ")"), _ATOM
                    infix = _INFIX.get(tokens[pos][1])
                elif kind == _REGION_LAMBDA:
                    frame[4].pop()
                    e, level = RegionLambda(frame[3], e, frame[2]), _STMT
                elif kind == _LAMBDA:
                    # The declared effect is the innermost binder's; outer ones are effect-neutral.
                    _, _, loc, params, eff_in, eff_out = frame
                    e, level = Lambda(*params[-1], e, eff_in, eff_out, loc), _STMT
                    for name, ptype in reversed(params[:-1]):
                        e = Lambda(name, ptype, e, EMPTY_EFFECT, EMPTY_EFFECT, loc)
                elif kind == _END:
                    return e, pos
                elif kind == _PARENT:  # the binder's scope starts after its parent
                    var, binders = self.bind(frame[3])
                    stack.append((_IN, floor, frame[2], var, frame[4], e, binders))
                    floor, pos, e = 1, want(pos, "in"), None
                elif kind == _IN:
                    frame[6].pop()
                    e, level = NewRgn(frame[3], frame[4], frame[5], e, frame[2]), _STMT
                elif kind == _LET:
                    stack.append((_LET_IN, floor, frame[2], frame[3], e))
                    floor, pos, e = 1, want(pos, "in"), None
                elif kind == _LET_IN:
                    lam = Lambda(frame[3], None, e, None, None, frame[2])
                    e, level = App(lam, frame[4], SEQ_MODE, frame[2]), _STMT
                elif kind == _ASSIGN:
                    e, level = Assign(frame[3], e, frame[2]), _OPERAND
                elif kind == _BINARY:
                    e, level = Prim(frame[4], (frame[3], e), frame[2]), _OPERAND
                elif kind == _DEREF:
                    e, level = Deref(e, frame[2]), _OPERAND
                elif kind == _NOT:
                    e, level = Prim("!", (e,), frame[2]), _OPERAND
                elif kind == _NEW:
                    stack.append((_NEW_AT, floor, frame[2], e))
                    floor, pos, e = 8, want(pos, "at"), None
                elif kind == _NEW_AT:
                    e, level = NewRef(frame[3], e, frame[2]), _OPERAND
                elif kind == _SPAWN:
                    if not isinstance(e, App):
                        raise ParseError("SyntaxError", "spawn must be followed by an application",
                                         frame[2])
                    e, level = App(e.fn, e.arg, ParMode(frame[3]), e.loc or frame[2]), _STMT
                elif kind == _IF:
                    stack.append((_THEN, floor, frame[2], e))
                    floor, pos, e = 1, want(pos, "then"), None
                elif kind == _THEN:
                    stack.append((_ELSE, floor, frame[2], frame[3], e))
                    floor, pos, e = 1, want(pos, "else"), None
                elif kind == _ELSE:
                    e, level = If(frame[3], frame[4], e, frame[2]), _STMT
                elif kind == _WHILE:
                    stack.append((_DO, floor, frame[2], e))
                    floor, pos, e = 1, want(want(pos, ")"), "do"), None
                else:  # _DO
                    e, level = While(frame[3], e, frame[2]), _STMT
            if e is not None:
                _, text, offset = tokens[pos]
                loc = _locate(starts, offset)
                if infix[1] is not None:
                    stack.append((infix[1], floor, loc, e, text))
                    floor, pos, e = infix[2], pos + 1, None
                elif text == "[":
                    e = RegionApp(e, self.region(pos + 1, "region name"), loc)
                    pos = want(pos + 2, "]")
                elif tokens[pos + 1][1] == ")":  # a unit-argument call
                    e, pos = App(e, Const(UNIT_VALUE, loc), SEQ_MODE, loc), pos + 2
                else:
                    stack.append((_ARGS, floor, loc, e, []))
                    floor, pos, e = 1, pos + 1, None

    # -- types and effects --------------------------------------------------------

    def type_expr(self, pos: int) -> tuple[Type, int]:
        text = self.tokens[pos][1]
        if text in _BASE_TYPES:
            return _BASE_TYPES[text], pos + 1
        if text not in ("rgn", "ref", "fn"):
            raise self.expected(pos, "a type")
        pos = self.want(pos + 1, "(")
        if text == "rgn":
            return HandleType(self.region(pos, "region name")), self.want(pos + 1, ")")
        if text == "ref":
            elem, pos = self.type_expr(pos)
            pos = self.want(pos, ",")
            return RefType(elem, self.region(pos, "region name")), self.want(pos + 1, ")")
        param, pos = self.type_expr(pos)
        eff_in, eff_out, pos = self.annotation(self.want(pos, ")"))
        result, pos = self.type_expr(self.want(pos, "->"))
        return FnType(param, eff_in, eff_out, result), pos

    def annotation(self, pos: int) -> tuple[Effect, Effect, int]:
        """`@ [e1 -> e2]`: a function's input and output effects."""
        eff_in, pos = self.effect(self.want(self.want(pos, "@"), "["))
        eff_out, pos = self.effect(self.want(pos, "->"))
        return eff_in, eff_out, self.want(pos, "]")

    def effect(self, pos: int) -> tuple[Effect, int]:
        """`{r^(rg,lk)@parent, …}`, with `~` before an impure capability."""
        tokens = self.tokens
        pos = self.want(pos, "{")
        entries: list[tuple[RegionVar, Capability, Parent]] = []
        if tokens[pos][1] != "}":
            while True:
                r = self.region(pos, "region name")
                if tokens[pos + 1][1] != "^":
                    raise self.expected(pos + 1, "'^'")
                pure = tokens[pos + 2][1] != "~"
                pos += 2 if pure else 3
                if tokens[pos][1] != "(":
                    raise self.expected(pos, "'('")
                rg = self.number(pos + 1)
                if tokens[pos + 2][1] != ",":
                    raise self.expected(pos + 2, "','")
                lk = self.number(pos + 3)
                if tokens[pos + 4][1] != ")":
                    raise self.expected(pos + 4, "')'")
                if tokens[pos + 5][1] != "@":
                    raise self.expected(pos + 5, "'@'")
                pos += 6
                text = tokens[pos][1]
                parent = (UNKNOWN if text == "?" else BOTTOM if text == "_"
                          else self.region(pos, "parent region"))
                entries.append((r, Capability(rg, lk, pure), parent))
                if tokens[pos + 1][1] != ",":
                    break
                pos += 2
            pos += 1
        pos = self.want(pos, "}")
        try:
            return Effect(entries), pos
        except ValueError as exc:
            raise ParseError("SyntaxError", str(exc), self.at(pos))


def parse_program(text: str) -> SourceProgram:
    return _Parser(lex(text), text).program()


def parse_expr(text: str) -> Expr:
    parser = _Parser(lex(text), text)
    e, pos = parser.expr(0)
    kind, text, _ = parser.tokens[pos]
    if kind != "eof":
        raise ParseError("SyntaxError", f"trailing input {text!r}", parser.at(pos))
    return e


# ---------------------------------------------------------------------------
# Pretty printer
# ---------------------------------------------------------------------------

def pretty(e: Expr) -> str:
    """Render an expression in re-parseable surface syntax.

    Runtime-only values and ints too long for decimal (`int<0x..>`) print in
    a bracketed form that the parser rejects, keeping the source/runtime
    distinction visible in traces; a region binder the parser renamed prints
    as `rho%n`, which the lexer rejects.  A run-time term prints as its
    read-back, closures substituted.
    """
    return _pp(read_back(e), 0)


def _pp(e: Expr, level: int) -> str:
    """`e` printed where an operand of floor `level` is wanted (the parser's
    floors), in parentheses if it is looser, from an explicit stack of
    pieces: strings, and subterms with their floors."""
    out: list[str] = []
    stack: list = [(e, level)]
    while stack:
        piece = stack.pop()
        if type(piece) is str:
            out.append(piece)
            continue
        layout = _LAYOUT.get(type(piece[0]), _layout)
        mine, pieces = layout(piece[0])
        if mine < piece[1]:
            pieces = ["(", *pieces, ")"]
        stack.extend(reversed(pieces))
    return "".join(out)


#: Each regular form's layout: the loosest floor at which it prints without
#: parentheses, and its pieces.  `_layout` lays out the others.
_LAYOUT = {
    Var: lambda e: (9, [e.name]),
    RgnVal: lambda e: (9, [f"rgn<{e.region}>"]),
    LocVal: lambda e: (9, [f"loc<{e.location.idx}@{e.location.region}>"]),
    Seq: lambda e: (0, [(e.first, 1), "; ", (e.second, 0)]),
    If: lambda e: (1, ["if ", (e.cond, 2), " then ", (e.then, 1), " else ", (e.orelse, 1)]),
    While: lambda e: (1, ["while (", (e.cond, 0), ") do ", (e.body, 1)]),
    NewRgn: lambda e: (1, [f"newrgn {e.var}, {e.handle_name} at ", (e.parent_handle, 9),
                           " in ", (e.body, 1)]),
    RegionLambda: lambda e: (1, [f"/\\{e.var}. ", (e.body, 1)]),
    Assign: lambda e: (2, [(e.target, 3), " := ", (e.value, 2)]),
    Deref: lambda e: (8, ["deref ", (e.ref, 8)]),
    Cap: lambda e: (8, [f"{CAP_KEYWORD[e.op]} ", (e.handle, 8)]),
    NewRef: lambda e: (8, ["new ", (e.init, PRIM_BINARY["+"][2]), " at ", (e.handle, 8)]),
    RegionApp: lambda e: (9, [(e.fn, 9), f"[{e.region}]"]),
}


def _layout(e: Expr) -> tuple[int, list]:
    if isinstance(e, Const):
        if isinstance(e.value, (UnitVal, bool)):
            return 9, ["()" if e.value is UNIT_VALUE else "true" if e.value else "false"]
        try:
            return 9, [str(e.value)]
        except ValueError:  # past `sys.get_int_max_str_digits()`
            return 9, [f"int<{e.value:#x}>"]
    if isinstance(e, Prim):
        if e.op == "!":
            return 8, ["!", (e.args[0], 8)]
        mine = PRIM_BINARY[e.op][2]
        return mine, [(e.args[0], mine), f" {e.op} ", (e.args[1], mine + 1)]
    if is_let(e):
        return 1, [f"let {e.fn.param} = ", (e.arg, 1), " in ", (e.fn.body, 1)]
    if isinstance(e, Lambda):
        if e.param_type is None:
            # Internal let binder escaping into value position: print as a
            # degenerate let to stay readable; cannot be re-parsed standalone.
            return 1, [f"\\{e.param}. ", (e.body, 1)]
        ann = ""
        if e.effect_in is not None and e.effect_out is not None:
            ann = f" @ [{e.effect_in.pretty()} -> {e.effect_out.pretty()}]"
        return 1, [f"\\{e.param}: {e.param_type}{ann}. ", (e.body, 1)]
    if isinstance(e, App):  # `f(a, b)`: the sequential calls of its spine, last first
        head, pieces = e.fn, [")", (e.arg, 1)]
        while isinstance(head, App) and head.mode is SEQ_MODE and not is_let(head):
            pieces += [", ", (head.arg, 1)]
            head = head.fn
        pieces += ["(", (head, 9)]
        if isinstance(e.mode, ParMode):
            ann = f"[{e.mode.transfer.pretty()}]" if e.mode.transfer is not None else ""
            return 1, [f"spawn{ann} ", *reversed(pieces)]
        return 9, pieces[::-1]
    raise TypeError(f"unknown expression {e!r}")


def pretty_program(p: SourceProgram) -> str:
    chunks = [f"def {d.name} =\n  {_pp(d.body, 1)}" for d in p.defs]
    return "\n\n".join(chunks) + "\n"
