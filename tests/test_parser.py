from __future__ import annotations

import random
import threading

import pytest

import parse_model
from reglock import parser
from reglock.parser import (
    _PUNCT,
    KEYWORDS,
    ParseError,
    lex,
    parse_expr,
    parse_program,
    pretty,
    pretty_program,
)
from reglock.syntax import (
    App,
    Assign,
    Cap,
    CapOp,
    Const,
    Deref,
    Lambda,
    LocVal,
    NewRgn,
    ParMode,
    Prim,
    RegionVar,
    RgnVal,
    Seq,
    Var,
    While,
    children,
    expr_digest,
)
import conftest
from conftest import CORPUS, SHADOWED_SPAWN, WELL_TYPED, ILL_TYPED, corpus_text


class TestSurfaceForms:
    def test_free_is_a_capability_op(self):
        assert parse_expr("free h") == Cap(CapOp.RG_MINUS, Var("h"))

    def test_share_lock_unlock(self):
        assert parse_expr("share h") == Cap(CapOp.RG_PLUS, Var("h"))
        assert parse_expr("lock h") == Cap(CapOp.LK_PLUS, Var("h"))
        assert parse_expr("unlock h") == Cap(CapOp.LK_MINUS, Var("h"))

    def test_let_desugars_to_binder_application(self):
        e = parse_expr("let z = deref x in y := z")
        assert isinstance(e, App)
        assert isinstance(e.fn, Lambda)
        assert e.fn.param == "z"
        assert e.fn.param_type is None  # transparent binder
        assert e.arg == Deref(Var("x"))
        assert e.fn.body == Assign(Var("y"), Var("z"))

    def test_newrgn_structure(self):
        e = parse_expr("newrgn rho, h at heap in free h")
        assert e == NewRgn(RegionVar("rho"), "h", Var("heap"),
                           Cap(CapOp.RG_MINUS, Var("h")))

    def test_sequencing(self):
        e = parse_expr("free h; ()")
        assert isinstance(e, Seq)

    def test_while_is_a_core_loop(self):
        e = parse_expr("while (true) do free h")
        assert isinstance(e, While)
        assert e.cond == Const(True)

    def test_spawn_marks_the_outermost_application(self):
        e = parse_expr("spawn f(a, b)")
        assert isinstance(e, App) and isinstance(e.mode, ParMode)
        assert e.mode.transfer is None
        inner = e.fn
        assert isinstance(inner, App) and inner.mode is not e.mode

    def test_spawn_with_explicit_transfer(self):
        e = parse_expr("spawn[{rho^(1,1)@rhoH}] f(a)")
        assert isinstance(e.mode, ParMode) and e.mode.transfer is not None
        cap = e.mode.transfer.cap(RegionVar("rho"))
        assert (cap.rg, cap.lk, cap.pure) == (1, 1, True)

    def test_impure_effect_annotation(self):
        e = parse_expr("spawn[{rho^~(2,0)@?}] f(a)")
        cap = e.mode.transfer.cap(RegionVar("rho"))
        assert (cap.rg, cap.lk, cap.pure) == (2, 0, False)

    def test_arithmetic_precedence(self):
        e = parse_expr("z := deref z + 5")
        assert isinstance(e, Assign)
        assert e.value == Prim("+", (Deref(Var("z")), Const(5)))

    def test_multi_param_lambda_curries(self):
        e = parse_expr("\\(a: int, b: bool) @ [{} -> {}]. a")
        assert isinstance(e, Lambda) and e.param == "a"
        assert isinstance(e.body, Lambda) and e.body.param == "b"
        # annotation sits on the innermost lambda
        assert e.body.effect_in is not None and e.body.effect_in.is_empty()

    def test_multi_arg_call_curries(self):
        e = parse_expr("f(a, b)")
        assert isinstance(e, App) and isinstance(e.fn, App)
        assert e.fn.fn == Var("f")

    def test_unit_literal_and_unit_call(self):
        assert parse_expr("()") == Const(parse_expr("()").value)
        call = parse_expr("f()")
        assert isinstance(call, App)

    def test_comments_ignored(self):
        assert parse_expr("free h // drop it\n") == Cap(CapOp.RG_MINUS, Var("h"))


class TestProgramLevel:
    def test_duplicate_definition(self):
        with pytest.raises(ParseError) as exc:
            parse_program("def f = ()\ndef f = ()\ndef main = ()")
        assert exc.value.code == "DuplicateDefinition"

    def test_missing_main(self):
        with pytest.raises(ParseError) as exc:
            parse_program("def f = ()")
        assert exc.value.code == "MissingMain"

    def test_syntax_error_carries_location(self):
        with pytest.raises(ParseError) as exc:
            parse_program("def main = (")
        assert exc.value.loc is not None


MAIN = ("def main = /\\rhoH. \\heap: rgn(rhoH) @ [{rhoH^(1,0)@_} -> {rhoH^(1,0)@_}].\n"
        "  %s\n")


def _fn(effect: str) -> str:
    return f"def f = \\x: int @ [{effect} -> {{}}]. x\n"


#: An input of `parse_program`, and the code, message and location of its
#: `ParseError`: at least one row for each place the parser raises one.
PARSE_ERRORS = [
    pytest.param(MAIN % "(();\n  # ())", "SyntaxError", "unexpected character '#'", "3:3",
                 id="character"),
    pytest.param("def main = \t\tx #", "SyntaxError", "unexpected character '#'", "1:16",
                 id="tab-is-one-column"),
    pytest.param("def main = ²", "SyntaxError", "unexpected character '²'", "1:12",
                 id="name-starts-with-a-digit-sign"),
    pytest.param("def main = é²(1١)", "SyntaxError", "unexpected character '١'", "1:16",
                 id="digits-are-ascii"),
    pytest.param("def main = ( // c", "SyntaxError", "unexpected token ''", "1:14",
                 id="end-of-input-before-a-comment"),
    pytest.param("def main = if true ()", "SyntaxError", "expected 'then', found ''", "1:22",
                 id="eat"),
    pytest.param("def 5 = ()", "SyntaxError", "expected definition name, found '5'", "1:5",
                 id="eat-name"),
    pytest.param("def f = ()\ndef f = ()\ndef main = ()", "DuplicateDefinition",
                 "definition 'f' repeated", "2:1", id="duplicate-definition"),
    pytest.param("def f = ()", "MissingMain", "program has no `main` definition", None,
                 id="missing-main"),
    pytest.param(MAIN % "let in = () in ()", "SyntaxError", "expected binder name, found 'in'",
                 "2:7", id="let-binder"),
    pytest.param(MAIN % "spawn f", "SyntaxError", "spawn must be followed by an application",
                 "2:3", id="spawn-without-call"),
    pytest.param(MAIN % "(();\n   )", "SyntaxError", "unexpected token ')'", "3:4",
                 id="atom"),
    pytest.param("def f = \\x: 5 @ [{} -> {}]. x\n", "SyntaxError",
                 "expected a type, found '5'", "1:13", id="type"),
    pytest.param(_fn("{a^(1,0)@_, a^(1,1)@_}"), "SyntaxError", "duplicate region a in effect",
                 "1:43", id="duplicate-region-in-effect"),
    pytest.param(_fn("{a^(x,0)@_}"), "SyntaxError", "expected a number, found 'x'", "1:24",
                 id="count"),
]


@pytest.mark.parametrize("text, code, message, loc", PARSE_ERRORS)
def test_parse_error(text, code, message, loc):
    with pytest.raises(ParseError) as exc:
        parse_program(text)
    got = exc.value
    assert (got.code, got.message, str(got.loc) if got.loc else None) == (code, message, loc)


def test_parse_expr_rejects_trailing_input():
    with pytest.raises(ParseError) as exc:
        parse_expr("free h )")
    assert (exc.value.code, exc.value.message, str(exc.value.loc)) == (
        "SyntaxError", "trailing input ')'", "1:8")


DEEP = 10_000


@pytest.mark.parametrize("body, shown", [
    pytest.param("newrgn rho, h at heap in (" + "; ".join(["share h", "free h"] * 2500) + ")",
                 None, id="5000-statements"),
    pytest.param("let x = () in " * 1000 + "()", None, id="1000-lets"),
    pytest.param("1 + (" * DEEP + "1 + 1" + ")" * DEEP, None, id="10000-parentheses"),
    pytest.param("newrgn rho, h at heap in " * DEEP + "()",
                 "newrgn rho, h at heap in " + "".join(
                     f"newrgn rho%{n}, h at heap in " for n in range(1, DEEP)) + "()",
                 id="10000-shadowing-newrgns"),
    pytest.param("".join(f"newrgn r{n}, h at heap in " for n in range(DEEP)) + "()", None,
                 id="10000-newrgns"),
    pytest.param("if true then " * DEEP + "()" + " else ()" * DEEP, None, id="10000-ifs"),
    pytest.param("\\x: int @ [{} -> {}]. " * DEEP + "x", None, id="10000-lambdas"),
    pytest.param("while (true) do " * DEEP + "()", None, id="10000-whiles"),
])
def test_long_chains_parse_and_print_without_recursion(body, shown):
    # A new thread's stack starts empty, at the default recursion limit, so
    # the test runner's own frames do not count against it.  `==` recurses,
    # so the trees are compared by digest.  A renamed binder prints as
    # `rho%n`, which the lexer rejects: it is read back as `rho_n`.
    results = []

    def round_trip():
        program = parse_program(MAIN % body)
        printed = pretty_program(program)
        again = parse_program(printed.replace("%", "_"))
        digests = [expr_digest(p.get("main").body) for p in (program, again)]
        results.append((printed, pretty_program(again), *digests))

    worker = threading.Thread(target=round_trip)
    worker.start()
    worker.join(timeout=120)
    assert not worker.is_alive() and len(results) == 1
    printed, reprinted, digest, digest_again = results[0]
    assert (shown or body) in printed and reprinted == printed.replace("%", "_")
    if shown is None:
        assert digest_again == digest


@pytest.mark.parametrize("name", WELL_TYPED + ILL_TYPED)
def test_round_trip_on_corpus(name):
    """parse(pretty(parse(s))) is structurally equal to parse(s)."""
    program = parse_program(corpus_text(name))
    again = parse_program(pretty_program(program))
    assert [d.name for d in again.defs] == [d.name for d in program.defs]
    for a, b in zip(again.defs, program.defs):
        assert a.body == b.body, f"{name}: {a.name} does not round-trip"


@pytest.mark.parametrize("name", WELL_TYPED + ILL_TYPED)
def test_parser_never_emits_runtime_forms(name):
    """No definition body holds a runtime-only node (RgnVal or LocVal)."""
    program = parse_program(corpus_text(name))
    stack = [d.body for d in program.defs]
    while stack:
        e = stack.pop()
        assert not isinstance(e, (RgnVal, LocVal)), f"{name}: {e}"
        stack.extend(children(e))


def test_pretty_expr_round_trips():
    for src in ("newrgn rho, h at heap in (share h; unlock h; free h)",
                "!x", "!(a < b) && !!c", "if !(x == 1) then () else ()",
                "!deref r || x", "x := !(y && z)"):
        e = parse_expr(src)
        assert parse_expr(pretty(e)) == e, src
    assert parse_expr("!!c && d") == Prim("&&", (Prim("!", (Prim("!", (Var("c"),)),)),
                                                 Var("d")))


def test_shadowing_region_binders_are_renamed_with_their_references():
    # A binder that shadows one in scope takes the first `rho%n` not in
    # scope, and so does every reference it binds: in a region argument, a
    # type, an effect and a spawn transfer.  A newrgn's parent handle and the
    # code after a binder's scope read the outer name.
    e = parse_expr("/\\rho. \\u: unit @ [{} -> {}]. ("
                   "newrgn rho, h at f[rho] in ("
                   "spawn[{rho^(1,0)@_}] g[rho](h); "
                   "/\\rho. \\x: ref(int, rho) @ [{rho^(1,1)@?} -> {rho^(1,1)@?}]. k[rho]); "
                   "m[rho])")
    assert pretty(e) == (
        "/\\rho. \\u: unit @ [{} -> {}]. ("
        "newrgn rho%1, h at f[rho] in ("
        "spawn[{rho%1^(1,0)@_}] g[rho%1](h); "
        "/\\rho%2. \\x: ref(int, rho%2) @ [{rho%2^(1,1)@?} -> {rho%2^(1,1)@?}]. k[rho%2]); "
        "m[rho])")
    # A renamed binder prints in a form the lexer rejects.
    with pytest.raises(ParseError):
        parse_expr(pretty(e))


def test_region_scope_is_per_definition():
    program = parse_program(SHADOWED_SPAWN)
    assert [d.body.var for d in program.defs] == [RegionVar("rhoH")] * 3
    outer = program.get("work").body.body.body
    assert isinstance(outer, NewRgn) and outer.var == RegionVar("rho")
    assert outer.body.var == RegionVar("rho%1") and outer.body.parent_handle == Var("h")


def _outcome(parse, text: str):
    """What the parser `parse` makes of `text`: the program, the location
    of every definition and node (walked without recursion) and the printed
    program, or the code, message and location of its `ParseError`."""
    try:
        program = parse.parse_program(text)
    except ParseError as exc:
        return exc.code, exc.message, exc.loc
    locs = []
    for d in program.defs:
        locs.append(d.loc)
        stack = [d.body]
        while stack:
            e = stack.pop()
            locs.append((type(e).__name__, e.loc))
            stack.extend(children(e))
    return program, locs, parse.pretty_program(program)


#: Tokens a mutant may gain: every keyword and punctuation mark.
PIECES = sorted(KEYWORDS) + _PUNCT


def _mutant(rng: random.Random, source: str) -> str:
    """`source` with one to three tokens dropped, doubled, swapped with
    another or preceded by a keyword or a punctuation mark; the blanks
    between tokens stay where they were."""
    for _ in range(rng.randint(1, 3)):
        tokens = lex(source)[:-1]
        _, text, offset = rng.choice(tokens)
        edit = rng.choice(["drop", "double", "swap", "insert"])
        if edit == "drop":
            source = source[:offset] + source[offset + len(text):]
        elif edit == "swap":
            (_, first, start), (_, second, end) = sorted(rng.sample(tokens, 2), key=lambda t: t[2])
            source = (source[:start] + second + source[start + len(first):end] + first
                      + source[end + len(second):])
        else:
            new = text if edit == "double" else rng.choice(PIECES)
            source = f"{source[:offset]}{new} {source[offset:]}"
    return source


#: Each form with its operands left open, written without parentheses, so
#: that an operand that is itself such a form tests how the two nest.
FORMS = ["{}; {}", "let x = {} in {}", "if {} then {} else {}", "while ({}) do {}",
         "newrgn r, h at {} in {}", "/\\r. {}", "\\x: int @ [{{}} -> {{}}]. {}", "spawn {}",
         "{} := {}", "{} || {}", "{} && {}", "{} < {}", "{} == {}", "{} + {}", "{} - {}",
         "{} * {}", "!{}", "deref {}", "share {}", "free {}", "new {} at {}", "({})", "{}[r]",
         "{}({})", "{}({}, {})", "{}()"]


def _term(rng: random.Random, depth: int) -> str:
    """A random term, often ill-formed; an operand is in parentheses at
    random."""
    if depth == 0:
        return rng.choice(["x", "h", "f", "1", "true", "()"])
    form = rng.choice(FORMS)
    operands = [_term(rng, rng.randrange(depth)) for _ in range(form.count("{}"))]
    return form.format(*[f"({t})" if rng.random() < 0.3 else t for t in operands])


def test_parser_agrees_with_the_recursive_descent():
    """The parser and its reference (`tests/parse_model.py`) give equal
    programs, locations and printed text, or the same `ParseError`, on the
    corpus, the fixtures of `tests/conftest.py`, the generated programs at
    small sizes, 600 random terms of every form and 1,200 seeded mutants of
    all of these."""
    sources = [path.read_text() for path in sorted(CORPUS.glob("*.rgn"))]
    sources += [value for name, value in sorted(vars(conftest).items())
                if name.isupper() and isinstance(value, str) and "def main" in value]
    sources += [conftest.paired_long_seq(3), conftest.lock_tree(2), conftest.lock_tree(3)]
    rng = random.Random(20261020)
    sources += [MAIN % _term(rng, 5) for _ in range(600)]
    inputs = sources + [_mutant(rng, rng.choice(sources)) for _ in range(1200)]
    failures = 0
    for text in inputs:
        want = _outcome(parse_model, text)
        assert _outcome(parser, text) == want, text
        failures += isinstance(want[0], str)
    assert len(inputs) * 0.2 < failures < len(inputs) * 0.8  # both outcomes are common
