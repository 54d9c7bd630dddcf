from __future__ import annotations

import threading

import pytest

from reglock.parser import (
    ParseError,
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
)
from conftest import SHADOWED_SPAWN, WELL_TYPED, ILL_TYPED, corpus_text


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


@pytest.mark.parametrize("body", [
    pytest.param("newrgn rho, h at heap in (" + "; ".join(["share h", "free h"] * 2500) + ")",
                 id="5000-statements"),
    pytest.param("let x = () in " * 1000 + "()", id="1000-lets"),
])
def test_long_chains_parse_and_print_without_recursion(body):
    # A new thread's stack starts empty, at the default recursion limit, so
    # the test runner's own frames do not count against it.
    results = []

    def round_trip():
        printed = pretty_program(parse_program(MAIN % body))
        results.append((printed, pretty_program(parse_program(printed))))

    worker = threading.Thread(target=round_trip)
    worker.start()
    worker.join(timeout=120)
    assert not worker.is_alive() and len(results) == 1
    printed, again = results[0]
    assert body in printed and printed == again


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
