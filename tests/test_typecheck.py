from __future__ import annotations

import json
import threading
from typing import get_args

import pytest

from reglock.cli import main as cli_main
from reglock.effects import effect_subtract
from reglock.interp import run_seeded
from reglock.parser import parse_program
from reglock.syntax import (
    BOTTOM,
    EMPTY_EFFECT,
    HEAP,
    INT,
    Capability,
    Closure,
    Effect,
    Expr,
    FnType,
    HandleType,
    RefType,
    RegionPolyType,
    RegionVar,
    UNIT,
    UNKNOWN,
    UnitType,
    expr_digest,
    free_names,
    read_back,
)
from reglock.typecheck import Checker, check_program, link_bodies, type_eq
import conftest
import subst_machine
from conftest import SHADOWED_SPAWN, WELL_TYPED, corpus_text, lock_tree, paired_long_seq
from test_lex import load_workloads

RHOH = RegionVar("rhoH")
RHO = RegionVar("rho")

MAIN_WRAP = """def main = /\\rhoH. \\heap: rgn(rhoH) @ [{rhoH^(1,0)@_} -> {rhoH^(1,0)@_}].
  %s
"""


def check_src(src: str):
    return check_program(parse_program(src))


def check_main(body: str):
    return check_src(MAIN_WRAP % body)


def codes(result) -> list[str]:
    return [d.code for d in result.diagnostics]


class TestExampleFlows:
    def test_basic_region_margins(self):
        result = check_src(corpus_text("basic_region.rgn"))
        assert result.ok
        lines = result.typed.effect_lines["main"]
        entry = lines[5]  # the newrgn line records the body's entry effect
        assert entry.cap(RHO) == Capability(1, 1, pure=True)
        assert entry.parent(RHO) == RHOH
        # after `free h` only the ambient heap capability remains
        final = lines[8]
        assert [r for r, _, _ in final.items()] == [RHOH]

    def test_const_is_effect_preserving(self):
        result = check_main("let k = 5 in (free_it; ())" .replace("free_it", "()"))
        # simpler: a constant in sequence position leaves the effect alone
        result = check_main("(5; ())")
        assert result.ok

    def test_deref_requires_accessibility(self):
        result = check_main(
            "newrgn rho, h at heap in\n"
            "  let z = new 1 at h in\n"
            "  (unlock h;\n"
            "   let v = deref z in\n"
            "   free h)")
        assert not result.ok
        assert "InaccessibleRegion" in codes(result)

    def test_example9_rejected_at_spawn(self):
        result = check_src(corpus_text("impure_escape.rgn"))
        assert not result.ok
        [diag] = result.diagnostics
        assert diag.code == "ImpureLockEscape"
        # the spawn sits on line 11 of the corpus file
        assert diag.loc is not None and diag.loc.line == 11

    def test_aliased_swap_accepted(self):
        assert check_src(corpus_text("alias_swap_locked.rgn")).ok
        assert check_src(corpus_text("alias_swap_reentrant.rgn")).ok

    def test_trivial_main_accepted(self):
        assert check_main("()").ok


class TestSpawnInference:
    # What a spawn transfers is read off the E-SN steps of a run:
    # the callee's input effect, with its region variables instantiated.

    def test_migration_transfer(self):
        transfers = _performed_transfers(corpus_text("migration.rgn"), max_steps=80)
        assert len(transfers) >= 2  # the loop spawns once per region
        for eff in transfers:
            [rho] = [r for r, _, _ in eff.items() if r != HEAP]
            assert eff.cap(rho) == Capability(1, 1, pure=True)  # whole, still locked
            assert eff.cap(HEAP) == Capability(1, 0, pure=False)

    def test_sharing_transfer(self):
        [eff, *_] = _performed_transfers(corpus_text("sharing.rgn"), max_steps=80)
        [rho] = [r for r, _, _ in eff.items() if r != HEAP]
        assert eff.cap(rho) == Capability(1, 0, pure=False)  # half of (2,0)

    def test_closed_function_transfers_nothing(self):
        src = (
            "def noop = \\u: unit @ [{} -> {}]. ()\n"
            + MAIN_WRAP % "spawn noop(())"
        )
        [eff] = _performed_transfers(src)
        assert eff.is_empty()

    def test_infer_spawn_effect_matches_subtract(self):
        # The heap piece must be minted first (share), or subtracting the
        # callee's heap demand would orphan rho's parent link (a CapError).
        eff = Effect([(RHOH, Capability(2, 0), BOTTOM),
                      (RHO, Capability(2, 0), RHOH)])
        callee = FnType(INT,
                        Effect([(RHOH, Capability(1, 0, pure=False), BOTTOM),
                                (RHO, Capability(1, 0, pure=False), RHOH)]),
                        EMPTY_EFFECT, UnitType())
        split = effect_subtract(eff, callee.effect_in)
        assert split.passed == callee.effect_in
        assert split.retained.get(RHO)[1] == RHOH

    def test_explicit_annotation_must_match(self):
        src = (
            "def noop = \\u: unit @ [{} -> {}]. ()\n"
            + MAIN_WRAP % "spawn[{rhoH^(1,0)@_}] noop(())"
        )
        result = check_src(src)
        assert not result.ok
        assert "SpawnAnnotationMismatch" in codes(result)


class TestRuleChecks:
    def test_region_escape_rejected(self):
        result = check_main("newrgn rho, h at heap in ()")
        assert not result.ok
        assert "RegionEscapes" in codes(result)

    def test_new_into_freed_region(self):
        result = check_main(
            "newrgn rho, h at heap in\n  (free h;\n   let z = new 1 at h in ())")
        assert not result.ok
        assert "NotLive" in codes(result)

    def test_unlock_at_zero(self):
        result = check_main(
            "newrgn rho, h at heap in (unlock h; unlock h; free h)")
        assert not result.ok
        assert "CountUnderflow" in codes(result)

    def test_if_branches_must_agree_on_effects(self):
        result = check_main(
            "newrgn rho, h at heap in\n"
            "  ((if true then free h else ());\n   ())")
        assert not result.ok
        assert "EffectMismatch" in codes(result)

    def test_if_branches_must_agree_on_types(self):
        result = check_main("(if true then 1 else false; ())")
        assert not result.ok
        assert "TypeMismatch" in codes(result)

    def test_while_body_must_preserve_effect(self):
        result = check_main(
            "newrgn rho, h at heap in\n"
            "  (while (true) do free h;\n   ())")
        assert not result.ok
        assert "EffectMismatch" in codes(result)

    def test_unbound_variable(self):
        result = check_main("ghost")
        assert not result.ok
        assert "UnboundVariable" in codes(result)

    def test_assign_type_mismatch(self):
        result = check_main(
            "newrgn rho, h at heap in\n"
            "  let z = new 1 at h in (z := true; free h)")
        assert not result.ok
        assert "TypeMismatch" in codes(result)

    def test_annotation_out_of_scope_region(self):
        src = "def f = \\x: int @ [{ghost^(1,0)@_} -> {}]. x\n" + MAIN_WRAP % "()"
        result = check_src(src)
        assert not result.ok
        assert "MalformedAnnotation" in codes(result)

    def test_instantiation_into_a_parent_loop_is_not_live(self):
        # f[rho][rho] merges b into a, whose parent is b: a loop.
        src = ("def f = /\\a. /\\b. \\x: int @ [{b^~(1,0)@?, a^~(1,0)@b} -> "
               "{b^~(1,0)@?, a^~(1,0)@b}]. x\n"
               + MAIN_WRAP % "newrgn rho, h at heap in (f[rho][rho](1); free h)")
        result = check_src(src)
        assert codes(result) == ["NotLive"]
        assert "its own parent" in result.diagnostics[0].message


#: `apply`'s parameter and `g` list the same two entries in opposite orders,
#: so `apply[r][s](g[r][s])` compares two distinct, equal function types.
REORDERED = ("def apply = /\\a. /\\b. \\f: fn(unit) @ [{a^(1,1)@?, b^(1,1)@?} -> "
             "{a^(1,1)@?, b^(1,1)@?}] -> unit\n"
             "    @ [{a^(1,1)@?, b^(1,1)@?} -> {a^(1,1)@?, b^(1,1)@?}].\n  f(())\n"
             "def g = /\\a. /\\b. \\u: unit @ [{b^(1,1)@?, a^(%s)@?} -> {b^(1,1)@?, a^(%s)@?}]. u\n"
             + MAIN_WRAP % ("newrgn r, hr at heap in\n  newrgn s, hs at heap in\n"
                            "  (apply[r][s](g[r][s]);\n   free hr; free hs)"))


class TestTypeEquality:
    """`type_eq` on distinct type objects: equal function types whose
    effects list their entries in different orders, alpha-equivalent
    region abstractions, and purity ignored only when lenient."""

    def test_function_types_ignore_entry_order(self, tmp_path, capsys):
        src = REORDERED % ("1,1", "1,1")
        assert check_src(src).ok
        path = tmp_path / "reordered.rgn"
        path.write_text(src)
        assert cli_main(["run", str(path), "--seed", "0", "--metatheory"]) == 0
        assert "metatheory: 0 violations" in capsys.readouterr().out

    def test_function_types_compare_their_counts(self):
        result = check_src(REORDERED % ("1,0", "1,0"))
        assert codes(result) == ["TypeMismatch"]
        assert str(result.diagnostics[0].loc) == "8:15"  # the argument of `apply[r][s]`

    def test_region_abstractions_are_alpha_equivalent(self):
        assert check_main("let c = true in\n"
                          "  let f = if c then (/\\a. \\x: int @ [{} -> {}]. x)"
                          " else (/\\b. \\y: int @ [{} -> {}]. y + 1) in\n  ()").ok

    def test_purity_is_ignored_only_when_lenient(self):
        a, b = RegionVar("a"), RegionVar("b")

        def fn(pure: bool) -> FnType:
            eff = Effect([(a, Capability(1, 1, pure), UNKNOWN), (b, Capability(1, 0), UNKNOWN)])
            return FnType(UNIT, eff, eff, UNIT)

        pure, impure = fn(True), fn(False)
        for x, y in [(pure, impure), (RefType(pure, a), RefType(impure, a))]:
            assert x is not y
            assert type_eq(x, y, lenient=True) and type_eq(y, x, lenient=True)
            assert not type_eq(x, y) and not type_eq(y, x)
        assert not type_eq(RefType(pure, a), RefType(impure, b), lenient=True)


class TestMainShape:
    def test_wrong_input_effect(self):
        src = ("def main = /\\rhoH. \\heap: rgn(rhoH) @ "
               "[{rhoH^(1,1)@_} -> {rhoH^(1,1)@_}]. ()")
        result = check_src(src)
        assert not result.ok
        assert "MalformedMain" in codes(result)

    def test_consuming_main_is_allowed(self):
        src = ("def main = /\\rhoH. \\heap: rgn(rhoH) @ "
               "[{rhoH^(1,0)@_} -> {}]. free heap")
        assert check_src(src).ok

    def test_monomorphic_main_rejected(self):
        src = "def main = \\u: unit @ [{} -> {}]. ()"
        result = check_src(src)
        assert not result.ok
        assert "MalformedMain" in codes(result)


class TestStability:
    @pytest.mark.parametrize("name", WELL_TYPED)
    def test_rechecking_is_deterministic(self, name):
        text = corpus_text(name)
        first = check_program(parse_program(text))
        second = check_program(parse_program(text))
        assert first.ok and second.ok
        assert first.typed.def_types == second.typed.def_types
        assert first.typed.effect_lines == second.typed.effect_lines

    def test_renamed_binders_do_not_depend_on_earlier_checks(self):
        # The inner binder shadows the outer one, so the type shows it renamed;
        # the new name is a function of the term, not of a global counter.
        text = "def f = /\\rho. /\\rho. \\u: unit @ [{} -> {}]. ()\n" + MAIN_WRAP % "()"
        first, second = (str(check_src(text).typed.def_types["f"]) for _ in range(2))
        assert first == second == "forall rho. forall rho%1. fn(unit) @ [{} -> {}] -> unit"

    def test_checking_substitutes_into_no_term(self, monkeypatch):
        # The parser named the shadowing binder apart, so the checker renames
        # nothing: it builds no term node.
        program = parse_program(SHADOWED_SPAWN)
        made = []
        for form in get_args(Expr) + (Closure,):
            def init(self, *args, real=form.__init__):
                made.append(type(self))
                real(self, *args)
            monkeypatch.setattr(form, "__init__", init)
        assert check_program(program).ok and made == []

    @pytest.mark.parametrize("name", WELL_TYPED)
    def test_accepted_defs_have_region_poly_types(self, name):
        result = check_program(parse_program(corpus_text(name)))
        main_t = result.typed.def_types["main"]
        assert isinstance(main_t, RegionPolyType)
        assert isinstance(main_t.body, FnType)
        assert isinstance(main_t.body.param, HandleType)


def test_lenient_checker_agrees_where_the_strict_one_accepts(monkeypatch):
    """At every node that the strict checker accepts, the harness's lenient
    one gives the same type and output effect, purity flags included: over
    the accepted corpus, the `conftest` fixtures and perfbench's generators
    at small sizes.  So what the static check finds is exact for the
    harness; only the lenient side accepts more."""
    bench = load_workloads()
    sources = {name: corpus_text(name) for name in WELL_TYPED}
    sources.update({name: getattr(conftest, name) for name in (
        "SHADOWED_SPAWN", "COMPUTED_HANDLE", "DEAD_HANDLE", "INLINED_PURITY",
        "SPLIT_THEN_WHOLE", "LITERAL_BODY", "TWICE", "POLY_CELL")})
    sources.update(lock_tree_3=lock_tree(3), paired_long_seq_10=paired_long_seq(10),
                   bench_long_seq_10=bench.long_seq(10),
                   bench_lock_tree_2=bench.lock_tree(2, 1, [3, 4]))
    accepted, real = [], Checker.check

    def check(self, e, env, eff):
        result = real(self, e, env, eff)
        if not self.lenient:
            accepted.append((e, env, eff, result))
        return result

    monkeypatch.setattr(Checker, "check", check)
    for name, text in sources.items():
        accepted.clear()
        assert check_program(parse_program(text)).ok, name
        lenient = Checker(lenient=True)
        assert accepted and all(lenient.check(e, env, eff) == result
                                for e, env, eff, result in accepted), name


class _SpawnRecorder:
    """Stands in for the metatheory harness and records each spawn's
    transfer as the run performs it."""

    def __init__(self) -> None:
        self.transfers: list[Effect] = []

    def observe_init(self, config) -> list:
        return []

    def after_step(self, tid, outcome, outcomes) -> list:
        if outcome.rule == "E-SN":
            self.transfers.append(outcome.info[1])
        return []


def _performed_transfers(src: str, max_steps: int = 10_000) -> list[Effect]:
    result = check_src(src)
    assert result.ok, [d.render() for d in result.diagnostics]
    recorder = _SpawnRecorder()
    run_seeded(result.typed.linked_main(), 0, max_steps, harness=recorder)
    return recorder.transfers


def _def(name: str, body: str) -> str:
    return f"def {name} = {body}\n"


#: A program, the code of the one diagnostic `check --json` reports for it,
#: and the location of that diagnostic.  Each reaches a distinct check.
DIAGNOSED = [
    pytest.param(_def("k", "(5; ())") + MAIN_WRAP % "()", "NotAValue", "1:1",
                 id="definition-not-a-value"),
    pytest.param(_def("k", "/\\r. (5; ())") + MAIN_WRAP % "()", "NotAValue", "1:9",
                 id="region-abstraction-body-not-a-value"),
    pytest.param(MAIN_WRAP % "5[rhoH]", "TypeMismatch", "2:4", id="region-app-of-int"),
    pytest.param(MAIN_WRAP % "(();\n   let z = new 1 at 5 in ())", "TypeMismatch", "3:12",
                 id="new-at-int"),
    pytest.param(MAIN_WRAP % "deref 5", "TypeMismatch", "2:3", id="deref-int"),
    pytest.param(MAIN_WRAP % "5 := 1", "TypeMismatch", "2:5", id="assign-to-int"),
    pytest.param(MAIN_WRAP % "newrgn rho, h at 5 in free h", "TypeMismatch", "2:3",
                 id="newrgn-at-int"),
    pytest.param(MAIN_WRAP % "free 5", "TypeMismatch", "2:3", id="free-int"),
    pytest.param(MAIN_WRAP % "if 5 then () else ()", "TypeMismatch", "2:3", id="if-on-int"),
    pytest.param(MAIN_WRAP % "while (5) do ()", "TypeMismatch", "2:3", id="while-on-int"),
    pytest.param(MAIN_WRAP % "(();\n   (1 + true; ()))", "TypeMismatch", "3:7",
                 id="int-plus-bool"),
    pytest.param(MAIN_WRAP % "5(1)", "TypeMismatch", "2:4", id="apply-int"),
    pytest.param(MAIN_WRAP % "(\\x: int @ [{} -> {}]. x)(true)", "TypeMismatch", "2:28",
                 id="argument-mismatch"),
    pytest.param(MAIN_WRAP % "((\\x: int @ [{rhoH^(1,0)@_} -> {}]. ()); ())",
                 "EffectMismatch", "2:5", id="lambda-body-effect"),
    pytest.param(MAIN_WRAP % "while (free heap; true) do ()", "EffectMismatch", "2:3",
                 id="while-condition-effect"),
    pytest.param(MAIN_WRAP % "((\\x: int @ [{rhoH^(1,0)@sigma} -> {}]. ()); ())",
                 "MalformedAnnotation", "2:5", id="ill-formed-annotation"),
    pytest.param(MAIN_WRAP % "((\\x: int @ [{rhoH^(1,0)@sigma, sigma^(1,0)@_} -> {}]. ()); ())",
                 "MalformedAnnotation", "2:5", id="annotation-parent-out-of-scope"),
    pytest.param(MAIN_WRAP % "(free heap;\n   newrgn rho, h at heap in free h)", "NotLive", "3:4",
                 id="newrgn-under-freed-parent"),
    pytest.param(_def("f", "/\\r. \\x: int @ [{} -> {}]. x")
                 + MAIN_WRAP % "(();\n   f[sigma](1); ())", "UnknownRegion", "4:5",
                 id="region-argument-out-of-scope"),
    pytest.param(_def("k", "5") + "def main = /\\rhoH. \\x: int @ "
                 "[{rhoH^(1,0)@_} -> {rhoH^(1,0)@_}]. ()\n", "MalformedMain", "2:1",
                 id="main-without-handle"),
    pytest.param("def main = /\\rhoH. \\heap: rgn(rhoH) @ "
                 "[{rhoH^(1,0)@_} -> {rhoH^(2,0)@_}]. share heap\n", "MalformedMain", "1:1",
                 id="main-output-effect"),
    pytest.param(MAIN_WRAP % "5", "MalformedMain", "1:1", id="main-result-not-unit"),
    pytest.param(_def("f", "/\\a. /\\b. \\x: int @ [{a^(1,0)@_, b^(1,0)@a} -> "
                      "{a^(1,0)@_, b^(1,0)@a}]. x")
                 + MAIN_WRAP % "(();\n   f[rhoH][rhoH](1); ())", "MalformedAnnotation", "4:11",
                 id="instantiation-merges-regions"),
    pytest.param(_def("f", "/\\a. \\h: rgn(a) @ [{a^~(1,0)@_} -> {}]. free h")
                 + MAIN_WRAP % "newrgn r, h at heap in\n  (share h;\n   f[r](h); free h)",
                 "ParentMismatch", "5:8", id="root-demand-at-a-child-region"),
]


@pytest.mark.parametrize("program, code, loc", DIAGNOSED)
def test_check_json_reports_the_diagnostic(program, code, loc, tmp_path, capsys):
    path = tmp_path / "rejected.rgn"
    path.write_text(program)
    assert cli_main(["check", str(path), "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    [diagnostic] = payload["diagnostics"]
    assert (diagnostic["code"], diagnostic["loc"]) == (code, loc)


INC = _def("inc", "\\x: int @ [{} -> {}]. x + 1")


@pytest.mark.parametrize("program, code, line", [
    pytest.param(MAIN_WRAP % "(inc(1); ())" + INC, "DefinitionCycle", 1,
                 id="forward-reference"),
    pytest.param(INC + MAIN_WRAP % "(dec(1); ())", "UnboundVariable", 2,
                 id="unknown-name"),
])
def test_unchecked_run_reports_the_link_diagnostic(program, code, line, tmp_path, capsys):
    path = tmp_path / "unlinked.rgn"
    path.write_text(program)
    argv = ["run", str(path), "--seed", "0", "--unchecked", "--trace", "json"]
    assert cli_main(argv) == 1
    [diagnostic] = json.loads(capsys.readouterr().out)["diagnostics"]
    assert (diagnostic["code"], int(diagnostic["loc"].split(":")[0])) == (code, line)


def test_linking_closes_each_definition_over_the_names_it_uses():
    """Timer-free: in a chain of 2,000 definitions, each calling the one
    before, each definition is closed over the names its body uses, not
    over every earlier definition, so linking binds one name per
    definition.  The linked `main` digests and reads back, on a fresh
    thread at the default recursion limit, as the oracle's substitution."""
    n = 2000
    defs = [_def("f0", "\\x: int @ [{} -> {}]. x + 1")] + [
        _def(f"f{i}", f"\\x: int @ [{{}} -> {{}}]. f{i - 1}(x) + 1") for i in range(1, n)]
    program = parse_program("".join(defs) + MAIN_WRAP % f"(f{n - 1}(1); ())")
    main = link_bodies(program)  # unchecked: the checker recurses once per level (ROADMAP)
    chain, e = [], main
    while type(e) is Closure:
        # Names only: a failure shows no closure, whose repr holds its bindings'.
        bound, used = sorted(e.env), sorted(free_names(e.body)[0])
        assert bound == used
        chain.append(bound[0])
        e = e.env[bound[0]]
    assert chain == [f"f{i}" for i in reversed(range(n))]
    assert e is program.get("f0").body
    digests = []

    def digest_all():
        digests.extend([expr_digest(main), expr_digest(read_back(main)),
                        expr_digest(subst_machine.link(program))])

    worker = threading.Thread(target=digest_all)
    worker.start()
    worker.join(timeout=120)
    assert not worker.is_alive()
    assert len(digests) == 3 and len(set(digests)) == 1
