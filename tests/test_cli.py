from __future__ import annotations

import json
import os
import subprocess
import sys
import threading

import argparse

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reglock import cli
from reglock.cli import main
from reglock.parser import _PUNCT, KEYWORDS, lex
from conftest import (COMPUTED_HANDLE, CORPUS, DEAD_HANDLE, POLY_CELL, RUNNABLE,
                      SHADOWED_SPAWN, TWICE, paired_long_seq)


def corpus(name: str) -> str:
    return str(CORPUS / name)


class TestCheck:
    def test_accepts(self, capsys):
        assert main(["check", corpus("basic_region.rgn")]) == 0
        out = capsys.readouterr().out
        assert out.startswith("ok main")

    def test_rejects_with_code(self, capsys):
        assert main(["check", corpus("impure_escape.rgn")]) == 1
        out = capsys.readouterr().out
        assert "ImpureLockEscape" in out

    def test_a_name_eof_does_not_end_the_program(self, tmp_path, capsys):
        path = tmp_path / "eof.rgn"
        path.write_text("def main = /\\rhoH. \\heap: rgn(rhoH) @ "
                        "[{rhoH^(1,0)@_} -> {rhoH^(1,0)@_}].\n  ()\n"
                        "eof this is not a program ((((\n")
        assert main(["check", str(path)]) == 1
        assert capsys.readouterr().out == (
            "parse error: SyntaxError at 3:1: expected 'def', found 'eof'\n")

    def test_missing_file(self, capsys):
        assert main(["check", "no_such_file.rgn"]) == 2

    def test_undecodable_file_is_io_error(self, tmp_path, capsys):
        path = tmp_path / "utf16.rgn"
        path.write_bytes(b"\xff\xfed\x00e\x00f\x00")
        assert main(["check", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1

    def test_emit_effects_lines(self, capsys):
        assert main(["check", corpus("sharing.rgn"), "--emit-effects"]) == 0
        out = capsys.readouterr().out
        assert "serve:15: {rho^(1,1)@rhoH}" in out
        assert "serve:17: {rho^(2,0)@rhoH}" in out
        assert "serve:19: {rho^(1,0)@rhoH}" in out

    def test_json_output(self, capsys):
        assert main(["check", corpus("basic_region.rgn"), "--json",
                     "--emit-effects"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] and "main" in payload["defs"]
        assert payload["effects"]["main"]["5"] == "{rho^(1,1)@rhoH}"

    def test_json_rejection(self, capsys):
        assert main(["check", corpus("impure_escape.rgn"), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert not payload["ok"]
        assert payload["diagnostics"][0]["code"] == "ImpureLockEscape"


class TestRun:
    def test_all_done_exit_zero(self, capsys):
        assert main(["run", corpus("basic_region.rgn"), "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "terminal all_done" in out

    def test_requires_seed(self, capsys):
        assert main(["run", corpus("basic_region.rgn")]) == 2

    def test_env_seed_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("REGLOCK_SEED", "5")
        assert main(["run", corpus("basic_region.rgn")]) == 0

    def test_malformed_env_seed_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("REGLOCK_SEED", "abc")
        assert main(["run", corpus("basic_region.rgn")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "REGLOCK_SEED" in err

    @pytest.mark.parametrize("argv", [["run", "--seed", "0", "--max-steps", "-1"],
                                      ["explore", "--max-steps", "-3"]])
    def test_negative_max_steps_is_usage_error(self, argv, capsys):
        assert main([argv[0], corpus("basic_region.rgn"), *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1 and "--max-steps" in captured.err
        assert not captured.out

    def test_unchecked_metatheory_is_usage_error(self, capsys):
        # The harness re-types against the checker's types, which an
        # unchecked run does not have; it must not be dropped silently.
        assert main(["run", corpus("race_unlocked.rgn"), "--seed", "1",
                     "--unchecked", "--metatheory"]) == 2
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1 and "--unchecked" in captured.err
        assert not captured.out

    def test_snapshots_without_json_trace_is_usage_error(self, capsys):
        # A text trace prints no snapshot, so none may be built.
        assert main(["run", corpus("basic_region.rgn"), "--seed", "1", "--snapshots"]) == 2
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1 and "--trace json" in captured.err
        assert not captured.out

    def test_unchecked_spawn_moves_the_callee_input_effect(self, tmp_path, capsys):
        # No transfer is written, so the spawn moves `nop`'s input effect,
        # the heap's (1,0), from thread 1 to thread 2.
        path = tmp_path / "undeclared_spawn.rgn"
        path.write_text(
            "def nop = /\\rhoH. \\heap: rgn(rhoH) @ [{rhoH^~(1,0)@_} -> {}]. free heap\n"
            "def main = /\\rhoH. \\heap: rgn(rhoH) @ [{rhoH^(1,0)@_} -> {rhoH^(1,0)@_}].\n"
            "  (share heap; spawn nop[rhoH](heap))\n")
        assert main(["run", str(path), "--seed", "0", "--unchecked", "--trace", "json",
                     "--snapshots"]) == 0
        payload = json.loads(capsys.readouterr().out)
        [spawn] = [s for s in payload["steps"] if s["rule"] == "E-SN"]
        assert spawn["store"]["threads"] == {"1": [1, 0], "2": [1, 0]}
        assert payload["terminal"]["kind"] == "all_done"

    def test_deadlock_exit_three(self, capsys):
        assert main(["run", corpus("deadlock_forced.rgn"), "--seed", "1",
                     "--unchecked"]) == 3
        assert "deadlock" in capsys.readouterr().out

    def test_typed_deadlocking_seed_exits_three(self, capsys):
        # seed 1 deadlocks the racy fixture (pinned; runs are reproducible)
        assert main(["run", corpus("deadlock_racy.rgn"), "--seed", "1"]) == 3

    def test_stuck_exit_four(self, capsys):
        assert main(["run", corpus("race_unlocked.rgn"), "--seed", "1",
                     "--unchecked"]) == 4
        assert "Inaccessible" in capsys.readouterr().out

    def test_rejected_program_exit_one(self, capsys):
        assert main(["run", corpus("impure_escape.rgn"), "--seed", "1"]) == 1

    def test_budget_exit_five(self, capsys):
        assert main(["run", corpus("migration.rgn"), "--seed", "1",
                     "--max-steps", "50"]) == 5

    def test_metatheory_clean(self, capsys):
        assert main(["run", corpus("sharing_once.rgn"), "--seed", "3",
                     "--metatheory"]) == 0
        assert "metatheory: 0 violations" in capsys.readouterr().out

    def test_json_trace_shape(self, capsys):
        assert main(["run", corpus("basic_region.rgn"), "--seed", "2",
                     "--trace", "json", "--snapshots"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["terminal"]["kind"] == "all_done"
        assert all("rule" in s and "digest" in s for s in payload["steps"])
        assert "store" in payload["steps"][0]


class TestExplore:
    def test_clean_program(self, capsys):
        assert main(["explore", corpus("sharing_once.rgn")]) == 0
        out = capsys.readouterr().out
        assert "terminal all_done" in out and "budget hits 0" in out

    def test_deadlock_terminals_still_exit_zero(self, capsys):
        assert main(["explore", corpus("deadlock_racy.rgn")]) == 0
        out = capsys.readouterr().out
        assert "terminal deadlock" in out

    def test_thread_refusal(self, capsys):
        assert main(["explore", corpus("many_threads.rgn")]) == 5
        assert "refused" in capsys.readouterr().out

    def test_json_refusal(self, capsys):
        assert main(["explore", corpus("many_threads.rgn"), "--json"]) == 5
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == ["refused"] and "threads" in payload["refused"]

    def test_forced_exploration(self, capsys):
        assert main(["explore", corpus("many_threads.rgn"), "--force-threads"]) == 0

    def test_json_report(self, capsys):
        assert main(["explore", corpus("basic_region.rgn"), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["terminals"] == {"all_done": 1}


@pytest.mark.parametrize("argv", [["run", "--seed", "0", "--trace", "json"],
                                  ["explore", "--json"]], ids=["run", "explore"])
@pytest.mark.parametrize("source, code", [
    ((CORPUS / "race_unlocked.rgn").read_text(), "InaccessibleRegion"),
    ("def main = (", "SyntaxError"),
], ids=["rejected", "unparsable"])
def test_json_commands_print_a_rejection_as_json(argv, source, code, tmp_path, capsys):
    """A rejected or unparsable program gets the payload of `check --json`
    from every command that prints JSON, and still exits 1."""
    path = tmp_path / "rejected.rgn"
    path.write_text(source)
    assert main([argv[0], str(path), *argv[1:]]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False and payload["diagnostics"][0]["code"] == code


@pytest.mark.parametrize("name", RUNNABLE)
def test_harness_does_not_change_the_run(name, capsys):
    """The same steps (thread, rule, state digest) and terminal with and
    without `--metatheory`."""
    for seed in range(5):
        payloads = []
        for extra in ([], ["--metatheory"]):
            code = main(["run", corpus(name), "--seed", str(seed), "--trace", "json",
                         *extra])
            payloads.append((code, json.loads(capsys.readouterr().out.splitlines()[0])))
        assert payloads[0] == payloads[1] and payloads[0][1]["steps"]


def test_run_output_is_byte_identical():
    cmd = [sys.executable, "-m", "reglock.cli", "run",
           corpus("sharing_once.rgn"), "--seed", "42", "--trace", "json",
           "--snapshots"]
    a = subprocess.run(cmd, capture_output=True, check=True).stdout
    b = subprocess.run(cmd, capture_output=True, check=True).stdout
    assert a == b and a


def checks_explores_and_runs_clean(path, capsys) -> dict:
    """Asserts that the program checks, that `explore` reaches only
    `all_done`, and that `run --metatheory` over seeds 0..19 ends `all_done`
    with no violation; returns the `explore --json` report."""
    assert main(["check", str(path)]) == 0
    capsys.readouterr()
    assert main(["explore", str(path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["terminals"] == {"all_done": 1}
    for seed in range(20):
        assert main(["run", str(path), "--seed", str(seed), "--metatheory"]) == 0
        out = capsys.readouterr().out
        assert "terminal all_done" in out and "metatheory: 0 violations" in out
    return report


def test_spawn_under_shadowing_binder_runs(tmp_path, capsys):
    path = tmp_path / "shadowed_spawn.rgn"
    path.write_text(SHADOWED_SPAWN)
    checks_explores_and_runs_clean(path, capsys)


def test_newrgn_at_a_computed_handle_runs_clean(tmp_path, capsys):
    # The body of a `newrgn` stepped at its handle is open in its names.
    path = tmp_path / "computed_handle.rgn"
    path.write_text(COMPUTED_HANDLE)
    checks_explores_and_runs_clean(path, capsys)


def test_dead_handle_after_free_runs_clean(tmp_path, capsys):
    # A freed region's name still types; only its capability is gone.
    path = tmp_path / "dead_handle.rgn"
    path.write_text(DEAD_HANDLE)
    report = checks_explores_and_runs_clean(path, capsys)
    assert report["states"] == 31 and not report["stuck"]


@pytest.mark.parametrize("name, text", [("twice", TWICE), ("poly_cell", POLY_CELL)])
def test_function_typed_parameter_and_polymorphic_cell_run_clean(name, text, tmp_path,
                                                                  capsys):
    path = tmp_path / f"{name}.rgn"
    path.write_text(text)
    checks_explores_and_runs_clean(path, capsys)


def test_trace_digests_depend_only_on_the_program(tmp_path, capsys):
    # A renamed region binder's name depends on the term alone.
    path = tmp_path / "shadowed_spawn.rgn"
    path.write_text(SHADOWED_SPAWN)
    outs = []
    for _ in range(2):
        assert main(["run", str(path), "--seed", "0", "--trace", "json"]) == 0
        outs.append(json.loads(capsys.readouterr().out))
    assert outs[0] == outs[1]


def test_long_program_runs_without_recursion_error(tmp_path, capsys):
    # A new thread's stack starts empty, as in a `reglock` process, so the
    # test runner's own frames do not count against the recursion limit.
    # Substitution recurses once per term level, and a `let` is two levels.
    lets = "".join(f"let x{i} = {i} in " for i in range(300))
    nested = f"{MAIN_HEADER}  {lets}()\n"
    for source, steps in ((paired_long_seq(480), 1925), (nested, 303)):
        path = tmp_path / "long.rgn"
        path.write_text(source)
        codes = []
        worker = threading.Thread(target=lambda: codes.append(
            main(["run", str(path), "--seed", "0"])))
        worker.start()
        worker.join(timeout=300)
        assert not worker.is_alive() and codes == [0]
        out = capsys.readouterr().out
        assert f'terminal all_done {{"steps": {steps}}}' in out


MAIN_HEADER = ("def main = /\\rhoH. \\heap: rgn(rhoH) @ "
               "[{rhoH^(1,0)@_} -> {rhoH^(1,0)@_}].\n")


@pytest.mark.parametrize("source, fault", [
    (MAIN_HEADER + "  ((/\\a. \\(x: int) @ [{} -> {}]. ())[zz](1); ())\n", "MalformedTerm"),
    (MAIN_HEADER + "  ((\\x: int @ [{} -> {}]. x) + 1; ())\n", "BadPrimitive"),
    ("def nop = /\\rhoH. \\heap: rgn(rhoH) @ [{rhoH^~(1,0)@_} -> {}]. free heap\n"
     + MAIN_HEADER + "  (share heap; spawn[{zz^(1,0)@_}] nop[rhoH](heap))\n",
     "InsufficientDynamicCounts"),
    (MAIN_HEADER + "  (newrgn r, h at 1 in (); ())\n", "BadHandle"),
    (MAIN_HEADER + "  (new 1 at 2; ())\n", "BadHandle"),
    (MAIN_HEADER + "  (lock 1; ())\n", "BadHandle"),
    (MAIN_HEADER + "  (deref 1; ())\n", "BadDeref"),
    (MAIN_HEADER + "  (1 := 2; ())\n", "BadAssign"),
    (MAIN_HEADER + "  if 1 then () else ()\n", "BadCondition"),
    (MAIN_HEADER + "  (1(2); ())\n", "BadApplication"),
    (MAIN_HEADER + "  (spawn 1(2); ())\n", "BadApplication"),
    (MAIN_HEADER + "  (1[rhoH]; ())\n", "BadRegionApplication"),
    (MAIN_HEADER + "  1\n", "NonUnitTerminal"),
], ids=["region-variable-argument", "lambda-operand", "transfer-of-variable",
        "newrgn-at-non-handle", "new-at-non-handle", "lock-of-non-handle", "deref-of-int",
        "assign-to-int", "if-on-int", "call-of-int", "spawn-of-int", "region-app-of-int",
        "int-result"])
def test_malformed_unchecked_terms_get_stuck_with_and_without_asserts(source, fault,
                                                                      tmp_path, capsys):
    # A run-time check is not an `assert`, which `python -O` strips.
    path = tmp_path / "malformed.rgn"
    path.write_text(source)
    argv = ["run", str(path), "--seed", "0", "--unchecked"]
    assert main(argv) == 4
    outs = [capsys.readouterr().out]
    optimized = subprocess.run([sys.executable, "-O", "-m", "reglock.cli", *argv],
                               capture_output=True, text=True)
    assert optimized.returncode == 4 and not optimized.stderr
    outs.append(optimized.stdout)
    for out in outs:
        assert f'"fault": "{fault}"' in out and "terminal stuck" in out


def test_negation_is_evaluated_under_the_harness(tmp_path, capsys):
    # The loop ends only if `!` negates: 4 tests of `!`, each after an `==`,
    # and 3 increments.
    path = tmp_path / "count_to_three.rgn"
    path.write_text(MAIN_HEADER + "  newrgn rho, h at heap in\n  let z = new 0 at h in\n"
                    "  (while (!(deref z == 3)) do z := deref z + 1;\n   free h)\n")
    argv = ["run", str(path), "--seed", "0", "--metatheory", "--snapshots", "--trace", "json"]
    assert main(argv) == 0
    report, verdict = capsys.readouterr().out.splitlines()
    steps = json.loads(report)["steps"]
    assert [s["rule"] for s in steps].count("E-OP") == 11
    assert steps[-3]["store"]["children"][0]["heap"] == {"loc1@#r1": "3"}
    assert verdict == "metatheory: 0 violations"


@pytest.mark.parametrize("source", [
    MAIN_HEADER + "  (1 + \u00b2; ())\n",   # a superscript two
    MAIN_HEADER + "  (\u0661; ())\n",       # an Arabic-Indic one, in a term
    MAIN_HEADER.replace("(1,0)", "(\u0661,0)", 1) + "  ()\n",  # and in an effect count
], ids=["superscript", "arabic-indic-term", "arabic-indic-count"])
def test_only_ascii_digits_are_numbers(source, tmp_path, capsys):
    path = tmp_path / "digits.rgn"
    path.write_text(source, encoding="utf-8")
    assert main(["check", str(path)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("parse error: SyntaxError") and out.count("\n") == 1
    assert "unexpected character" in out


def test_internal_error_exits_six_without_traceback(tmp_path, capsys):
    # Deep enough to exhaust Python's recursion limit in the checker.
    stmts = "; ".join(["share h; free h"] * 300)
    path = tmp_path / "flat.rgn"
    path.write_text("def main = /\\rhoH. \\heap: rgn(rhoH) @ "
                    "[{rhoH^(1,0)@_} -> {rhoH^(1,0)@_}].\n"
                    f"  newrgn rho, h at heap in ({stmts}; free h)\n")
    assert main(["check", str(path)]) == 6
    captured = capsys.readouterr()
    assert captured.err.startswith("internal error: RecursionError")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_deeply_parenthesised_main_checks_runs_and_explores(tmp_path):
    # The parser keeps its own stack, so nesting costs it no recursion, and
    # parentheses build no node for the checker to recurse over.
    path = tmp_path / "parentheses.rgn"
    path.write_text(MAIN_HEADER + "  " + "(" * 10_000 + "()" + ")" * 10_000 + "\n")
    for argv in (["check"], ["run", "--seed", "0"], ["explore"]):
        proc = subprocess.run([sys.executable, "-m", "reglock.cli", argv[0], str(path), *argv[1:]],
                              capture_output=True, text=True)
        assert proc.returncode == 0 and not proc.stderr, (argv, proc.stderr)


#: A number past Python's limit on converting an int to or from decimal text
#: (`sys.get_int_max_str_digits()`, 4,300 digits by default).
LONG_NUMBER = "1" + "0" * 4999


@pytest.mark.parametrize("source, loc", [
    (MAIN_HEADER + f"  let x = {LONG_NUMBER} in ()\n", "2:11"),
    (MAIN_HEADER.replace("(1,0)", f"({LONG_NUMBER},0)", 1) + "  ()\n", "1:47"),
], ids=["literal", "effect-count"])
def test_a_number_too_long_to_read_is_a_syntax_error(source, loc, tmp_path, capsys):
    path = tmp_path / "long_number.rgn"
    path.write_text(source)
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr().out == f"parse error: SyntaxError at {loc}: number too long\n"


def test_a_value_too_long_for_decimal_is_digested_and_printed(tmp_path, capsys):
    # Its digest and its printed form are in hex; `int<..>` is a run-time
    # form, which the lexer rejects.
    nines = "9" * 3000
    path = tmp_path / "long_value.rgn"
    path.write_text(MAIN_HEADER + "  newrgn rho, h at heap in\n"
                    f"  let r = new {nines} * {nines} at h in free h\n")
    assert main(["run", str(path), "--seed", "0", "--trace", "json", "--snapshots"]) == 0
    assert f'"int<{int(nines) ** 2:#x}>"' in capsys.readouterr().out
    assert main(["explore", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["terminals"]


def test_a_reader_that_closes_early_is_an_io_error():
    """A pipe whose reader has gone (`| head -1`) ends the run with exit 2
    and one line of stderr; the flush at exit writes nothing more."""
    proc = subprocess.Popen([sys.executable, "-m", "reglock.cli", "run", corpus("sharing.rgn"),
                             "--seed", "3", "--max-steps", "20000"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 2
    assert first.startswith(b"0 1 ")
    assert err.startswith("error: cannot write output: ") and err.count("\n") == 1
    assert "Broken pipe" in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no full device")
def test_a_full_device_is_an_io_error():
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "reglock.cli", "run",
                               corpus("sharing_once.rgn"), "--seed", "3"],
                              stdout=full, stderr=subprocess.PIPE, text=True)
    assert proc.returncode == 2 and proc.stderr.count("\n") == 1
    assert proc.stderr.startswith("error: cannot write output: ")


def test_max_states_stops_a_looping_explore(capsys):
    """`migration`'s server loop grows the search until `--max-steps`; a
    bound on expanded states ends it within seconds with exit 5, and the
    report gives the states seen and the frontier left."""
    argv = ["explore", corpus("migration.rgn"), "--force-threads", "--max-states", "500"]
    proc = subprocess.run([sys.executable, "-m", "reglock.cli", *argv, "--json"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 5, proc.stderr
    report = json.loads(proc.stdout)
    frontier = report["max_states"]["frontier"]
    assert report["states"] == 500 and frontier > 0 and not report["stuck"]
    assert report["max_states"] == {"seen": 500 + frontier, "frontier": frontier}
    assert main(argv) == 5
    assert capsys.readouterr().out.splitlines()[-1] == (
        f"max states 500: seen {500 + frontier}, frontier {frontier}")


def test_max_states_that_leaves_no_frontier_changes_nothing(capsys):
    # deadlock_racy has 222 states: a bound of 222 stops nothing.
    outs = []
    for bound in ([], ["--max-states", "222"], ["--max-states", "100000"]):
        assert main(["explore", corpus("deadlock_racy.rgn"), "--json", *bound]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] == outs[2] and json.loads(outs[0])["states"] == 222


@pytest.mark.parametrize("flag", ["--max-steps", "--max-states"])
def test_a_negative_bound_is_a_usage_error(flag, capsys):
    assert main(["explore", corpus("basic_region.rgn"), flag, "-1"]) == 2
    assert capsys.readouterr().err == f"error: {flag} must be at least 0, got -1\n"


def test_one_grammar_serves_every_command_alike(capsys):
    """Commands issued one after another in one process print and exit as
    each does alone in a fresh process: no flag of one reaches the next."""
    program = corpus("sharing_once.rgn")
    commands = [["frobnicate", program], ["run", program, "--max-steps", "-1"],
                ["run", program, "--seed", "3", "--metatheory"],
                ["run", program, "--seed", "3"], ["check", program, "--json"],
                ["explore", program, "--json"]]
    for argv in commands:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        alone = subprocess.run([sys.executable, "-m", "reglock.cli", *argv],
                               capture_output=True, text=True)
        assert (code, capsys.readouterr().out) == (alone.returncode, alone.stdout), argv


def test_the_grammar_is_built_once_per_process(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli.build_parser.cache_clear()
    for _ in range(5):
        assert main(["check", corpus("basic_region.rgn"), "--json"]) == 0
        assert main(["run", corpus("basic_region.rgn"), "--seed", "1"]) == 0
    capsys.readouterr()
    assert built.count("reglock") == 1 and len(built) == 4  # and one per subcommand


#: Tokens a mutant may gain: every keyword and punctuation mark, and names
#: and numbers the corpus uses.
INSERTED = sorted(KEYWORDS) + _PUNCT + ["h", "heap", "rhoH", "main", "0", "1", "2"]


@st.composite
def mutants(draw) -> str:
    """A corpus program with one token deleted, doubled or inserted."""
    path = draw(st.sampled_from(sorted(CORPUS.glob("*.rgn"))))
    source = path.read_text()
    tokens = lex(source)
    _, text, offset = tokens[draw(st.integers(0, len(tokens) - 1))]
    edit = draw(st.sampled_from(["delete", "double", "insert"]))
    if edit == "delete":
        return source[:offset] + source[offset + len(text):]
    new = text if edit == "double" else draw(st.sampled_from(INSERTED))
    return f"{source[:offset]}{new} {source[offset:]}"


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(source=mutants())
def test_broken_programs_get_a_verdict_not_an_internal_error(source, tmp_path, capsys):
    path = tmp_path / "mutant.rgn"
    path.write_text(source)
    for argv in (["check", "--json"], ["run", "--seed", "1", "--max-steps", "300"],
                 ["explore", "--json", "--max-steps", "60"]):
        code = main([argv[0], str(path), *argv[1:]])
        err = capsys.readouterr().err
        assert code in range(6) and "internal error" not in err, (argv, err)
