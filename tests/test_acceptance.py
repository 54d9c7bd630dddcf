"""Acceptance suite: one test per exit criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they pass.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

import test_effects
import test_store
from reglock.interp import explore, run_seeded
from reglock.meta import Harness
from reglock.parser import parse_program
from reglock.typecheck import check_program, link_bodies
from conftest import CORPUS, RUNNABLE, WELL_TYPED, corpus_text


def _typed(name: str):
    result = check_program(parse_program(corpus_text(name)))
    assert result.ok, f"{name}: {[d.render() for d in result.diagnostics]}"
    return result.typed


def _emit_lines(name: str) -> dict[str, str]:
    typed = _typed(name)
    out = {}
    for def_name, lines in typed.effect_lines.items():
        for line, eff in lines.items():
            out[f"{def_name}:{line}"] = eff.margin()
    return out


def report(n: int, text: str) -> None:
    print(f"ACCEPT-{n} PASS: {text}")


#: The per-line effect annotations carried by the worked examples, in the
#: artifact's display syntax (ambient heap entry omitted, counts unbarred).
MARGIN_EXPECTATIONS = {
    "basic_region.rgn": {
        "main:5": "{rho^(1,1)@rhoH}",   # right after region creation
        "main:8": "{}",                  # after free: no longer alive
    },
    "hierarchy.rgn": {
        "main:4": "{rho1^(1,1)@rhoH}",
        "main:5": "{rho1^(1,1)@rhoH, rho2^(1,1)@rho1}",
        "main:6": "{rho1^(1,1)@rhoH, rho2^(1,1)@rho1, rho3^(1,1)@rho2}",
        "main:7": "{rho1^(1,1)@rhoH, rho2^(1,1)@rho1, rho3^(1,1)@rho2, rho4^(1,1)@rho2}",
    },
    "bulk_free.rgn": {
        "main:9": "{rho1^(1,1)@rhoH}",   # free h2 collapses the subtree
    },
    "sharing.rgn": {
        "serve:15": "{rho^(1,1)@rhoH}",
        "serve:17": "{rho^(2,0)@rhoH}",  # share h; unlock h
        "serve:19": "{rho^(1,0)@rhoH}",  # spawn consumes half
        "serve:21": "{rho^(1,1)@rhoH}",  # lock
        "serve:23": "{rho^(1,0)@rhoH}",  # unlock
    },
    "migration.rgn": {
        "serve:13": "{rho^(1,1)@rhoH}",
        "serve:17": "{}",                # whole region migrated away
    },
    "alias_swap_locked.rgn": {
        "main:15": "{rho^(2,0)@rhoH}",   # share h; unlock h
        "main:16": "{rho^(2,2)@rhoH}",   # lock h; lock h
        "main:17": "{rho^(2,2)@rhoH}",   # swap[rho][rho](a, b) preserves
        "main:18": "{rho^(2,0)@rhoH}",   # unlock h; unlock h (restored whole)
    },
    "alias_swap_reentrant.rgn": {
        "main:20": "{rho^(2,0)@rhoH}",   # share h; unlock h
        "main:21": "{rho^(2,0)@rhoH}",   # swap[rho][rho](h, h, a, b)
    },
}


def test_criterion_1_corpus_fidelity():
    """Examples transcribed to .rgn all typecheck and reproduce the
    per-line effect annotations exactly, in under a second."""
    start = time.monotonic()
    for name in WELL_TYPED:
        result = check_program(parse_program(corpus_text(name)))
        assert result.ok, f"{name} rejected: {[d.render() for d in result.diagnostics]}"
    for name, expected in MARGIN_EXPECTATIONS.items():
        emitted = _emit_lines(name)
        for key, want in expected.items():
            assert emitted.get(key) == want, \
                f"{name} {key}: emitted {emitted.get(key)!r}, margin says {want!r}"
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"corpus check took {elapsed:.2f}s"
    report(1, f"{len(WELL_TYPED)} programs typecheck, "
              f"{sum(map(len, MARGIN_EXPECTATIONS.values()))} margin effects "
              f"reproduced exactly in {elapsed * 1000:.0f} ms")


def test_criterion_2_rejection_and_aliasing():
    """The divided-lock escape is rejected (ImpureLockEscape at the spawn
    site); the aliased swap call is accepted."""
    result = check_program(parse_program(corpus_text("impure_escape.rgn")))
    assert not result.ok
    [diag] = result.diagnostics
    assert diag.code == "ImpureLockEscape"
    assert diag.loc is not None and diag.loc.line == 11  # the spawn line
    assert check_program(parse_program(corpus_text("alias_swap_locked.rgn"))).ok
    assert check_program(parse_program(corpus_text("alias_swap_reentrant.rgn"))).ok
    report(2, "divided-lock spawn rejected with ImpureLockEscape at the spawn "
              "site; aliased swap accepted")


def test_criterion_3_empirical_progress():
    """Exhaustive interleaving exploration of the runnable corpus within the
    step bound finds no stuck state."""
    total_states = 0
    for name in RUNNABLE:
        start = time.monotonic()
        main = _typed(name).linked_main()
        result = explore(main, max_steps=2_000, force=True)
        elapsed = time.monotonic() - start
        assert not result.stuck_reports, f"{name}: {result.stuck_reports}"
        assert result.budget_hits == 0, f"{name} hit the step bound"
        assert elapsed < 60, f"{name} exploration took {elapsed:.1f}s"
        total_states += result.states
    report(3, f"{len(RUNNABLE)} programs explored exhaustively "
              f"({total_states} states), zero stuck states")


def test_criterion_4_empirical_preservation():
    """100 seeds x runnable corpus under the metatheory harness: zero
    violations of thread typing, store typing and store consistency."""
    runs = 0
    for name in RUNNABLE:
        typed = _typed(name)
        main = typed.linked_main()
        for seed in range(100):
            harness = Harness(typed)
            trace = run_seeded(main, seed=seed, harness=harness)
            assert trace.terminal.kind in ("all_done", "deadlock"), \
                f"{name} seed {seed}: {trace.terminal}"
            runs += 1
    report(4, f"{runs} metatheory-checked runs, zero violations")


def test_criterion_5_dynamic_race_rejection():
    """With typechecking bypassed, the unlocked-access program gets stuck
    with an accessibility fault on every interleaving."""
    program = parse_program(corpus_text("race_unlocked.rgn"))
    assert not check_program(program).ok  # it is ill-typed
    main = link_bodies(program)  # test-only bypass
    result = explore(main, max_steps=2_000)
    assert set(result.terminals) == {"stuck"}
    assert result.stuck_reports
    assert all(r["fault"] == "Inaccessible" for r in result.stuck_reports)
    report(5, f"every interleaving ({result.states} states) ends "
              f"Stuck(Inaccessible)")


PROPERTY_SUITES = [
    test_effects.test_cap_split_conservation,
    test_effects.test_split_join_round_trip,
    test_effects.test_bulk_removal_completeness,
    test_store.test_transfer_conserves_per_region_totals,
    test_store.test_mutual_exclusion_preserved_by_random_ops,
    test_store.test_subtree_removal_completeness,
]


def test_criterion_6_property_suites():
    """Each randomized suite runs at least 1,000 cases and passes."""
    for fn in PROPERTY_SUITES:
        settings = fn._hypothesis_internal_use_settings
        assert settings.max_examples >= 1000, fn.__name__
        fn()  # executes the full hypothesis suite
    report(6, f"{len(PROPERTY_SUITES)} property suites x >=1000 cases")


def test_criterion_7_deadlock_detection():
    """The crossing-locks fixture reports a two-thread cycle under every
    seed, well inside the watchdog."""
    program = parse_program(corpus_text("deadlock_forced.rgn"))
    main = link_bodies(program)
    deadline = time.monotonic() + 5.0
    seeds = list(range(25)) + [10**6 + 7, 2**31 - 1, 987654321]
    for seed in seeds:
        trace = run_seeded(main, seed=seed)
        assert trace.terminal.kind == "deadlock", f"seed {seed}: {trace.terminal}"
        assert sorted(trace.terminal.detail["cycle"]) == [2, 3], f"seed {seed}"
        assert time.monotonic() < deadline, "watchdog exceeded"
    report(7, f"{len(seeds)} seeds all end in the 2-cycle [2, 3]")


def test_criterion_8_determinism():
    """Two runs with identical file and seed produce byte-identical traces."""
    for name in ("sharing_once.rgn", "deadlock_racy.rgn"):
        cmd = [sys.executable, "-m", "reglock.cli", "run", str(CORPUS / name),
               "--seed", "314159", "--trace", "json", "--snapshots"]
        first = subprocess.run(cmd, capture_output=True).stdout
        second = subprocess.run(cmd, capture_output=True).stdout
        assert first == second and first, name
    report(8, "byte-identical traces for identical (file, seed)")
