"""Command-line front end.

    reglock check FILE [--emit-effects] [--json]
    reglock run FILE --seed N [--max-steps N] [--metatheory]
                [--trace text|json] [--snapshots] [--unchecked]
    reglock explore FILE [--max-steps N] [--max-states N] [--force-threads] [--json]

`--metatheory` re-types a checked program, so `run --unchecked --metatheory`
is a usage error.  A JSON trace gives each step's state digest, and
`--snapshots` adds its store, so it needs `--trace json`; a text trace ends
with one digest of the steps, the terminal and the final state.
`explore --json` reports a refusal as {"refused": MESSAGE}.  An explore
that `--max-states` stops also gives the states seen and the frontier left.
A program that does not parse or is rejected prints the diagnostics payload
of `check --json`, {"ok": false, "diagnostics": [...]}, under `check --json`,
`run --trace json` and `explore --json`, and text otherwise.

Exit codes: 0 success, 1 rejected by the checker, 2 usage or I/O error,
3 deadlock detected, 4 stuck state or metatheory violation (a soundness
fault), 5 exploration budget exceeded or refused, 6 internal error (a fault
in reglock itself, reported on one line of stderr).  An output that cannot
be written (a reader that closes the pipe early, a full device) is an I/O
error: exit 2 with one line of stderr, and nothing more is written.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Optional

from .interp import ExploreRefusal, Trace, explore, run_seeded, step_record
from .meta import Harness
from .parser import ParseError, parse_program
from .typecheck import CheckFailure, check_program, link_bodies

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_USAGE = 2
EXIT_DEADLOCK = 3
EXIT_UNSOUND = 4
EXIT_BUDGET = 5
EXIT_INTERNAL = 6


def _load(path: str, unchecked: bool = False, as_json: bool = False):
    """Read and parse a program, then check it, or with `unchecked` only link it.

    Returns (TypedProgram, EXIT_OK), or (linked main expression, EXIT_OK)
    when unchecked; on failure prints the error and returns (None, code).
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None, EXIT_USAGE
    except UnicodeDecodeError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return None, EXIT_USAGE
    try:
        program = parse_program(text)
    except ParseError as exc:
        diagnostic = {"code": exc.code, "message": exc.message,
                      "loc": str(exc.loc) if exc.loc else None}
        return _rejected(as_json, [diagnostic], [f"parse error: {exc}"])
    if unchecked:
        try:
            return link_bodies(program), EXIT_OK
        except CheckFailure as exc:
            return _rejected(as_json, [exc.diagnostic.to_json()], [exc.diagnostic.render()])
    result = check_program(program)
    if not result.ok:
        return _rejected(as_json, [d.to_json() for d in result.diagnostics],
                         [d.render() for d in result.diagnostics])
    return result.typed, EXIT_OK


def _rejected(as_json: bool, diagnostics: list[dict], lines: list[str]) -> tuple[None, int]:
    print(json.dumps({"ok": False, "diagnostics": diagnostics}) if as_json else "\n".join(lines))
    return None, EXIT_REJECTED


def cmd_check(args) -> int:
    typed, code = _load(args.file, as_json=args.json)
    if typed is None:
        return code
    if args.json:
        payload = {
            "ok": True,
            "defs": {name: str(t) for name, t in typed.def_types.items()},
        }
        if args.emit_effects:
            payload["effects"] = {
                name: {str(line): eff.margin() for line, eff in sorted(lines.items())}
                for name, lines in typed.effect_lines.items()
            }
        print(json.dumps(payload))
        return EXIT_OK
    for d in typed.program.defs:
        print(f"ok {d.name} : {typed.def_types[d.name]}")
    if args.emit_effects:
        for d in typed.program.defs:
            for line, eff in sorted(typed.effect_lines.get(d.name, {}).items()):
                print(f"{d.name}:{line}: {eff.margin()}")
    return EXIT_OK


def _print_trace(trace: Trace, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps({
            "seed": trace.seed,
            "steps": [{"step": s.index, "thread": s.tid, "rule": s.rule, **s.record}
                      for s in trace.steps],
            "terminal": {"kind": trace.terminal.kind, **trace.terminal.detail},
            "trace_digest": trace.json_digest(),
        }, default=str))
        return
    for s in trace.steps:
        print(f"{s.index} {s.tid} {s.rule}")
    detail = json.dumps(trace.terminal.detail, sort_keys=True, default=str)
    print(f"terminal {trace.terminal.kind} {detail}")
    print(f"trace {trace.digest()}")


def cmd_run(args) -> int:
    seed = args.seed
    if seed is None:
        env = os.environ.get("REGLOCK_SEED")
        if env is None:
            print("error: --seed is required (or set REGLOCK_SEED)", file=sys.stderr)
            return EXIT_USAGE
        try:
            seed = int(env)
        except ValueError:
            print(f"error: REGLOCK_SEED must be an integer, got {env!r}", file=sys.stderr)
            return EXIT_USAGE

    if args.unchecked and args.metatheory:
        print("error: --metatheory needs a checked program; it cannot be combined "
              "with --unchecked", file=sys.stderr)
        return EXIT_USAGE
    if args.snapshots and args.trace != "json":
        print("error: --snapshots adds store snapshots to a JSON trace; it needs "
              "--trace json", file=sys.stderr)
        return EXIT_USAGE

    loaded, code = _load(args.file, unchecked=args.unchecked, as_json=args.trace == "json")
    if loaded is None:
        return code
    if args.unchecked:
        main_expr, harness = loaded, None
    else:
        main_expr = loaded.linked_main()
        harness = Harness(loaded) if args.metatheory else None

    record = (lambda c: step_record(c, args.snapshots)) if args.trace == "json" else None
    trace = run_seeded(main_expr, seed, args.max_steps, harness, record)
    _print_trace(trace, args.trace)
    kind = trace.terminal.kind
    if kind == "all_done":
        if harness is not None:
            print("metatheory: 0 violations")
        return EXIT_OK
    if kind == "deadlock":
        return EXIT_DEADLOCK
    if kind in ("stuck", "violation"):
        return EXIT_UNSOUND
    return EXIT_BUDGET


def cmd_explore(args) -> int:
    typed, code = _load(args.file, as_json=args.json)
    if typed is None:
        return code
    main_expr = typed.linked_main()
    try:
        report = explore(main_expr, max_steps=args.max_steps, force=args.force_threads,
                         max_states=args.max_states)
    except ExploreRefusal as exc:
        print(json.dumps({"refused": str(exc)}) if args.json else f"refused: {exc}")
        return EXIT_BUDGET
    payload = {
        "states": report.states,
        "terminals": dict(sorted(report.terminals.items())),
        "stuck": report.stuck_reports,
        "deadlock_cycles": report.deadlock_cycles,
        "budget_hits": report.budget_hits,
    }
    if report.frontier is not None:
        payload["max_states"] = {"seen": report.states + report.frontier,
                                 "frontier": report.frontier}
    if args.json:
        print(json.dumps(payload))
    else:
        print(f"states {report.states}")
        for kind, count in sorted(report.terminals.items()):
            print(f"terminal {kind} {count}")
        if report.deadlock_cycles:
            print(f"deadlock cycles {report.deadlock_cycles}")
        for s in report.stuck_reports:
            print(f"stuck {json.dumps(s, sort_keys=True)}")
        print(f"budget hits {report.budget_hits}")
        if report.frontier is not None:
            print(f"max states {args.max_states}: seen {report.states + report.frontier}, "
                  f"frontier {report.frontier}")
    if report.stuck_reports:
        return EXIT_UNSOUND
    if report.budget_hits or report.frontier is not None:
        return EXIT_BUDGET
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line grammar, built once per process: `parse_args` reads
    it and changes nothing in it."""
    ap = argparse.ArgumentParser(prog="reglock", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="typecheck a program")
    p_check.add_argument("file")
    p_check.add_argument("--emit-effects", action="store_true",
                         help="print the effect after each checked source line")
    p_check.add_argument("--json", action="store_true")
    p_check.set_defaults(fn=cmd_check)

    p_run = sub.add_parser("run", help="run under a seeded random scheduler")
    p_run.add_argument("file")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--max-steps", type=int, default=10_000)
    p_run.add_argument("--metatheory", action="store_true",
                       help="validate typing and store invariants after every step")
    p_run.add_argument("--trace", choices=("text", "json"), default="text")
    p_run.add_argument("--snapshots", action="store_true",
                       help="embed store snapshots in the trace (needs --trace json)")
    p_run.add_argument("--unchecked", action="store_true",
                       help="skip the typechecker (testing hook; runs may fault)")
    p_run.set_defaults(fn=cmd_run)

    p_exp = sub.add_parser("explore", help="enumerate all interleavings")
    p_exp.add_argument("file")
    p_exp.add_argument("--max-steps", type=int, default=2_000)
    p_exp.add_argument("--max-states", type=int, default=None,
                       help="stop once this many states are expanded (exit 5)")
    p_exp.add_argument("--force-threads", action="store_true",
                       help="explore even with more than 3 live threads")
    p_exp.add_argument("--json", action="store_true")
    p_exp.set_defaults(fn=cmd_explore)
    return ap


def _discard_stdout() -> None:
    """Point the stdout file descriptor at the null device, when there is one."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):  # replaced by an in-memory stream
        return
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    for flag in ("max_steps", "max_states"):
        if (getattr(args, flag, None) or 0) < 0:
            print(f"error: --{flag.replace('_', '-')} must be at least 0, "
                  f"got {getattr(args, flag)}", file=sys.stderr)
            return EXIT_USAGE
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a write error surfaces here, not at exit
        return code
    except OSError as exc:
        # The output could not be written: a reader that closed its end
        # (EPIPE) or a full device.  Output goes to the null device from
        # here, so the flush at exit writes nothing and fails nowhere.
        _discard_stdout()
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        # Last resort: a fault in reglock itself must not pass for a verdict
        # on the program, and must not print a traceback.
        print(f"internal error: {type(exc).__name__}: {' '.join(str(exc).split())}",
              file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
