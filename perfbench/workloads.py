"""The benchmark's workloads: the `reglock` commands each one issues, the
programs it generates, and the answer every command must give.

The answers are worked out from the structure of the programs (the corpus's
documented verdicts, the rules a generated program must take, the increments
it writes), never from output the program under test produced earlier.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


class Wrong(Exception):
    """A command's output disagrees with the known answer."""


@dataclass
class Op:
    """One timed `reglock` command and the check of its output.

    `verify(rc, out)` raises Wrong on a bad answer and returns the number of
    steps the command took (0 for `check` and `explore`).
    """

    kind: str  # "setup" (a fresh process) | "check" | "run" | "meta" | "explore"
    argv: list[str]
    verify: Callable[[int, str], int]
    repeat: int = 1  # times issued per round


@dataclass
class Workload:
    ops: list[Op]
    # Untimed checks made once per run: (description, check raising Wrong).
    extra: list[tuple[str, Callable[[], None]]]


# ---------------------------------------------------------------------------
# Known answers for the corpus
# ---------------------------------------------------------------------------

#: Rejected corpus files: (diagnostic code, source line), as each file's
#: header comment describes the fault.
CORPUS_REJECTED = {
    # The spawn inside `bad` lets half of a divided lock escape.
    "impure_escape": ("ImpureLockEscape", 11),
    # The reader dereferences a region it holds no lock on.
    "race_unlocked": ("InaccessibleRegion", 6),
    # The first spawn's annotation hands out a lock the static side lacks.
    "deadlock_forced": ("InsufficientCapability", 19),
}
#: Server loops that never terminate: checked, never run.
CORPUS_LOOPING = {"migration", "sharing"}
#: deadlock_racy's main thread (tid 1) and the `grab` worker it spawns
#: (tid 2) take the same two locks in opposite orders.
RACY_CYCLE = [1, 2]
#: The rejected fixtures run with --unchecked: every schedule deadlocks on
#: the two crossing workers (tids 2 and 3), or gets stuck at the first
#: unlocked access.
UNCHECKED = {
    "deadlock_forced": ("deadlock", [2, 3]),
    "race_unlocked": ("stuck", "Inaccessible"),
}


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

MAIN_SIG = ("/\\rhoH. \\heap: rgn(rhoH) @ [{rhoH^(1,0)@_} -> {rhoH^(1,0)@_}].")


def long_seq(n: int, handle: str = "h") -> str:
    """One thread: a region shared and freed n times, then freed."""
    pairs = "; ".join([f"(share {handle}; free {handle})"] * n)
    return (f"def main = {MAIN_SIG}\n"
            f"  newrgn rho, {handle} at heap in\n"
            f"  ({pairs};\n   free {handle})\n")


def long_seq_steps(n: int) -> int:
    """Steps of a long_seq run, from the rules its term must take.

    E-RP and E-A enter main, E-NG makes the region; each `share h; free h`
    pair is two E-C and two E-SEQ; the last `free h` is E-C and the thread
    ends with E-T.
    """
    return 4 * n + 5


def lock_tree(depth: int, k: int, init: list[int]) -> str:
    """Three threads on the region chain heap > r1 > ... > r<depth>.

    Counter c<i> lives in r<i> and starts at init[i-1]. Worker `wa` locks r1,
    the ancestor, and increments every counter k times; worker `wb` locks
    r<depth>, the deepest region, and increments its counter k times. The
    main thread allocates the tree, hands both workers a share of every
    region and frees its own.
    """
    rs = [f"r{i}" for i in range(1, depth + 1)]
    hs = [f"h{i}" for i in range(1, depth + 1)]
    cs = [f"c{i}" for i in range(1, depth + 1)]
    chain = ["rhoH^~(1,0)@_"] + [f"{r}^~(1,0)@{p}" for r, p in zip(rs, ["rhoH"] + rs)]
    sig = ("/\\rhoH. " + " ".join(f"/\\{r}." for r in rs)
           + " \\(hh: rgn(rhoH), "
           + ", ".join(f"{h}: rgn({r})" for h, r in zip(hs, rs)) + ", "
           + ", ".join(f"{c}: ref(int, {r})" for c, r in zip(cs, rs))
           + ")\n    @ [{" + ", ".join(chain) + "} -> {}].")
    frees = "; ".join(f"free {h}" for h in reversed(hs))
    incs = "; ".join(f"{c} := deref {c} + 1" for c in cs)
    body_a = "; ".join([f"lock {hs[0]}; {incs}; unlock {hs[0]}"] * k)
    body_b = "; ".join([f"lock {hs[-1]}; {cs[-1]} := deref {cs[-1]} + 1; "
                        f"unlock {hs[-1]}"] * k)
    args = "heap, " + ", ".join(hs) + ", " + ", ".join(cs)
    tyargs = "[rhoH]" + "".join(f"[{r}]" for r in rs)
    work = ["def work = /\\rhoH. \\heap: rgn(rhoH) @ "
            "[{rhoH^~(1,0)@_} -> {rhoH^~(1,0)@_}]."]
    for r, h, parent in zip(rs, hs, ["heap"] + hs):
        work.append(f"  newrgn {r}, {h} at {parent} in")
    for c, h, v in zip(cs, hs, init):
        work.append(f"  let {c} = new {v} at {h} in")
    work.append("  (" + "; ".join(f"unlock {h}" for h in reversed(hs)) + ";\n   "
                + "; ".join(f"share {h}; share {h}" for h in hs)
                + "; share heap; share heap;\n"
                f"   spawn wa{tyargs}({args});\n"
                f"   spawn wb{tyargs}({args});\n"
                f"   {frees})")
    return "\n".join([
        f"def wa = {sig}\n  ({body_a};\n   {frees}; free hh)\n",
        f"def wb = {sig}\n  ({body_b};\n   {frees}; free hh)\n",
        "\n".join(work) + "\n",
        f"def main = {MAIN_SIG}\n  work[rhoH](heap)\n",
    ])


def lock_tree_finals(depth: int, k: int, init: list[int]) -> list[int]:
    """Final counter values: `wa` adds k to each, `wb` k more to the deepest."""
    return [v + k + (k if i == depth - 1 else 0) for i, v in enumerate(init)]


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

_EXIT = {"all_done": 0, "deadlock": 3, "stuck": 4}


def verify_check(expected):
    """expected: None when the program is accepted, else (code, line)."""
    def verify(rc: int, out: str) -> int:
        payload = json.loads(out)
        if expected is None:
            if rc != 0 or payload.get("ok") is not True:
                raise Wrong(f"expected acceptance, got exit {rc}: {out[:200]}")
            return 0
        code, line = expected
        diags = payload.get("diagnostics") or [{}]
        got = (diags[0].get("code"), str(diags[0].get("loc", "")).split(":")[0])
        if rc != 1 or payload.get("ok") is not False or got != (code, str(line)):
            raise Wrong(f"expected {code} on line {line}, got exit {rc}, {got}")
        return 0
    return verify


def parse_run(out: str) -> tuple[int, str, dict, bool]:
    """(steps, terminal kind, terminal detail, metatheory line seen)."""
    lines = out.splitlines()
    steps = 0
    for i, line in enumerate(lines):
        if line.startswith("terminal "):
            _, kind, detail = line.split(" ", 2)
            return steps, kind, json.loads(detail), "metatheory: 0 violations" in lines[i:]
        if line.split(" ")[0] != str(steps):
            raise Wrong(f"step line {steps} out of order: {line!r}")
        steps += 1
    raise Wrong("run printed no terminal line")


def verify_run(allowed: dict, reached: set, steps: int = None, meta: bool = False):
    """allowed: terminal kind -> expected cycle (deadlock), fault (stuck) or
    None. Every kind seen is added to `reached`."""
    def verify(rc: int, out: str) -> int:
        n, kind, detail, meta_ok = parse_run(out)
        if kind not in allowed or rc != _EXIT[kind]:
            raise Wrong(f"terminal {kind} with exit {rc}, allowed {sorted(allowed)}")
        want = allowed[kind]
        if kind == "deadlock" and sorted(detail.get("cycle", [])) != want:
            raise Wrong(f"deadlock cycle {detail.get('cycle')}, expected {want}")
        if kind == "stuck" and detail.get("fault") != want:
            raise Wrong(f"stuck on {detail.get('fault')}, expected {want}")
        if steps is not None and n != steps:
            raise Wrong(f"{n} steps, expected {steps}")
        if meta and kind == "all_done" and not meta_ok:
            raise Wrong("metatheory run did not report 0 violations")
        reached.add(kind)
        return n
    return verify


def verify_explore(terminals: set, cycles: list, states, reached: set):
    """states: the exact state count, or None when it is not known."""
    def verify(rc: int, out: str) -> int:
        r = json.loads(out)
        if rc != 0 or r["stuck"] or r["budget_hits"]:
            raise Wrong(f"explore exit {rc}, stuck {r['stuck']}, budget {r['budget_hits']}")
        if set(r["terminals"]) != terminals:
            raise Wrong(f"explore terminals {sorted(r['terminals'])}, expected {sorted(terminals)}")
        if sorted(sorted(c) for c in r["deadlock_cycles"]) != cycles:
            raise Wrong(f"deadlock cycles {r['deadlock_cycles']}, expected {cycles}")
        if states is not None and r["states"] != states:
            raise Wrong(f"{r['states']} states, expected {states}")
        if not reached <= set(r["terminals"]):
            raise Wrong(f"runs reached {sorted(reached)}, explore only {sorted(r['terminals'])}")
        return 0
    return verify


def final_counters(out: str) -> dict[int, int]:
    """Last value of every location seen in a --trace json --snapshots run."""
    values: dict[int, int] = {}

    def walk(node):
        for loc, v in node["heap"].items():
            values[int(re.match(r"loc(\d+)@", loc).group(1))] = int(v)
        for child in node["children"]:
            walk(child)

    for step in json.loads(out)["steps"]:
        if step.get("store"):
            walk(step["store"])
    return values


# ---------------------------------------------------------------------------
# Workload construction
# ---------------------------------------------------------------------------

LONG_SEQ_N = (30, 60, 120)        # run, explore and check
LONG_SEQ_META_N = (30, 60)        # the harness is ~3x slower per step
LOCK_TREES = ((2, 1), (4, 2))     # (depth, k) for check, run and the harness
LOCK_TREE_EXPLORE = (2, 1)        # 1.8k states; deeper trees take seconds
CORPUS_RUN_SEEDS = 2
LOCK_TREE_RUN_SEEDS = 3
#: A check takes milliseconds, and its samples spread the most; issuing it
#: several times a round steadies check_ms for little time.
CHECK_REPEAT = 4


def _ops_for(path: str, seeds: list[int], meta_seeds: list[int], allowed: dict,
             steps=None, explore=None) -> list[Op]:
    """run, run --metatheory and explore of one program; `explore` is
    (terminals, cycles, states) or None to skip it."""
    reached: set = set()
    ops = [Op("run", ["run", path, "--seed", str(s)],
              verify_run(allowed, reached, steps)) for s in seeds]
    ops += [Op("meta", ["run", path, "--seed", str(s), "--metatheory"],
               verify_run(allowed, reached, steps, meta=True)) for s in meta_seeds]
    if explore is not None:
        ops.append(Op("explore", ["explore", "--json", "--force-threads", path],
                      verify_explore(*explore, reached)))
    return ops


def _setup_op(gen_dir: Path) -> Op:
    """A fresh process checking a one-line program: the fixed cost of a
    `reglock` invocation."""
    path = gen_dir / "setup.rgn"
    path.write_text(long_seq(1))
    return Op("setup", ["check", "--json", str(path)], verify_check(None))


def _seeds_per_kind(probe, path: str, rng: random.Random, kinds) -> list[int]:
    """One schedule seed for each terminal kind, from the seeded stream.

    deadlock_racy completes under some schedules and deadlocks under the
    rest, and a deadlocked run costs a third less per step. Taking one seed
    of each keeps that mix, and so the step rates, the same for every
    benchmark seed. Found by untimed runs; a kind that never turns up is
    left out, and the explore check then reports it.
    """
    found: dict[str, int] = {}
    for _ in range(64):
        seed = rng.randrange(10**6)
        try:
            found.setdefault(parse_run(probe(["run", path, "--seed", str(seed)])[1])[1], seed)
        except (Wrong, ValueError):  # unreadable output: the other checks report it
            continue
        if set(kinds) <= set(found):
            break
    return [found[k] for k in kinds if k in found]


def corpus(root: Path, rng: random.Random, gen_dir: Path, probe) -> Workload:
    files = sorted((root / "corpus").glob("*.rgn"))
    ops = [_setup_op(gen_dir)]
    for f in files:
        ops.append(Op("check", ["check", "--json", str(f)],
                      verify_check(CORPUS_REJECTED.get(f.stem)), CHECK_REPEAT))
    for f in files:
        if f.stem in UNCHECKED:
            kind, want = UNCHECKED[f.stem]
            reached: set = set()
            ops += [Op("run", ["run", str(f), "--seed", str(rng.randrange(10**6)),
                                       "--unchecked"], verify_run({kind: want}, reached))
                    for _ in range(CORPUS_RUN_SEEDS)]
        elif f.stem not in CORPUS_REJECTED and f.stem not in CORPUS_LOOPING:
            if f.stem == "deadlock_racy":
                allowed = {"all_done": None, "deadlock": RACY_CYCLE}
                seeds = _seeds_per_kind(probe, str(f), rng, sorted(allowed))
                explore = (set(allowed), [RACY_CYCLE], None)
            else:
                allowed = {"all_done": None}
                seeds = [rng.randrange(10**6) for _ in range(CORPUS_RUN_SEEDS)]
                explore = ({"all_done"}, [], None)
            ops += _ops_for(str(f), seeds, seeds, allowed, explore=explore)
    return Workload(ops, [])


def long_seq_workload(root: Path, rng: random.Random, gen_dir: Path, probe) -> Workload:
    # The seed picks the handle's name and the schedule seeds; a single
    # thread makes every schedule the same, so the work does not change.
    handle = "h" + "".join(rng.choice("abcdefghjk") for _ in range(3))
    ops = [_setup_op(gen_dir)]
    for n in LONG_SEQ_N:
        path = gen_dir / f"long_seq_{n}.rgn"
        path.write_text(long_seq(n, handle))
        ops.append(Op("check", ["check", "--json", str(path)], verify_check(None),
                      CHECK_REPEAT))
        seed = rng.randrange(10**6)
        ops += _ops_for(str(path), [seed],
                        [seed] if n in LONG_SEQ_META_N else [],
                        {"all_done": None}, steps=long_seq_steps(n),
                        explore=({"all_done"}, [], long_seq_steps(n) + 1))
    return Workload(ops, [])


def lock_tree_workload(root: Path, rng: random.Random, gen_dir: Path, probe) -> Workload:
    ops = [_setup_op(gen_dir)]
    extra = []
    for depth, k in LOCK_TREES:
        init = [rng.randrange(100) for _ in range(depth)]
        path = gen_dir / f"lock_tree_d{depth}_k{k}.rgn"
        path.write_text(lock_tree(depth, k, init))
        ops.append(Op("check", ["check", "--json", str(path)], verify_check(None),
                      CHECK_REPEAT))
        seeds = [rng.randrange(10**6) for _ in range(LOCK_TREE_RUN_SEEDS)]
        # Locks are taken in tree order, so no schedule can deadlock.
        explore = ({"all_done"}, [], None) if (depth, k) == LOCK_TREE_EXPLORE else None
        ops += _ops_for(str(path), seeds, seeds[:1], {"all_done": None},
                        explore=explore)
        extra.append((f"{path.stem} counters", _counter_check(
            probe, path, seeds[0], lock_tree_finals(depth, k, init))))
    return Workload(ops, extra)


def _counter_check(probe, path: Path, seed: int, finals: list[int]):
    """Race freedom: every counter ends at its start plus the increments."""
    def check() -> None:
        rc, out = probe(["run", str(path), "--seed", str(seed), "--trace", "json",
                          "--snapshots"])
        got = final_counters(out)
        want = {i + 1: v for i, v in enumerate(finals)}
        if rc != 0 or got != want:
            raise Wrong(f"counters {got}, expected {want} (exit {rc})")
    return check


WORKLOADS = {"corpus": corpus, "long_seq": long_seq_workload,
             "lock_tree": lock_tree_workload}
