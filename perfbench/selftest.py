"""Quick self-test of the benchmark's generators and output checks.

    python3 perfbench/selftest.py

Runs small inputs through `reglock.cli.main` in this process: the long_seq
step formula, lock_tree's final counters and deadlock freedom, the corpus's
known verdicts, and that each check rejects a wrong answer. Prints one line
per test and exits 1 if any fails.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from reglock import cli  # noqa: E402
from workloads import (  # noqa: E402
    CORPUS_REJECTED,
    Wrong,
    final_counters,
    lock_tree,
    lock_tree_finals,
    long_seq,
    long_seq_steps,
    parse_run,
    verify_check,
    verify_explore,
    verify_run,
)


def invoke(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def rejects(verify, rc: int, out: str) -> bool:
    try:
        verify(rc, out)
    except Wrong:
        return True
    return False


def test_long_seq(tmp: Path) -> None:
    for n in (1, 3, 10):
        path = tmp / f"long_seq_{n}.rgn"
        path.write_text(long_seq(n, "hq"))
        verify_check(None)(*invoke(["check", "--json", str(path)]))
        rc, out = invoke(["run", str(path), "--seed", "5", "--metatheory"])
        steps = verify_run({"all_done": None}, set(), long_seq_steps(n), meta=True)(rc, out)
        if steps != 4 * n + 5:
            raise Wrong(f"N={n}: {steps} steps")
        verify_explore({"all_done"}, [], long_seq_steps(n) + 1, {"all_done"})(
            *invoke(["explore", "--json", str(path)]))
        if not rejects(verify_run({"all_done": None}, set(), long_seq_steps(n) + 1), rc, out):
            raise Wrong("a wrong step count passed")


def test_lock_tree(tmp: Path) -> None:
    for depth, k in ((1, 1), (2, 1), (3, 2)):
        init = [7 * i + 3 for i in range(depth)]
        path = tmp / f"lock_tree_{depth}_{k}.rgn"
        path.write_text(lock_tree(depth, k, init))
        verify_check(None)(*invoke(["check", "--json", str(path)]))
        for seed in (0, 1, 2):
            rc, out = invoke(["run", str(path), "--seed", str(seed), "--trace", "json",
                              "--snapshots"])
            want = {i + 1: v for i, v in enumerate(lock_tree_finals(depth, k, init))}
            if rc != 0 or final_counters(out) != want:
                raise Wrong(f"D={depth} k={k} seed {seed}: {final_counters(out)} != {want}")
        if depth <= 2:
            verify_explore({"all_done"}, [], None, {"all_done"})(
                *invoke(["explore", "--json", "--force-threads", str(path)]))
    if lock_tree_finals(3, 2, [0, 0, 0]) != [2, 2, 4]:
        raise Wrong("lock_tree_finals")


def test_corpus() -> None:
    for f in sorted((ROOT / "corpus").glob("*.rgn")):
        rc, out = invoke(["check", "--json", str(f)])
        verify_check(CORPUS_REJECTED.get(f.stem))(rc, out)
        wrong = None if f.stem in CORPUS_REJECTED else ("SomeCode", 1)
        if not rejects(verify_check(wrong), rc, out):
            raise Wrong(f"{f.stem}: a wrong verdict passed")
    racy = str(ROOT / "corpus/deadlock_racy.rgn")
    kinds = {parse_run(invoke(["run", racy, "--seed", str(s)])[1])[1] for s in range(8)}
    if kinds != {"all_done", "deadlock"}:
        raise Wrong(f"deadlock_racy reached {kinds} over seeds 0..7")
    verify_explore({"all_done", "deadlock"}, [[1, 2]], None, kinds)(
        *invoke(["explore", "--json", racy]))
    forced = str(ROOT / "corpus/deadlock_forced.rgn")
    rc, out = invoke(["run", forced, "--seed", "3", "--unchecked"])
    verify_run({"deadlock": [2, 3]}, set())(rc, out)
    if not rejects(verify_run({"deadlock": [1, 2]}, set()), rc, out):
        raise Wrong("a wrong deadlock cycle passed")


def main() -> int:
    tmp = BENCH / "out" / "selftest"
    tmp.mkdir(parents=True, exist_ok=True)
    failed = 0
    for name, test in (("long_seq", lambda: test_long_seq(tmp)),
                       ("lock_tree", lambda: test_lock_tree(tmp)),
                       ("corpus", test_corpus)):
        try:
            test()
            print(f"ok   {name}")
        except (Wrong, ValueError, KeyError) as exc:
            failed += 1
            print(f"FAIL {name}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
