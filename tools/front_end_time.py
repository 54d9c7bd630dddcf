"""The in-process cost of the front end: lexing, parsing, and checking.

    python3 tools/front_end_time.py [--repeats 30] [--rounds 5] [--pairs 60] [--depth 4]
                                    [--against DIR]

Three program sets: the corpus's 15 files, and `paired_long_seq(pairs)` and
`lock_tree(depth)` from `tests/conftest.py`. In a round, each of three layers
is timed over a whole set, best of `repeats`: `lex`, `parse_program` minus
`lex` (the parse after `lex`), and `check_program` of a freshly parsed
program. The line printed for a set gives each layer's median milliseconds
over the rounds.

With `--against DIR`, rounds alternate between this tree and `DIR/src`,
each round in a fresh process, and the lines give each round's ratio of
this tree's time to DIR's and, last, the median ratio.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ("lex", "parse", "check")


def program_sets(pairs: int, depth: int) -> dict[str, list[str]]:
    if str(ROOT / "tests") not in sys.path:
        sys.path.insert(0, str(ROOT / "tests"))
    from conftest import CORPUS, lock_tree, paired_long_seq
    return {"corpus": [path.read_text() for path in sorted(CORPUS.glob("*.rgn"))],
            f"paired_long_seq({pairs})": [paired_long_seq(pairs)],
            f"lock_tree({depth})": [lock_tree(depth)]}


def one_round(src: Path, sets: dict[str, list[str]], repeats: int) -> dict[str, dict]:
    """{set: {layer: best ms}} for the front end in `src`."""
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    from reglock.parser import lex, parse_program
    from reglock.typecheck import check_program

    def best(run) -> float:
        spent = []
        for _ in range(repeats):
            start = time.perf_counter()
            run()
            spent.append(time.perf_counter() - start)
        return min(spent) * 1e3

    def check(texts: list[str]) -> float:
        spent = 0.0
        for text in texts:
            program = parse_program(text)
            start = time.perf_counter()
            check_program(program)
            spent += time.perf_counter() - start
        return spent

    times = {}
    for name, texts in sets.items():
        lexed = best(lambda: [lex(text) for text in texts])
        parsed = best(lambda: [parse_program(text) for text in texts])
        checked = min(check(texts) for _ in range(repeats)) * 1e3
        times[name] = {"lex": lexed, "parse": parsed - lexed, "check": checked}
    return times


def in_fresh_process(src: Path, args) -> dict[str, dict]:
    argv = [sys.executable, __file__, "--round", str(src), "--repeats", str(args.repeats),
            "--pairs", str(args.pairs), "--depth", str(args.depth)]
    return json.loads(subprocess.run(argv, capture_output=True, text=True, check=True).stdout)


def row(name: str, values: dict, unit: str) -> str:
    return f"{name}: " + ", ".join(f"{layer} {values[layer]:.3f}{unit}" for layer in LAYERS)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=30)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--pairs", type=int, default=60, help="paired_long_seq's pairs")
    parser.add_argument("--depth", type=int, default=4, help="lock_tree's region chain")
    parser.add_argument("--against", type=Path, help="another checkout to compare with")
    parser.add_argument("--round", type=Path, help=argparse.SUPPRESS)  # one round, as JSON
    args = parser.parse_args(argv)
    sets = program_sets(args.pairs, args.depth)
    if args.round:
        print(json.dumps(one_round(args.round, sets, args.repeats)))
        return 0
    if args.against is None:
        rounds = [one_round(ROOT / "src", sets, args.repeats) for _ in range(args.rounds)]
        for name in sets:
            print(row(name, {layer: statistics.median(r[name][layer] for r in rounds)
                             for layer in LAYERS}, " ms"))
        return 0
    ratios: dict[str, list[dict]] = {name: [] for name in sets}
    for i in range(args.rounds):
        sides = [ROOT / "src", args.against / "src"]
        if i % 2:
            sides.reverse()
        times = dict(zip(map(str, sides), (in_fresh_process(src, args) for src in sides)))
        ours, theirs = times[str(ROOT / "src")], times[str(args.against / "src")]
        for name in sets:
            ratio = {layer: ours[name][layer] / theirs[name][layer] for layer in LAYERS}
            ratios[name].append(ratio)
            print(f"round {i + 1} " + row(name, ratio, "x"))
    for name in sets:
        print("median " + row(name, {layer: statistics.median(r[layer] for r in ratios[name])
                                     for layer in LAYERS}, "x"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
