"""The in-process cost of the metatheory harness against the bare machine.

    python3 tools/harness_ratio.py [--seeds 10] [--repeats 5] [--depth 4] [--pairs 60]

For each program, `run_seeded` runs every seed once bare and once with a
`Harness`, the two interleaved seed by seed, and a repeat's ratio is the
harnessed wall time over the bare one, summed over the seeds. The line
printed for a program gives the median ratio of the repeats and the median
milliseconds per repeat on each side. The programs are `lock_tree(depth)`
and `paired_long_seq(pairs)` from `tests/conftest.py`, and the corpus's
`sharing_once.rgn`; the defaults are the sizes that ROADMAP.md quotes.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from conftest import corpus_text, lock_tree, paired_long_seq  # noqa: E402
from reglock.interp import run_seeded  # noqa: E402
from reglock.meta import Harness  # noqa: E402
from reglock.parser import parse_program  # noqa: E402
from reglock.typecheck import check_program  # noqa: E402


def ratio(text: str, seeds: int, repeats: int) -> tuple[float, float, float]:
    """(median ratio, median harnessed ms, median bare ms) over the repeats."""
    typed = check_program(parse_program(text)).typed
    main = typed.linked_main()
    ratios, harnessed, bare = [], [], []
    for _ in range(repeats):
        spent = [0.0, 0.0]
        for seed in range(seeds):
            for side in (0, 1) if seed % 2 else (1, 0):
                start = time.perf_counter()
                run_seeded(main, seed, harness=Harness(typed) if side else None)
                spent[side] += time.perf_counter() - start
        bare.append(spent[0] * 1e3)
        harnessed.append(spent[1] * 1e3)
        ratios.append(spent[1] / spent[0])
    return statistics.median(ratios), statistics.median(harnessed), statistics.median(bare)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--depth", type=int, default=4, help="lock_tree's region chain")
    parser.add_argument("--pairs", type=int, default=60, help="paired_long_seq's pairs")
    args = parser.parse_args(argv)
    programs = {f"lock_tree({args.depth})": lock_tree(args.depth),
                "sharing_once": corpus_text("sharing_once.rgn"),
                f"paired_long_seq({args.pairs})": paired_long_seq(args.pairs)}
    for name, text in programs.items():
        r, harnessed, bare = ratio(text, args.seeds, args.repeats)
        print(f"{name}: {r:.2f}x harnessed / bare ({harnessed:.1f} ms / {bare:.1f} ms, "
              f"{args.seeds} seeds, median of {args.repeats})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
