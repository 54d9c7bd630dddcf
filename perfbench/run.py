"""Benchmark of the `reglock` command line, end to end and layer by layer.

    python3 perfbench/run.py --workload corpus|long_seq|lock_tree \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Each command is `reglock.cli.main`
called in this process with its output captured and checked against a known
answer (see workloads.py). The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; `--trace 0` gives the
end-to-end metrics, `--trace 1` the per-layer ones (see tracing.py).

Timings are taken against a reference loop run right before and right after
each command, and reported in reference seconds: the command's time divided
by the loop's mean time, times REF_S. On a shared machine the speed of the processor moves by
up to 2x within a second; the ratio moves far less. README.md has the
figures.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

#: Median time of ref_loop() on the reference run recorded in README.md.
REF_S = 0.00055

sys.path.insert(0, str(BENCH))
from workloads import WORKLOADS, Wrong  # noqa: E402


def ref_loop() -> int:
    acc = []
    for i in range(1500):
        d = {"a": i, "b": (i, i + 1)}
        acc.append(d["b"][0] + len(d))
    return sum(acc)


def ref_time() -> float:
    t0 = perf_counter()
    ref_loop()
    return perf_counter() - t0


class Bench:
    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.refs: list[float] = []

    def invoke(self, argv: list[str]) -> tuple[int, str, float]:
        """(exit code, stdout, seconds) of one in-process `reglock` command."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            t0 = perf_counter()
            try:
                rc = self.cli.main(argv)
            except SystemExit as exc:  # argparse's usage errors
                rc = exc.code
            dt = perf_counter() - t0
        return rc, buf.getvalue(), dt

    def launch(self, argv: list[str]) -> tuple[int, str, float]:
        """The same in a fresh process, timed from start to exit. Bytecode
        caching is on, as for an installed package: the warm-up round's
        launch writes the cache and the timed ones read it."""
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, "-m", "reglock.cli", *argv], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        dt = perf_counter() - t0
        if proc.stderr:
            print(proc.stderr, file=sys.stderr)
        return proc.returncode, proc.stdout, dt

    def round(self, ops, samples: list[list[float]], steps: list[int]) -> float:
        """Issues every op `op.repeat` times; returns the round's time in
        reference seconds."""
        total = 0.0
        for i, op in ((i, op) for i, op in enumerate(ops) for _ in range(op.repeat)):
            before = ref_time()
            self.attempted += 1
            try:
                rc, out, dt = (self.launch if op.kind == "setup" else self.invoke)(op.argv)
            except Exception:  # a crash of the program under test
                self.failed += 1
                print(f"FAILED {op.argv}:\n{traceback.format_exc(limit=3)}", file=sys.stderr)
                continue
            ref = (before + ref_time()) / 2
            self.refs.append(ref)
            samples[i].append((ref, dt))
            total += dt / ref * REF_S
            try:
                steps[i] = op.verify(rc, out)
            except (Wrong, ValueError, KeyError) as exc:
                self.wrong.append(f"{' '.join(op.argv)}: {exc}")
        return total

    def rounds(self, ops, seconds: float, min_rounds: int = 1):
        """Whole rounds until `seconds` have passed."""
        samples: list[list[float]] = [[] for _ in ops]
        steps = [0] * len(ops)
        totals = []
        t0 = perf_counter()
        while len(totals) < min_rounds or perf_counter() - t0 < seconds:
            totals.append(self.round(ops, samples, steps))
        return samples, steps, totals


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src/reglock").rglob("*.py")))


def estimate(pairs) -> float:
    """A command's time: the median of its samples in reference seconds."""
    return statistics.median(dt / ref * REF_S for ref, dt in pairs)


def end_to_end(ops, samples, steps) -> dict:
    """Ops that failed every time have no samples and are left out."""
    def per_kind(kind):
        return [(estimate(s), n) for op, s, n in zip(ops, samples, steps)
                if op.kind == kind and s]

    def rate(kind):
        pairs = per_kind(kind)
        return sum(n for _, n in pairs) / sum(e for e, _ in pairs)

    return {
        "setup_s": per_kind("setup")[0][0],
        "check_ms": statistics.median(e for e, _ in per_kind("check")) * 1e3,
        "run_steps_per_s": rate("run"),
        "meta_steps_per_s": rate("meta"),
        "explore_s": sum(e for e, _ in per_kind("explore")),
    }


UNITS = {"setup_s": "s", "check_ms": "ms", "run_steps_per_s": "1/s",
         "meta_steps_per_s": "1/s", "explore_s": "s", "peak_rss_mb": "MB",
         "src_lines": "lines"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src/reglock/cli.py").is_file() or not (ROOT / "corpus").is_dir():
        print(f"error: no reglock sources under {ROOT}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from reglock import cli

    gen_dir = OUT / f"{args.workload}-seed{args.seed}"
    gen_dir.mkdir(parents=True, exist_ok=True)
    bench = Bench(cli)
    workload = WORKLOADS[args.workload](ROOT, random.Random(args.seed), gen_dir,
                                        lambda a: bench.invoke(a)[:2])

    # Warm-up round: imports, caches, and the untimed checks.
    bench.rounds(workload.ops, 0)
    for what, check in workload.extra:
        try:
            check()
        except (Wrong, ValueError, KeyError) as exc:
            bench.wrong.append(f"{what}: {exc}")

    if args.trace:
        import tracing
        values = tracing.traced_run(bench, workload.ops, args.seconds, REF_S,
                                    OUT / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        samples, steps, totals = bench.rounds(workload.ops, args.seconds, min_rounds=3)
        m = end_to_end(workload.ops, samples, steps)
        m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        m["src_lines"] = src_lines()
        values = {k: (m[k], UNITS[k]) for k in UNITS}
        detail = {"rounds": len(totals), "ops": [
            {"argv": op.argv, "steps": n, "samples": s}
            for op, s, n in zip(workload.ops, samples, steps)]}
        (OUT / f"result-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps(detail, indent=1))
        print(f"{args.workload}: {len(totals)} rounds of {len(workload.ops)} commands")

    for line in bench.wrong[:20]:
        print(f"WRONG {line}")
    for name, (v, unit) in values.items():
        print(f"  {name:28s} {v:14.6g} {unit}")
    print(json.dumps({
        "correct": not bench.wrong,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    # String hashing is randomised per process, which moves set and dict
    # costs inside the program under test; fix it for every measured run.
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  dict(os.environ, PYTHONHASHSEED="0"))
    sys.exit(main())
