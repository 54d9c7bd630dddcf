"""A benchmark record of one source checkout, and a comparison of two records.

    python3 tools/bench_record.py --out BENCH_16.json [--root DIR]
    python3 tools/bench_record.py --compare OLD.json NEW.json

A record runs `perfbench/run.py --seconds 8` on every workload that
BENCHMARK.json names, for 5 rounds. Each round runs every workload once with
the round's seed (701, 702, ...), and the order of the workloads rotates from
round to round. Every record is made the same way, so that any two compare.
For each workload and end-to-end metric the record keeps the median, the
quartiles, the interquartile range (IQR) and every run's value. It also holds
the operations attempted and failed, whether every answer was correct, the
tier-1 wall time and summary line, `src_lines`, the commit, the processor
count and the Python version. `--root` measures another checkout with this
script; the benchmark and tier-1 tests run from that checkout.

`--compare` reads each metric's `better` and `bound` from BENCHMARK.json. A
metric moved past its bound when its new median is worse than the old one
by more than the bound, as a share of the old median (WORSE), or better by
more than that (better). A metric inside its bound whose IQR on either side
exceeds the bound, as a share of its median, is `unresolved`: the spread of
the runs is too wide to call it unchanged. Every metric is listed, after a
note for each of `nproc`, `python` and `bench` (rounds, seconds and seeds)
that differs between the records, and after each workload's answers: whether
every answer was correct and the failed share of operations (failed /
attempted) on both sides. The answers are WORSE when a new answer is wrong or
a larger share of operations failed. The exit code is 1 when a metric or the
answers are WORSE, else 0.

Times in a record are perfbench's reference seconds, a command's time over
the time of a fixed reference loop run beside it. Two records from different
days or machines are comparable only as far as that loop tracks the
machine; the record states this limit in its `limit` field.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ROUNDS, SECONDS, SEED = 5, 8.0, 701
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]
LIMIT = ("Times are perfbench reference seconds. Records from different days or "
         "machines are comparable only as far as perfbench's reference loop tracks "
         "the machine.")


def summarize(values: list[float]) -> dict:
    """Median, quartiles and IQR of a metric's runs, with the runs."""
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                 if len(values) > 1 else values * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1,
            "runs": values}


def git(root: Path, *args: str) -> str | None:
    try:
        proc = subprocess.run(["git", *args], cwd=root, capture_output=True, text=True,
                              check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return proc.stdout.strip()


def run_bench(root: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds)],
                          cwd=root, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_tier1(root: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=root, env=env,
                          capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    return {"command": ["python", *TIER1], "wall_s": round(wall, 1),
            "exit": proc.returncode, "summary": lines[-1] if lines else ""}


def record(root: Path) -> dict:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    runs: dict[str, list[dict]] = {w: [] for w in names}
    for r in range(ROUNDS):
        for w in names[r % len(names):] + names[:r % len(names)]:
            runs[w].append(run_bench(root, w, SEED + r, SECONDS))
            print(f"round {r + 1}/{ROUNDS} {w} done", file=sys.stderr)
    workloads = {}
    for w, results in runs.items():
        metrics = {}
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"unit": m["unit"], **summarize(
                [res["metrics"][m["name"]]["value"] for res in results])}
        workloads[w] = {"correct": all(res["correct"] for res in results),
                        "attempted": sum(res["attempted"] for res in results),
                        "failed": sum(res["failed"] for res in results),
                        "metrics": metrics}
    return {
        "commit": git(root, "rev-parse", "HEAD"),
        "dirty": bool(git(root, "status", "--porcelain", "--untracked-files=no")),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": workloads[names[0]]["metrics"]["src_lines"]["median"],
        "bench": {"rounds": ROUNDS, "seconds": SECONDS,
                  "seeds": [SEED + r for r in range(ROUNDS)]},
        "limit": LIMIT,
        "tier1": run_tier1(root),
        "workloads": workloads,
    }


def compare(old: dict, new: dict, spec: dict) -> list[tuple]:
    """(workload, metric, old median, new median, status) for every metric
    both records hold; status is WORSE, better, unresolved or within."""
    rows = []
    for w in spec["workloads"]:
        for m in spec["end_to_end"]:
            try:
                a = old["workloads"][w["name"]]["metrics"][m["name"]]
                b = new["workloads"][w["name"]]["metrics"][m["name"]]
            except KeyError:
                continue
            bound = m["bound"]
            gain = (b["median"] - a["median"]) / a["median"] if a["median"] else 0.0
            if m["better"] == "lower":
                gain = -gain
            if gain < -bound:
                status = "WORSE"
            elif gain > bound:
                status = "better"
            elif any(s["median"] and s["iqr"] / abs(s["median"]) > bound for s in (a, b)):
                status = "unresolved"
            else:
                status = "within"
            rows.append((w["name"], m["name"], a["median"], b["median"], status))
    return rows


def answers(old: dict, new: dict, spec: dict) -> list[tuple]:
    """(workload, old, new, status) for every workload whose answers the new
    record holds; each side is (correct, failed, attempted), and status is
    WORSE or ok."""
    rows = []
    for w in spec["workloads"]:
        b = new["workloads"].get(w["name"], {})
        if "correct" not in b:
            continue
        a = old["workloads"].get(w["name"], {})
        sides = [(s.get("correct"), s.get("failed", 0), s.get("attempted", 0)) for s in (a, b)]
        shares = [failed / attempted if attempted else 0.0 for _, failed, attempted in sides]
        worse = sides[1][0] is not True or shares[1] > shares[0]
        rows.append((w["name"], *sides, "WORSE" if worse else "ok"))
    return rows


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", type=Path, help="write a record of the checkout here")
    ap.add_argument("--root", type=Path, default=ROOT, help="the checkout to measure")
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("OLD", "NEW"))
    args = ap.parse_args(argv)

    if args.compare:
        old, new = (json.loads(p.read_text()) for p in args.compare)
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for key in ("nproc", "python", "bench"):
            if old.get(key) != new.get(key):
                print(f"note: {key} differs: {old.get(key)} -> {new.get(key)}")
        checked = answers(old, new, spec)
        for w, (ca, fa, aa), (cb, fb, ab), status in checked:
            print(f"{w:10s} {'answers':18s} correct {ca} -> {cb}, "
                  f"failed {fa}/{aa} -> {fb}/{ab}  {status}")
        rows = compare(old, new, spec)
        for w, m, a, b, status in rows:
            ratio = f"{b / a:.3f}x" if a else "-"
            print(f"{w:10s} {m:18s} {a:12.6g} {b:12.6g} {ratio:>8s}  {status}")
        return 1 if any(row[-1] == "WORSE" for row in checked + rows) else 0
    if args.out is None:
        ap.error("give --out FILE to record, or --compare OLD NEW")
    result = record(args.root.resolve())
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
