"""Pins the scheduler's behaviour: the (thread, rule) step sequence and the
terminal of `run_seeded` for every runnable corpus program under seeds 0..99.

The sequences do not depend on the state digests, so a change to the digest
scheme keeps them. Regenerate the data file only when a change to the step
rules or the scheduler is intended:

    PYTHONPATH=src python tests/test_step_sequences.py
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from reglock.interp import run_seeded  # noqa: E402
from reglock.parser import parse_program  # noqa: E402
from reglock.typecheck import check_program  # noqa: E402
from conftest import RUNNABLE, corpus_text  # noqa: E402

DATA = pathlib.Path(__file__).resolve().parent / "data" / "step_sequences.json"
SEEDS = range(100)


def sequence_hashes(name: str) -> list[str]:
    main_expr = check_program(parse_program(corpus_text(name))).typed.linked_main()
    out = []
    for seed in SEEDS:
        trace = run_seeded(main_expr, seed)
        blob = json.dumps([[s.tid, s.rule] for s in trace.steps] + [trace.terminal.kind],
                          separators=(",", ":"))
        out.append(hashlib.sha256(blob.encode()).hexdigest()[:12])
    return out


def test_step_sequences_are_pinned():
    pinned = json.loads(DATA.read_text())
    assert sorted(pinned) == sorted(RUNNABLE)
    for name in RUNNABLE:
        assert sequence_hashes(name) == pinned[name], name


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    rows = [f" {json.dumps(name)}: {json.dumps(sequence_hashes(name))}" for name in RUNNABLE]
    DATA.write_text("{\n" + ",\n".join(rows) + "\n}\n")
