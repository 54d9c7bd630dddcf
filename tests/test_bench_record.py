"""`tools/bench_record.py --compare` on two small hand-written records."""

from __future__ import annotations

import importlib.util
import json
import pathlib

import pytest

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def a_record(**metrics) -> dict:
    """lock_tree metrics given as name=(median, iqr)."""
    return {"nproc": 2, "python": "3.11.7", "workloads": {"lock_tree": {"metrics": {
        name: {"median": median, "iqr": iqr} for name, (median, iqr) in metrics.items()}}}}


def write_records(tmp_path, old: dict, new: dict) -> list:
    paths = [tmp_path / "old.json", tmp_path / "new.json"]
    for path, rec in zip(paths, (old, new)):
        path.write_text(json.dumps(rec))
    return paths


def test_compare_lists_each_metric_against_its_bound(tmp_path, capsys):
    tool = load_tool()
    old = a_record(run_steps_per_s=(4000, 100), check_ms=(7.0, 0.1),
                   explore_s=(0.20, 0.01), setup_s=(0.16, 0.08), peak_rss_mb=(24.0, 0.2))
    new = a_record(run_steps_per_s=(6000, 100), check_ms=(8.5, 0.1),
                   explore_s=(0.21, 0.01), setup_s=(0.17, 0.01), peak_rss_mb=(24.1, 0.2))
    paths = write_records(tmp_path, old, new)
    assert tool.main(["--compare", *map(str, paths)]) == 1
    status = {line.split()[1]: line.split()[-1] for line in capsys.readouterr().out.splitlines()}
    # check_ms rose 21 % against a bound of 15 %; setup_s's old IQR is half
    # its median, wider than its 25 % bound.
    assert status == {"run_steps_per_s": "better", "check_ms": "WORSE", "explore_s": "within",
                      "setup_s": "unresolved", "peak_rss_mb": "within"}
    paths[1].write_text(json.dumps(a_record(check_ms=(7.5, 0.1))))
    assert tool.main(["--compare", *map(str, paths)]) == 0
    assert capsys.readouterr().out.split()[-1] == "within"


def test_compare_notes_records_made_differently(tmp_path, capsys):
    tool = load_tool()
    old = a_record(check_ms=(7.0, 0.1))
    new = {**a_record(check_ms=(7.0, 0.1)), "nproc": 4,
           "bench": {"rounds": 2, "seconds": 1.0, "seeds": [701, 702]}}
    paths = write_records(tmp_path, old, new)
    assert tool.main(["--compare", *map(str, paths)]) == 0
    notes = [line for line in capsys.readouterr().out.splitlines() if line.startswith("note:")]
    assert [note.split()[1] for note in notes] == ["nproc", "bench"]


def with_answers(record: dict, correct: bool, failed: int, attempted: int) -> dict:
    record["workloads"]["lock_tree"].update(correct=correct, failed=failed, attempted=attempted)
    return record


@pytest.mark.parametrize("old, new, code", [
    ((True, 0, 100), (True, 0, 120), 0),
    ((True, 2, 100), (True, 2, 200), 0),   # a smaller failed share
    ((True, 0, 100), (False, 0, 100), 1),  # a wrong answer
    ((False, 0, 100), (False, 0, 100), 1),
    ((True, 1, 100), (True, 3, 150), 1),   # a larger failed share
])
def test_compare_checks_answers_and_failures(tmp_path, capsys, old, new, code):
    tool = load_tool()
    paths = write_records(tmp_path, with_answers(a_record(check_ms=(7.0, 0.1)), *old),
                          with_answers(a_record(check_ms=(7.0, 0.1)), *new))
    assert tool.main(["--compare", *map(str, paths)]) == code
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[1] for line in lines] == ["answers", "check_ms"]
    assert lines[0].split()[-1] == ("WORSE" if code else "ok")
    assert f"failed {old[1]}/{old[2]} -> {new[1]}/{new[2]}" in lines[0]
