"""`tools/front_end_time.py` at tiny sizes."""

from __future__ import annotations

import importlib.util
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "front_end_time.py"
SETS = ["corpus", "paired_long_seq(2)", "lock_tree(2)"]


def _tool():
    spec = importlib.util.spec_from_file_location("front_end_time", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_prints_each_layer_of_each_program_set(capsys):
    assert _tool().main(["--repeats", "1", "--rounds", "1", "--pairs", "2", "--depth", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == SETS
    for line in lines:
        assert re.fullmatch(
            r"[^:]+: lex \d+\.\d{3} ms, parse -?\d+\.\d{3} ms, check \d+\.\d{3} ms", line), line


def test_compares_against_another_tree_in_fresh_processes(capsys):
    argv = ["--repeats", "1", "--rounds", "1", "--pairs", "2", "--depth", "2",
            "--against", str(ROOT)]
    assert _tool().main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == (
        [f"round 1 {name}" for name in SETS] + [f"median {name}" for name in SETS])
    for line in lines:
        assert re.fullmatch(r"[^:]+: lex -?\d+\.\d{3}x, parse -?\d+\.\d{3}x, check \d+\.\d{3}x",
                            line), line
