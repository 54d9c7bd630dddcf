"""`tools/harness_ratio.py` at tiny sizes."""

from __future__ import annotations

import importlib.util
import pathlib
import re

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "harness_ratio.py"


def test_prints_one_ratio_per_program(capsys):
    spec = importlib.util.spec_from_file_location("harness_ratio", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.main(["--seeds", "2", "--repeats", "1", "--depth", "2", "--pairs", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "lock_tree(2)", "sharing_once", "paired_long_seq(2)"]
    for line in lines:
        ratio = re.search(r": (\d+\.\d\d)x harnessed / bare \((\d+\.\d) ms / (\d+\.\d) ms, "
                          r"2 seeds, median of 1\)$", line)
        assert ratio and float(ratio.group(1)) > 0, line
