"""The benchmark's traced run still finds the functions it wraps.

`perfbench/tracing.py` wraps reglock's functions by name, so renaming one
breaks `perfbench/run.py --trace 1`; this test notices it first.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib

import lex_model
from reglock import interp
from reglock.cli import main
from conftest import CORPUS

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracing_wraps_the_step_path(capsys):
    tracing = load_tracing()
    tracer = tracing.Tracer()
    real = interp.step_thread
    remove = tracing.install(tracer)
    try:
        program = str(CORPUS / "sharing_once.rgn")
        assert main(["run", program, "--seed", "0"]) == 0
        assert main(["explore", program, "--json"]) == 0
    finally:
        remove()
    capsys.readouterr()
    assert interp.step_thread is real
    for name in ("step_thread", "decompose", "_apply_outcome", "config_digest",
                 "run_seeded", "explore"):
        assert tracer.calls[f"interp.{name}"] > 0, name


def test_explore_alone_digests_every_successor(capsys):
    """perfbench's `interp.digest_us` and `explore.dedup_hit_ratio` read the
    `config_digest` calls made under `explore`.  With no `run` beside it,
    `explore` makes one per successor it builds and one for its initial
    state, however it shares the objects of the states it keeps."""
    tracing = load_tracing()
    tracer = tracing.Tracer()
    remove = tracing.install(tracer)
    try:
        assert main(["explore", str(CORPUS / "deadlock_racy.rgn"), "--json"]) == 0
    finally:
        remove()
    states = json.loads(capsys.readouterr().out)["states"]
    successors = tracer.calls["interp._apply_outcome"]
    assert tracer.calls["interp.config_digest"] == successors + 1
    assert tracer.counts["explore_digests"] == successors + 1
    assert tracer.counts["states"] == states < successors


def test_tracing_counts_every_token(capsys):
    # `parser.tokens_per_s` divides the length of what `lex` returns by its
    # time, so `lex` gives one entry per token, the end of input included.
    tracing = load_tracing()
    tracer = tracing.Tracer()
    path = CORPUS / "hierarchy.rgn"
    remove = tracing.install(tracer)
    try:
        assert main(["check", str(path)]) == 0
    finally:
        remove()
    capsys.readouterr()
    assert tracer.counts["tokens"] == len(lex_model.lex(path.read_text()))
