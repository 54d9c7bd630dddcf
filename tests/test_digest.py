"""State digests: Merkle digests of terms and region trees, combined per
configuration by `config_digest`."""

from __future__ import annotations

import json
import subprocess
import sys
import threading

import pytest

from reglock import interp, syntax
from reglock.cli import main as cli_main
from reglock.interp import config_digest, explore, initial_config, run_seeded, step_record
from reglock.parser import parse_program, pretty
from reglock.store import initial_store
from reglock.syntax import (
    HEAP,
    UNIT_VALUE,
    Closure,
    Const,
    Env,
    If,
    Loc,
    Seq,
    Var,
    expr_digest,
    read_back,
)
from reglock.typecheck import check_program, link_bodies
from conftest import (CORPUS, RUNNABLE, corpus_text, lock_tree, paired_long_seq, rebuild,
                      src_env)


def linked_main(text: str, checked: bool = True):
    program = parse_program(text)
    return check_program(program).typed.linked_main() if checked else link_bodies(program)


def old_payload(config) -> str:
    """The text the digest hashed before it was a Merkle digest."""
    return json.dumps({
        "store": config.store.to_json(pretty),
        "threads": sorted((t.tid, pretty(t.expr)) for t in config.threads),
        "counters": [config.next_tid, config.next_loc, config.next_region],
    }, sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize("name", RUNNABLE + ["deadlock_forced.rgn", "race_unlocked.rgn",
                                  "paired_long_seq_20", "lock_tree_2"])
def test_same_partition_as_the_printed_payload(name, monkeypatch):
    """`explore` shares one store and term object per digest among the
    states it expands, so every state it builds from them is held to the
    printed payload here too, beyond the corpus."""
    seen = []

    def recording(config):
        seen.append(config)
        return config_digest(config)

    text = {"paired_long_seq_20": paired_long_seq(20), "lock_tree_2": lock_tree(2)}.get(name)
    checked = text is not None or name in RUNNABLE
    monkeypatch.setattr(interp, "config_digest", recording)
    explore(linked_main(text or corpus_text(name), checked), force=True)
    pairs = {(old_payload(c), config_digest(c)) for c in seen}
    assert len(pairs) > 1
    assert len({old for old, _ in pairs}) == len(pairs) == len({new for _, new in pairs})


def test_source_locations_are_ignored():
    text = corpus_text("sharing_once.rgn")
    a = linked_main(text)
    b = linked_main("\n\n" + text.replace("\n", "\n  "))
    assert read_back(a).loc != read_back(b).loc
    assert expr_digest(a) == expr_digest(b)
    assert expr_digest(Var("x", Loc(1, 1))) == expr_digest(Var("x", Loc(7, 3)))


def test_replace_never_keeps_a_stale_digest():
    e = Seq(Const(1), Const(2))
    before = expr_digest(e)
    changed = rebuild(e, second=Const(3))
    assert expr_digest(changed) != before
    assert expr_digest(changed) == expr_digest(Seq(Const(1), Const(3)))
    node = initial_store(HEAP, 1).root
    node.digest()
    assert rebuild(node, threads=()).digest() != node.digest()


def test_constants_are_tagged_with_their_type():
    digests = {expr_digest(Const(v)) for v in (1, True, 0, False, UNIT_VALUE)}
    assert len(digests) == 5


def test_deep_terms_need_no_recursion():
    e = Const(UNIT_VALUE)
    for _ in range(5 * sys.getrecursionlimit()):
        e = Seq(Const(UNIT_VALUE), e)
    assert len(expr_digest(e)) == 16


def test_a_deep_closure_is_digested_and_read_back_without_recursion():
    """A closure is digested and read back through its pushes, each from an
    explicit stack: a 10,000-deep body under `x = 7`, on a fresh thread at
    the default recursion limit, reads as the same tree built with 7."""

    def tree(leaf):
        e = leaf
        for i in range(10_000):
            e = If(leaf, e, leaf) if i % 2 else Seq(leaf, e)
        return e

    closure = Closure(tree(Var("x")), Env({"x": Const(7)}))
    digests = []

    def digest_both():
        digests.extend([expr_digest(closure), expr_digest(read_back(closure))])

    worker = threading.Thread(target=digest_both)
    worker.start()
    worker.join()
    assert digests == [expr_digest(tree(Const(7)))] * 2


def test_known_initial_digest():
    main = linked_main(corpus_text("basic_region.rgn"))
    assert config_digest(initial_config(main)) == "a97bbcc51430ce50"


#: Runs `check`, a harnessed JSON-traced `run` and `explore` in one process
#: on each program named in argv, and prints every output and exit code.
IN_ONE_PROCESS = """
import contextlib, io, sys
from reglock.cli import main
out = io.StringIO()
for path in sys.argv[1:]:
    for argv in (["check", path, "--json", "--emit-effects"],
                 ["run", path, "--seed", "3", "--trace", "json", "--metatheory"],
                 ["explore", path, "--json", "--force-threads"]):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = main(argv)
        out.write(f"exit {code}\\n")
sys.stdout.write(out.getvalue())
"""


def test_same_digests_in_every_process():
    """Region names and capabilities hash by address, and strings by
    PYTHONHASHSEED, so no output may follow the order of a set of them."""
    cmd = [sys.executable, "-c", IN_ONE_PROCESS] + [str(CORPUS / name) for name in RUNNABLE]
    outs = [subprocess.run(cmd, capture_output=True, check=True, text=True,
                           env=src_env(PYTHONHASHSEED=seed)).stdout
            for seed in ("1", "2")]
    assert outs[0] == outs[1]
    assert outs[0].count("exit ") == 3 * len(RUNNABLE) and '"trace_digest"' in outs[0]


def test_digest_work_per_step_does_not_grow_with_the_program(monkeypatch):
    """Nodes hashed per step stay flat from N=50 to N=200 (4x the term).

    A bare run hashes only its final state, so each step records its digest
    here, as a JSON trace does."""
    hashed = [0]
    real = syntax.blake2b

    def counting(*args, **kwargs):
        hashed[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(syntax, "blake2b", counting)
    per_step = {}
    for n in (50, 200):
        main = linked_main(paired_long_seq(n))
        hashed[0] = 0
        trace = run_seeded(main, 0, record=step_record)
        assert trace.terminal.kind == "all_done" and len(trace.steps) == 4 * n + 5
        per_step[n] = hashed[0] / len(trace.steps)
    assert 1 <= per_step[50] and per_step[200] <= 1.5 * per_step[50], per_step


@pytest.mark.parametrize("source", [lock_tree(4), paired_long_seq(120)],
                         ids=["lock_tree_4", "long_seq_120"])
def test_only_a_json_trace_hashes_every_step(source, tmp_path, monkeypatch, capsys):
    """A text run hashes its final state once, with or without the harness;
    `--trace json` hashes each step's successor, which it prints."""
    calls = [0]
    real = interp.config_digest

    def counting(config):
        calls[0] += 1
        return real(config)

    monkeypatch.setattr(interp, "config_digest", counting)
    path = tmp_path / "program.rgn"
    path.write_text(source)
    argv = ["run", str(path), "--seed", "1"]
    for extra in ([], ["--metatheory"]):
        calls[0] = 0
        assert cli_main(argv + extra) == 0
        assert calls[0] == 1, extra
    capsys.readouterr()
    calls[0] = 0
    assert cli_main(argv + ["--trace", "json"]) == 0
    steps = json.loads(capsys.readouterr().out)["steps"]
    assert calls[0] == len(steps) > 20
