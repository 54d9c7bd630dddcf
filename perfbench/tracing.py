"""The traced run: per-layer numbers from wrappers around reglock's functions.

The wrappers are installed from here, at every name a caller looks up (a
module global such as `reglock.cli.run_seeded` or `reglock.interp.
config_digest`, or a class attribute such as `Store.updcap`), so `src/` is
not touched. Each call is a span (id, name, start, end, parent id). A
layer is the module a function comes from; its self time is a span's
duration minus that of its child spans. Spans of the first traced round are
kept in memory and written out at the end; every round adds to the counts.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []  # [span id, name, seconds in children]
        self.calls: Counter = Counter()
        self.outer_calls: Counter = Counter()   # not nested in the same function
        self.outer_s: Counter = Counter()
        self.self_s: Counter = Counter()
        self.layer_entries: Counter = Counter()  # calls from another layer
        self.layer_entry_s: Counter = Counter()
        self.active: Counter = Counter()
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []
        self.keep = False
        self.next_id = 0

    def wrap(self, name: str, fn, after=None):
        layer = name.split(".")[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            frame = [self.next_id, name, 0.0]
            self.next_id += 1
            depth = self.active[name]
            self.active[name] = depth + 1
            self.stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self.stack.pop()
                self.active[name] = depth
                d = t1 - t0
                if parent is not None:
                    parent[2] += d
                self.calls[name] += 1
                self.self_s[name] += d - frame[2]
                if depth == 0:
                    self.outer_calls[name] += 1
                    self.outer_s[name] += d
                if parent is None or parent[1].split(".")[0] != layer:
                    self.layer_entries[layer] += 1
                    self.layer_entry_s[layer] += d
                if self.keep:
                    self.spans.append((frame[0], name, t0, t1,
                                       parent[0] if parent is not None else None))
            if after is not None:
                after(result, kwargs, d)
            return result
        return traced

    def layer_self_s(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.startswith(layer + "."))

    def layer_calls(self, layer: str) -> int:
        return sum(v for k, v in self.calls.items() if k.startswith(layer + "."))


def _public_functions(module) -> list[str]:
    return [n for n, f in vars(module).items()
            if inspect.isfunction(f) and f.__module__ == module.__name__
            and not n.startswith("_")]


def _public_methods(cls) -> list[str]:
    return [n for n, f in vars(cls).items()
            if inspect.isfunction(f) and not n.startswith("_")
            and not inspect.isgeneratorfunction(f)]


def install(tracer: Tracer):
    """Wraps the traced functions; returns a callable that removes them."""
    from reglock import cli, effects, interp, meta, parser, store, syntax, typecheck

    undo: list[tuple] = []
    modules = [m for n, m in sys.modules.items() if n == "reglock" or n.startswith("reglock.")]
    c = tracer.counts

    def on_lex(result, kwargs, d):
        c["tokens"] += len(result)

    def on_step_thread(result, kwargs, d):
        if isinstance(result, interp.BlockedOn):
            c["blocked"] += 1

    def on_run(result, kwargs, d):
        if kwargs.get("harness") is None:
            c["run_steps"] += len(result.steps)
            c["run_s"] += d

    def on_explore(result, kwargs, d):
        c["states"] += result.states
        c["explore_s"] += d

    def on_digest(result, kwargs, d):
        if tracer.active["interp.explore"]:
            c["explore_digests"] += 1

    def function(module, name, layer, after=None):
        orig = getattr(module, name)
        wrapper = tracer.wrap(f"{layer}.{name}", orig, after)
        for m in modules:
            for attr, val in list(vars(m).items()):
                if val is orig:
                    undo.append((m, attr, orig))
                    setattr(m, attr, wrapper)

    def method(cls, name, layer):
        orig = vars(cls)[name]
        undo.append((cls, name, orig))
        setattr(cls, name, tracer.wrap(f"{layer}.{cls.__name__}.{name}", orig))

    function(parser, "lex", "parser", on_lex)
    function(parser, "parse_program", "parser")
    function(typecheck, "check_program", "typecheck")
    function(typecheck, "link_bodies", "typecheck")
    method(typecheck.TypedProgram, "linked_main", "typecheck")
    for name in _public_functions(effects):
        function(effects, name, "effects")
    for name in _public_functions(syntax):
        if name.startswith("subst_"):
            function(syntax, name, "syntax")
    method(syntax.Effect, "well_formed", "syntax")
    for name in _public_methods(store.Store):
        method(store.Store, name, "store")
    function(interp, "step_thread", "interp", on_step_thread)
    function(interp, "decompose", "interp")
    function(interp, "config_digest", "interp", on_digest)
    function(interp, "_apply_outcome", "interp")
    function(interp, "run_seeded", "interp", on_run)
    function(interp, "explore", "interp", on_explore)
    for name in ("__init__", "observe_init", "after_step"):
        method(meta.Harness, name, "meta")
    for name in ("check_thread_typing", "check_store_typing", "check_store_consistency",
                 "check_not_stuck"):
        function(meta, name, "meta")
    function(cli, "main", "cli")

    def remove() -> None:
        for obj, attr, orig in reversed(undo):
            setattr(obj, attr, orig)
    return remove


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(t: Tracer, rounds: int, scale: float) -> dict:
    """Per-layer metrics: counts per round, times in reference units."""
    o, n, c = t.outer_s, t.outer_calls, t.counts
    steps = t.calls["interp._apply_outcome"]
    subst = [k for k in t.calls if k.startswith("syntax.subst_")]
    return {
        "parser.parse_ms": (_div(o["parser.parse_program"], n["parser.parse_program"]) * scale * 1e3, "ms"),
        "parser.tokens_per_s": (_div(c["tokens"], o["parser.lex"] * scale), "1/s"),
        "typecheck.check_ms": (_div(o["typecheck.check_program"], n["typecheck.check_program"]) * scale * 1e3, "ms"),
        "typecheck.link_ms": (_div(o["typecheck.link_bodies"], n["typecheck.link_bodies"]) * scale * 1e3, "ms"),
        "effects.calls": (t.layer_calls("effects") / rounds, "count"),
        "effects.self_ms": (t.layer_self_s("effects") / rounds * scale * 1e3, "ms"),
        "syntax.subst_calls": (sum(t.calls[k] for k in subst) / rounds, "count"),
        "syntax.subst_ms": (sum(t.self_s[k] for k in subst) / rounds * scale * 1e3, "ms"),
        "syntax.well_formed_ms": (t.self_s["syntax.Effect.well_formed"] / rounds * scale * 1e3, "ms"),
        "store.ops_per_step": (_div(t.layer_entries["store"], steps), "calls/step"),
        "store.op_us": (_div(t.layer_entry_s["store"], t.layer_entries["store"]) * scale * 1e6, "us"),
        "store.to_json_ms": (o["store.Store.to_json"] / rounds * scale * 1e3, "ms"),
        "interp.us_per_step": (_div(c["run_s"], c["run_steps"]) * scale * 1e6, "us"),
        "interp.decompose_us": (_div(o["interp.decompose"], n["interp.decompose"]) * scale * 1e6, "us"),
        "interp.digest_us": (_div(o["interp.config_digest"], n["interp.config_digest"]) * scale * 1e6, "us"),
        "interp.digest_share": (_div(o["interp.config_digest"],
                                     o["interp.run_seeded"] + o["interp.explore"]), "ratio"),
        "interp.step_calls_per_step": (_div(t.calls["interp.step_thread"], steps), "calls/step"),
        "interp.blocked_ticks": (c["blocked"] / rounds, "count"),
        "explore.states": (c["states"] / rounds, "count"),
        "explore.us_per_state": (_div(c["explore_s"], c["states"]) * scale * 1e6, "us"),
        "explore.dedup_hit_ratio": (1 - _div(c["states"], c["explore_digests"]), "ratio"),
        "meta.after_step_us": (_div(o["meta.Harness.after_step"], n["meta.Harness.after_step"]) * scale * 1e6, "us"),
        "meta.thread_typing_ms": (o["meta.check_thread_typing"] / rounds * scale * 1e3, "ms"),
        "meta.store_check_ms": ((o["meta.check_store_typing"] + o["meta.check_store_consistency"])
                                / rounds * scale * 1e3, "ms"),
        "cli.overhead_ms": (_div(t.self_s["cli.main"], t.calls["cli.main"]) * scale * 1e3, "ms"),
    }


def traced_run(bench, ops, seconds: float, ref_s: float, out: Path) -> dict:
    """A third of the time untraced, the rest traced; returns the metrics."""
    _, _, plain = bench.rounds(ops, seconds / 3, min_rounds=2)
    tracer = Tracer()
    remove = install(tracer)
    try:
        bench.refs.clear()
        samples: list[list[float]] = [[] for _ in ops]
        steps = [0] * len(ops)
        t0 = perf_counter()
        tracer.keep = True
        traced = [bench.round(ops, samples, steps)]
        tracer.keep = False
        _, _, more = bench.rounds(ops, seconds * 2 / 3 - (perf_counter() - t0), min_rounds=0)
        traced += more
    finally:
        remove()
    scale = ref_s / statistics.median(bench.refs)
    metrics = layer_metrics(tracer, len(traced), scale)
    metrics["trace.overhead_pct"] = (
        (statistics.median(traced) / statistics.median(plain) - 1) * 100, "%")
    out.write_text(json.dumps({
        "fields": ["id", "name", "start_s", "end_s", "parent"],
        "spans": tracer.spans,
        "calls": dict(tracer.calls),
        "self_s": dict(tracer.self_s),
    }))
    return metrics
