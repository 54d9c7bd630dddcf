from __future__ import annotations

import os
import pathlib

import pytest

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"
SRC = CORPUS.parent / "src"

#: Programs the checker accepts.
WELL_TYPED = [
    "basic_region.rgn",
    "hierarchy.rgn",
    "bulk_free.rgn",
    "migration.rgn",
    "sharing.rgn",
    "migration_once.rgn",
    "sharing_once.rgn",
    "ancestor_lock.rgn",
    "alias_swap_locked.rgn",
    "alias_swap_reentrant.rgn",
    "many_threads.rgn",
    "deadlock_racy.rgn",
]

#: Well-typed programs that terminate (loop-free), safe to run/explore.
RUNNABLE = [
    "basic_region.rgn",
    "hierarchy.rgn",
    "bulk_free.rgn",
    "migration_once.rgn",
    "sharing_once.rgn",
    "ancestor_lock.rgn",
    "alias_swap_locked.rgn",
    "alias_swap_reentrant.rgn",
    "many_threads.rgn",
    "deadlock_racy.rgn",
]

#: Rejected by the checker; exercised through the run-unchecked hook.
ILL_TYPED = ["impure_escape.rgn", "deadlock_forced.rgn", "race_unlocked.rgn"]


@pytest.fixture(scope="session")
def corpus_dir() -> pathlib.Path:
    return CORPUS


def corpus_text(name: str) -> str:
    return (CORPUS / name).read_text()


def src_env(**extra: str) -> dict[str, str]:
    """This process's environment with `src/` first on `PYTHONPATH`, and
    `extra`: for a subprocess that imports reglock, which pytest's
    `pythonpath` setting does not reach."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **extra}


def rebuild(record, **changes):
    """A new record of `record`'s class from its declared fields, with
    `changes` in place of some; it carries no value cached on `record`."""
    fields = {name: getattr(record, name) for name in record._fields}
    return type(record)(**{**fields, **changes})


def paired_long_seq(n: int) -> str:
    """One thread sharing and freeing a region n times, nested in pairs:
    `((share h; free h); …; free h)` runs in 4n+5 steps."""
    pairs = "; ".join(["(share h; free h)"] * n)
    return ("def main = /\\rhoH. \\heap: rgn(rhoH) @ "
            "[{rhoH^(1,0)@_} -> {rhoH^(1,0)@_}].\n"
            f"  newrgn rho, h at heap in\n  ({pairs};\n   free h)\n")



def lock_tree(depth: int) -> str:
    """Main spawns two workers on a region chain heap > r1 > ... > rD:
    `wa` locks r1 and bumps every counter, `wb` locks rD and bumps its own."""
    ids = range(1, depth + 1)
    parent = {i: "rhoH" if i == 1 else f"r{i - 1}" for i in ids}
    params = ", ".join(["hh: rgn(rhoH)"] + [f"h{i}: rgn(r{i})" for i in ids]
                       + [f"c{i}: ref(int, r{i})" for i in ids])
    eff = ", ".join(["rhoH^~(1,0)@_"] + [f"r{i}^~(1,0)@{parent[i]}" for i in ids])
    frees = "; ".join([f"free h{i}" for i in reversed(ids)] + ["free hh"])
    head = "/\\rhoH. " + "".join(f"/\\r{i}. " for i in ids)
    bump = "; ".join(f"c{i} := deref c{i} + 1" for i in ids)
    worker = f"{head}\\({params})\n    @ [{{{eff}}} -> {{}}].\n  ("
    args = "[rhoH]" + "".join(f"[r{i}]" for i in ids) + "(heap, " + ", ".join(
        [f"h{i}" for i in ids] + [f"c{i}" for i in ids]) + ")"
    body = "".join(f"  newrgn r{i}, h{i} at {'heap' if i == 1 else f'h{i - 1}'} in\n"
                   for i in ids)
    body += "".join(f"  let c{i} = new {i} at h{i} in\n" for i in ids)
    body += ("  (" + "; ".join(f"unlock h{i}" for i in reversed(ids)) + ";\n   "
             + "; ".join(f"share h{i}; share h{i}" for i in ids)
             + "; share heap; share heap;\n"
             f"   spawn wa{args};\n   spawn wb{args};\n   "
             + "; ".join(f"free h{i}" for i in reversed(ids)) + ")")
    return (f"def wa = {worker}lock h1; {bump}; unlock h1; {frees})\n\n"
            f"def wb = {worker}lock h{depth}; c{depth} := deref c{depth} + 1; "
            f"unlock h{depth}; {frees})\n\n"
            "def work = /\\rhoH. \\heap: rgn(rhoH) @ [{rhoH^~(1,0)@_} -> {rhoH^~(1,0)@_}].\n"
            f"{body}\n\n"
            "def main = /\\rhoH. \\heap: rgn(rhoH) @ [{rhoH^(1,0)@_} -> {rhoH^(1,0)@_}].\n"
            "  work[rhoH](heap)\n")


#: A spawn under region binders that shadow each other: the parser names the
#: inner `rho` `rho%1`, in the body that holds the spawn.
SHADOWED_SPAWN = """
def nop = /\\rhoH. \\heap: rgn(rhoH) @ [{rhoH^~(1,0)@_} -> {}].
  free heap

def work = /\\rhoH. \\heap: rgn(rhoH) @ [{rhoH^~(1,0)@_} -> {rhoH^~(1,0)@_}].
  newrgn rho, h at heap in
  newrgn rho, h2 at h in
  (share heap;
   spawn nop[rhoH](heap);
   free h2;
   free h)

def main = /\\rhoH. \\heap: rgn(rhoH) @ [{rhoH^(1,0)@_} -> {rhoH^(1,0)@_}].
  work[rhoH](heap)
"""

#: `newrgn` at parent handles still to be evaluated.  The machine steps a
#: handle inside the `newrgn`, whose body, closed over the bindings around
#: it, is open in the `newrgn`'s own names until its E-NG; the outer `newrgn`
#: binds `h` again, which the `let` around it bound to a value.
COMPUTED_HANDLE = """
def nop = /\\rhoH. \\heap: rgn(rhoH) @ [{rhoH^~(1,0)@_} -> {}].
  free heap

def work = /\\rhoH. \\heap: rgn(rhoH) @ [{rhoH^~(1,0)@_} -> {rhoH^~(1,0)@_}].
  let y = 1 in
  let h = heap in
  newrgn rho, h at (if y == 1 then h else heap) in
  newrgn rho, h2 at (if true then h else h) in
  (let r = new y at h2 in r := deref r + y;
   share heap;
   spawn nop[rhoH](heap);
   free h2;
   free h)

def main = /\\rhoH. \\heap: rgn(rhoH) @ [{rhoH^(1,0)@_} -> {rhoH^(1,0)@_}].
  work[rhoH](heap)
"""

#: A handle left in a dead position after its region is freed: `work` frees
#: `h` while `idle` still holds it, and `idle` only evaluates it.
DEAD_HANDLE = """
def idle = /\\rhoH. /\\rho. \\(hh: rgn(rhoH), h: rgn(rho)) @ [{rhoH^~(1,0)@_} -> {}]. (h; free hh)
def work = /\\rhoH. \\heap: rgn(rhoH) @ [{rhoH^(1,0)@_} -> {rhoH^~(1,0)@_}].
  newrgn rho, h at heap in (share heap; spawn idle[rhoH][rho](heap, h); free h)
def main = /\\rhoH. \\heap: rgn(rhoH) @ [{rhoH^(1,0)@_} -> {rhoH^(1,0)@_}].
  work[rhoH](heap)
"""

#: A call the machine inlines before a call it keeps.  Checked as written,
#: the call `f[r](h)` splits `r`'s capability and leaves it impure.  Once E-A
#: inlines it, `free h` acts on the whole, pure capability, so the re-typed
#: `if` ends with `r` pure after `free h` but impure after the call `g[r](h)`.
#: The harness compares counts and parents only (see the `meta` docstring);
#: comparing purity too would report an EffectMismatch at step 8.
INLINED_PURITY = """
def f = /\\rho. \\h: rgn(rho) @ [{rho^~(1,0)@?} -> {}]. free h
def g = /\\rho. \\h: rgn(rho) @ [{rho^~(1,0)@?} -> {}]. free h
def main = /\\rhoH. \\heap: rgn(rhoH) @ [{rhoH^(1,0)@_} -> {rhoH^(1,0)@_}].
  newrgn r, h at heap in (share h; share h; f[r](h); if true then g[r](h) else free h; free h)
"""

#: A call that splits a capability and puts it back whole.  `split` shares
#: `h` and spawns one piece away; the checker joins `split`'s output back into
#: `work`'s effect and finds `r`'s counts restored, so `r` is pure again and
#: the pure, whole spawn of `whole` type-checks.  Once E-A inlines `split`, no
#: join restores purity, and only a split by counts alone (as the harness
#: makes, re-typing and at E-SN) lets `whole` take `r`.
SPLIT_THEN_WHOLE = """
def away = /\\rhoH. /\\rho. \\(hh: rgn(rhoH), h: rgn(rho))
    @ [{rhoH^~(1,0)@_, rho^~(1,0)@rhoH} -> {}].
  (free h; free hh)
def split = /\\rhoH. /\\rho. \\(hh: rgn(rhoH), h: rgn(rho))
    @ [{rhoH^~(1,0)@_, rho^~(1,0)@rhoH} -> {rhoH^~(1,0)@_, rho^~(1,0)@rhoH}].
  (share hh; share h; spawn away[rhoH][rho](hh, h))
def whole = /\\rhoH. /\\rho. \\(hh: rgn(rhoH), h: rgn(rho))
    @ [{rhoH^~(1,0)@_, rho^(2,0)@rhoH} -> {}].
  (free h; free h; free hh)
def work = /\\rhoH. \\heap: rgn(rhoH) @ [{rhoH^~(1,0)@_} -> {rhoH^~(1,0)@_}].
  newrgn r, h at heap in
  (unlock h; share h; share heap; split[rhoH][r](heap, h); spawn whole[rhoH][r](heap, h))
def main = /\\rhoH. \\heap: rgn(rhoH) @ [{rhoH^(1,0)@_} -> {rhoH^(1,0)@_}].
  work[rhoH](heap)
"""

#: A body that names a region literal when a step enters it.  `f` is stored,
#: so its annotations are read back with `rho`'s literal, and `(deref f)[rho]`
#: enters its body with `r` bound to that same literal.  Renaming the literal
#: back to `r` would rename the body's own `rho` too, so the harness types
#: that body with its region bindings substituted (`Checker.check_bound`).
LITERAL_BODY = """
def main = /\\rhoH. \\heap: rgn(rhoH) @ [{rhoH^(1,0)@_} -> {rhoH^(1,0)@_}].
  newrgn rho, h at heap in
  let c = new 1 at h in
  let f = new (/\\r. \\(x: ref(int, rho), y: ref(int, r))
      @ [{rho^~(1,1)@?, r^~(1,1)@?} -> {rho^~(1,1)@?, r^~(1,1)@?}].
    x := deref y + 1) at h in
  (share h; lock h;
   (deref f)[rho](c, c);
   unlock h; unlock h;
   free h; free h)
"""

#: A `let` that binds the name of a definition its body also calls.  `main`
#: is closed over `f`, so while the `let`'s right-hand side steps, its binder
#: sits in a closure whose bindings hold the definition `f`, which the
#: binder shadows.
SHADOWED_DEFINITION = """
def f = \\x: int @ [{} -> {}]. x + 1
def main = /\\rhoH. \\heap: rgn(rhoH) @ [{rhoH^(1,0)@_} -> {rhoH^(1,0)@_}].
  newrgn rho, h at heap in
  let z = new f(1) at h in
  let f = 1 + 1 in
  (z := deref z + f;
   free h)
"""

#: An accepted program that the machine cannot run under the harness, an
#: open soundness gap (ROADMAP item 17).  `g[rho][rho]` instantiates both of
#: `g`'s region variables at one region, and the checker substitutes only
#: the instance's type, which does not name the inner lambda; once E-RP
#: binds `r1` and `r2` to the same literal, that lambda's annotation has two
#: entries for it, with different parents, which cannot merge.
ALIASED_ANNOTATION = """
def g = /\\r1. /\\r2. \\(h1: rgn(r1), h2: rgn(r2))
    @ [{r1^~(1,0)@?, r2^~(1,0)@?} -> {r1^~(1,0)@?, r2^~(1,0)@?}].
  ((\\u: unit @ [{r1^(1,0)@_, r2^(1,0)@r1} -> {r1^(1,0)@_, r2^(1,0)@r1}]. u); ())
def main = /\\rhoH. \\heap: rgn(rhoH) @ [{rhoH^(1,0)@_} -> {rhoH^(1,0)@_}].
  newrgn rho, h at heap in
  (share h; share h; g[rho][rho](h, h); unlock h; free h; free h; free h)
"""

#: Accepted programs for checks no corpus program reaches: a parameter of
#: function type and an `if` (TWICE), and a cell of region-polymorphic type
#: assigned an alpha-equivalent value (POLY_CELL).
TWICE = """
def inc = \\x: int @ [{} -> {}]. x + 1
def twice = \\(f: fn(int) @ [{} -> {}] -> int, x: int) @ [{} -> {}].
  if x < 0 then 0 else f(f(x))
def main = /\\rhoH. \\heap: rgn(rhoH) @ [{rhoH^(1,0)@_} -> {rhoH^(1,0)@_}].
  newrgn rho, h at heap in
  let z = new 1 at h in
  (z := twice(inc, deref z);
   free h)
"""

POLY_CELL = """
def main = /\\rhoH. \\heap: rgn(rhoH) @ [{rhoH^(1,0)@_} -> {rhoH^(1,0)@_}].
  newrgn rho, h at heap in
  let z = new (/\\a. \\x: int @ [{} -> {}]. x) at h in
  (z := (/\\b. \\y: int @ [{} -> {}]. y + 1);
   free h)
"""
