from __future__ import annotations

import pathlib

import pytest

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"

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


def paired_long_seq(n: int) -> str:
    """One thread sharing and freeing a region n times, nested in pairs:
    `((share h; free h); …; free h)` runs in 4n+5 steps."""
    pairs = "; ".join(["(share h; free h)"] * n)
    return ("def main = /\\rhoH. \\heap: rgn(rhoH) @ "
            "[{rhoH^(1,0)@_} -> {rhoH^(1,0)@_}].\n"
            f"  newrgn rho, h at heap in\n  ({pairs};\n   free h)\n")


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

#: A handle left in a dead position after its region is freed: `work` frees
#: `h` while `idle` still holds it, and `idle` only evaluates it.
DEAD_HANDLE = """
def idle = /\\rhoH. /\\rho. \\(hh: rgn(rhoH), h: rgn(rho)) @ [{rhoH^~(1,0)@_} -> {}]. (h; free hh)
def work = /\\rhoH. \\heap: rgn(rhoH) @ [{rhoH^(1,0)@_} -> {rhoH^~(1,0)@_}].
  newrgn rho, h at heap in (share heap; spawn idle[rhoH][rho](heap, h); free h)
def main = /\\rhoH. \\heap: rgn(rhoH) @ [{rhoH^(1,0)@_} -> {rhoH^(1,0)@_}].
  work[rhoH](heap)
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
