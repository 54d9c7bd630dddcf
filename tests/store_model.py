"""A naive model of the runtime store, for model-based tests of `Store`.

The model keeps flat tables rather than a tree: each region's parent, each
region's per-thread (region count, lock count), and each cell's value.
Liveness is computed from them on demand.  Every operation copies the
tables, so a model is never changed once built, like a `Store`.  The rules
are written from the semantics, not from `store.py`: a fault is returned as
its code, a lock that must wait as the set of threads in the way.
"""

from __future__ import annotations

from typing import Optional, Union

from reglock.store import Blocked, Store
from reglock.syntax import CapOp, Effect, Expr, Location, RegionLit

Fault = str  # a `StoreFault` code


class Model:
    def __init__(self, parent: dict, counts: dict, cells: dict):
        self.parent: dict[RegionLit, Optional[RegionLit]] = parent
        self.counts: dict[RegionLit, dict[int, tuple[int, int]]] = counts
        self.cells: dict[Location, Expr] = cells

    @staticmethod
    def initial(root: RegionLit, tid: int) -> "Model":
        return Model({root: None}, {root: {tid: (1, 0)}}, {})

    def copy(self) -> "Model":
        return Model(dict(self.parent), {r: dict(c) for r, c in self.counts.items()},
                     dict(self.cells))

    # -- derived facts -----------------------------------------------------------

    def ancestors(self, rid: RegionLit) -> list[RegionLit]:
        """`rid` and its ancestors, up to the root."""
        out = []
        while rid is not None:
            out.append(rid)
            rid = self.parent[rid]
        return out

    def descendants(self, rid: RegionLit) -> set[RegionLit]:
        """`rid` and every region below it."""
        return {r for r in self.parent if rid in self.ancestors(r)}

    def mine(self, rid: RegionLit, tid: int) -> tuple[int, int]:
        return self.counts[rid].get(tid, (0, 0))

    def live(self, rid: RegionLit) -> bool:
        return rid in self.parent and all(
            sum(rg for rg, _ in self.counts[r].values()) > 0 for r in self.ancestors(rid))

    def locks(self, rid: RegionLit) -> set[int]:
        return {t for t, (_, lk) in self.counts[rid].items() if lk > 0}

    def snapshot(self) -> tuple[dict, dict, dict]:
        counts = {r: {t: c for t, c in cs.items() if c != (0, 0)}
                  for r, cs in self.counts.items()}
        return self.parent, counts, self.cells

    # -- operations: (new model, result) or a fault code ---------------------------

    def _set(self, rid: RegionLit, tid: int, rg: int, lk: int) -> "Model":
        out = self.copy()
        out.counts[rid][tid] = (rg, lk)
        return out

    def alloc(self, rid: RegionLit, idx: int, value: Expr) -> Union[Fault, tuple]:
        if not self.live(rid):
            return "NotLive"
        out, loc = self.copy(), Location(idx, rid)
        out.cells[loc] = value
        return out, loc

    def _access(self, loc: Location, tid: int) -> Optional[Fault]:
        if loc not in self.cells:
            return "UnknownLocation"
        held = any(self.mine(r, tid)[1] > 0 for r in self.ancestors(loc.region))
        return None if self.live(loc.region) and held else "Inaccessible"

    def lookup(self, loc: Location, tid: int) -> Union[Fault, tuple]:
        return self._access(loc, tid) or (self, self.cells[loc])

    def update(self, loc: Location, value: Expr, tid: int) -> Union[Fault, tuple]:
        fault = self._access(loc, tid)
        if fault:
            return fault
        out = self.copy()
        out.cells[loc] = value
        return out, None

    def newrgn(self, parent: RegionLit, tid: int, name: str) -> Union[Fault, tuple]:
        if not self.live(parent):
            return "NotLive"
        out, rid = self.copy(), RegionLit(name)
        out.parent[rid] = parent
        out.counts[rid] = {tid: (1, 1)}
        return out, rid

    def updcap(self, op: CapOp, rid: RegionLit, tid: int) -> Union[Fault, tuple]:
        if not self.live(rid):
            return "NotLive"
        rg, lk = self.mine(rid, tid)
        if op is CapOp.RG_PLUS:
            return "CountUnderflow" if rg < 1 else (self._set(rid, tid, rg + 1, lk), None)
        if op is CapOp.RG_MINUS:
            if rg < 1:
                return "CountUnderflow"
            out = self._set(rid, tid, rg - 1, lk)
            if sum(r for r, _ in out.counts[rid].values()) == 0:
                for gone in out.descendants(rid):
                    del out.parent[gone], out.counts[gone]
                out.cells = {l: v for l, v in out.cells.items() if l.region in out.parent}
            return out, None
        if op is CapOp.LK_PLUS:
            holders = set().union(*(self.locks(r) for r in self.ancestors(rid)),
                                  *(self.locks(r) for r in self.descendants(rid))) - {tid}
            if holders:
                return self, Blocked(rid, frozenset(holders))
            return self._set(rid, tid, rg, lk + 1), None
        return "CountUnderflow" if lk < 1 else (self._set(rid, tid, rg, lk - 1), None)

    def transfer(self, giver: int, taker: int, eff: Effect) -> Union[Fault, tuple]:
        out = self.copy()
        for r, cap, _ in eff.items():
            if r not in out.parent:
                return "InsufficientDynamicCounts"
            rg, lk = out.mine(r, giver)
            if rg < cap.rg or lk < cap.lk:
                return "InsufficientDynamicCounts"
            if giver != taker:
                out.counts[r][giver] = (rg - cap.rg, lk - cap.lk)
                got_rg, got_lk = out.mine(r, taker)
                out.counts[r][taker] = (got_rg + cap.rg, got_lk + cap.lk)
        return out, None


def store_snapshot(store: Store) -> tuple[dict, dict, dict]:
    """A store's tables in the model's form: parents, nonzero counts, cells."""
    parent: dict = {}
    counts: dict = {}
    cells: dict = {}
    for node in store.regions():
        counts[node.rid] = {t: (c.rg, c.lk) for t, c in node.threads}
        parent.setdefault(node.rid, None)
        for child in node.children:
            parent[child.rid] = node.rid
        cells.update(node.heap)
    return parent, counts, cells
