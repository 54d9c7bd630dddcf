"""The runtime store: a tree of regions.

Each region holds a per-thread count map (region count, lock count), a heap
mapping locations to values, and its child regions.  All operations are
functional: they return a new store and never mutate the old one, so
configurations can be branched cheaply during exhaustive exploration.

Operations are partial.  Failures split into two kinds: `Blocked` means a
lock operation must wait for another thread (the scheduler retries), while
`StoreFault` signals a soundness violation that well-typed programs never
reach.

Each operation is applied once per store: the store keeps each result,
`Blocked` included, outside its fields like a node's digest.  This is exact
because a store is immutable and an operation reads only it and its
arguments.  A fault is not kept: it raises on every call.
"""

from __future__ import annotations

import weakref
from hashlib import blake2b
from typing import Callable, Iterator, Optional

from .syntax import CapOp, Effect, Expr, Location, Record, RegionLit, cached_attr, expr_digest


class Counts(Record):
    def __init__(self, rg: int = 0, lk: int = 0) -> None:
        self.__dict__.update(rg=rg, lk=lk)

    def __str__(self) -> str:
        return f"({self.rg},{self.lk})"


ZERO = Counts(0, 0)


class StoreFault(Exception):
    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


class Blocked(Record):
    """A lock operation must wait; `holders` are the threads in the way."""

    def __init__(self, region: RegionLit, holders: frozenset[int]) -> None:
        self.__dict__.update(region=region, holders=holders)


class RegionNode(Record):
    # threads: sorted by thread id; heap: sorted by location index
    def __init__(self, rid: RegionLit, threads: tuple[tuple[int, Counts], ...],
                 heap: tuple[tuple[Location, Expr], ...],
                 children: tuple[RegionNode, ...]) -> None:
        self.__dict__.update(rid=rid, threads=threads, heap=heap, children=children)

    def counts_for(self, tid: int) -> Counts:
        for t, c in self.threads:
            if t == tid:
                return c
        return ZERO

    def total_rg(self) -> int:
        return sum(c.rg for _, c in self.threads)

    def lock_holders(self) -> frozenset[int]:
        return frozenset(t for t, c in self.threads if c.lk > 0)

    def with_counts(self, tid: int, counts: Counts) -> "RegionNode":
        table = {t: c for t, c in self.threads}
        if counts == ZERO:
            table.pop(tid, None)
        else:
            table[tid] = counts
        return RegionNode(self.rid, tuple(sorted(table.items())), self.heap, self.children)

    def heap_get(self, loc: Location) -> Optional[Expr]:
        for l, v in self.heap:
            if l == loc:
                return v
        return None

    def heap_set(self, loc: Location, value: Expr) -> "RegionNode":
        table = {l: v for l, v in self.heap}
        table[loc] = value
        heap = tuple(sorted(table.items(), key=lambda kv: kv[0].idx))
        return RegionNode(self.rid, self.threads, heap, self.children)

    def digest(self) -> bytes:
        """Merkle digest of the subtree: the region name, the per-thread
        counts, each heap entry (location, value digest) and the children
        in name order; cached on the node like a term's digest."""
        digest = self.__dict__.get("_digest")
        return digest or cached_attr(self, "_digest", _sorted_children, _region_digest)


def _sorted_children(node: RegionNode) -> list[RegionNode]:
    return sorted(node.children, key=lambda n: n.rid.name)


def _region_digest(node: RegionNode, kid_digests: list) -> bytes:
    counts = " ".join(f"{t}:{c.rg},{c.lk}" for t, c in node.threads)
    heap = b"".join(f"{l}\0".encode() + expr_digest(v) for l, v in node.heap)
    return blake2b(f"{node.rid}\0{counts}\0{len(node.heap)}\0".encode() + heap
                   + b"".join(kid_digests), digest_size=16).digest()


class Store(Record):
    def __init__(self, root: Optional[RegionNode]) -> None:
        self.__dict__.update(root=root)

    _ops = None  # the memo of `_memo`; not a field, so eq, hash and repr ignore it

    # -- traversal ---------------------------------------------------------------

    def path_to(self, rid: RegionLit) -> Optional[tuple[RegionNode, ...]]:
        """Root-to-node path, or None when the region does not exist.
        Depth first and in child order, from an explicit stack of paths."""
        stack = [(self.root,)] if self.root is not None else []
        while stack:
            path = stack.pop()
            if path[-1].rid == rid:
                return path
            stack.extend(path + (child,) for child in reversed(path[-1].children))
        return None

    def find(self, rid: RegionLit) -> Optional[RegionNode]:
        path = self.path_to(rid)
        return path[-1] if path else None

    def regions(self) -> Iterator[RegionNode]:
        """Every region node, parents before children, in child order."""
        stack = [self.root] if self.root is not None else []
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    @staticmethod
    def _rebuild(path: tuple[RegionNode, ...], node: Optional[RegionNode]) -> "Store":
        """The store with `node` in place of the last node of `path`, a
        root-to-node path; None deletes that subtree.  Only the nodes on
        the path are rebuilt."""
        old = path[-1]
        for parent in reversed(path[:-1]):
            kids = (tuple(k for k in parent.children if k is not old) if node is None
                    else tuple(node if k is old else k for k in parent.children))
            old, node = parent, RegionNode(parent.rid, parent.threads, parent.heap, kids)
        return Store(node)

    # -- liveness and accessibility -----------------------------------------------

    def _live_path(self, rid: RegionLit) -> Optional[tuple[RegionNode, ...]]:
        """The path to `rid` when it and all its ancestors have a positive
        total region count, else None."""
        path = self.path_to(rid)
        if path is None or not all(n.total_rg() > 0 for n in path):
            return None
        return path

    # -- the five partial functions plus transfer ----------------------------------

    def _memo(self, key: tuple, *args):
        """`key[0](self, *args)`, an operation's body, computed once per key on
        this store.  The key names the body and its arguments, a term or
        effect by `id`; the entry keeps them, so no such `id` is reused.  A
        result store is kept weakly and by its root: memos keep no store alive."""
        ops = self._ops
        if ops is None:
            ops = {}
            object.__setattr__(self, "_ops", ops)
        else:
            hit = ops.get(key)
            if hit is not None:
                ref, value, _ = hit
                return value if ref is None else ref() or Store(value)
        result = key[0](self, *args)
        ops[key] = ((weakref.ref(result), result.root, args) if isinstance(result, Store)
                    else (None, result, args))
        return result

    def alloc(self, rid: RegionLit, loc_idx: int, value: Expr) -> tuple["Store", Location]:
        store = self._memo((Store._alloc, rid, loc_idx, id(value)), rid, loc_idx, value)
        return store, Location(loc_idx, rid)

    def lookup(self, loc: Location, tid: int) -> Expr:
        return self._memo((Store._lookup, loc.idx, loc.region, tid), loc, tid)

    def update(self, loc: Location, value: Expr, tid: int) -> "Store":
        return self._memo((Store._update, loc.idx, loc.region, id(value), tid), loc, value, tid)

    def newrgn(self, parent: RegionLit, tid: int, name: str) -> tuple["Store", RegionLit]:
        return self._memo((Store._newrgn, parent, tid, name), parent, tid, name), RegionLit(name)

    def updcap(self, op: CapOp, rid: RegionLit, tid: int):
        """Returns a new Store, or Blocked when a lock must be waited for."""
        return self._memo((Store._updcap, op, rid, tid), op, rid, tid)

    def transfer(self, giver: int, taker: int, eff: Effect) -> "Store":
        """Move the capability counts named by eff from giver to taker."""
        return self._memo((Store._transfer, giver, taker, id(eff)), giver, taker, eff)

    def _alloc(self, rid: RegionLit, loc_idx: int, value: Expr) -> "Store":
        path = self._live_path(rid)
        if path is None:
            raise StoreFault("NotLive", f"allocation into dead region {rid}")
        return self._rebuild(path, path[-1].heap_set(Location(loc_idx, rid), value))

    def _accessible_path(self, loc: Location, tid: int, verb: str) -> tuple[RegionNode, ...]:
        """The path to `loc`'s region, which must hold `loc`, be live and be
        locked by `tid` there or at an ancestor."""
        path = self.path_to(loc.region)
        if path is None or path[-1].heap_get(loc) is None:
            raise StoreFault("UnknownLocation", f"location {loc} does not exist")
        if not (all(n.total_rg() > 0 for n in path)  # live
                and any(n.counts_for(tid).lk > 0 for n in path)):
            raise StoreFault("Inaccessible",
                             f"thread {tid} {verb} {loc} without holding a lock on "
                             f"{loc.region} or an ancestor")
        return path

    def _lookup(self, loc: Location, tid: int) -> Expr:
        return self._accessible_path(loc, tid, "reads")[-1].heap_get(loc)

    def _update(self, loc: Location, value: Expr, tid: int) -> "Store":
        path = self._accessible_path(loc, tid, "writes")
        return self._rebuild(path, path[-1].heap_set(loc, value))

    def _newrgn(self, parent: RegionLit, tid: int, name: str) -> "Store":
        path = self._live_path(parent)
        if path is None:
            raise StoreFault("NotLive", f"new region under dead region {parent}")
        child = RegionNode(RegionLit(name), ((tid, Counts(1, 1)),), (), ())
        node = path[-1]
        return self._rebuild(path, RegionNode(node.rid, node.threads, node.heap,
                                              node.children + (child,)))

    def _updcap(self, op: CapOp, rid: RegionLit, tid: int):
        path = self._live_path(rid)
        if path is None:
            raise StoreFault("NotLive", f"capability update on dead region {rid}")
        node = path[-1]
        mine = node.counts_for(tid)
        if op is CapOp.RG_PLUS:
            if mine.rg < 1:
                raise StoreFault("CountUnderflow",
                                 f"thread {tid} shares {rid} without holding a region count")
            return self._rebuild(path, node.with_counts(tid, Counts(mine.rg + 1, mine.lk)))
        if op is CapOp.RG_MINUS:
            if mine.rg < 1:
                raise StoreFault("CountUnderflow",
                                 f"thread {tid} frees {rid} without holding a region count")
            node = node.with_counts(tid, Counts(mine.rg - 1, mine.lk))
            # Bulk deallocation: at a zero total the whole subtree goes at once.
            return self._rebuild(path, node if node.total_rg() > 0 else None)
        if op is CapOp.LK_PLUS:
            blockers = self._lock_blockers(path, tid)
            if blockers:
                return Blocked(rid, blockers)
            return self._rebuild(path, node.with_counts(tid, Counts(mine.rg, mine.lk + 1)))
        if op is CapOp.LK_MINUS:
            if mine.lk < 1:
                raise StoreFault("CountUnderflow",
                                 f"thread {tid} unlocks {rid} without holding its lock")
            return self._rebuild(path, node.with_counts(tid, Counts(mine.rg, mine.lk - 1)))
        raise TypeError(f"unknown capability operator {op!r}")

    @staticmethod
    def _lock_blockers(path: tuple[RegionNode, ...], tid: int) -> frozenset[int]:
        """Threads preventing `tid` from locking the last region of `path`.

        A lock on a region atomically covers its subtree, so acquisition must
        wait while any other thread holds a lock on the region itself, on an
        ancestor, or anywhere inside its subtree.
        """
        holders: set[int] = set()
        for node in path:  # region itself and its ancestors
            holders |= node.lock_holders()
        for node in Store(path[-1]).regions():  # its subtree
            holders |= node.lock_holders()
        holders.discard(tid)
        return frozenset(holders)

    def _transfer(self, giver: int, taker: int, eff: Effect) -> "Store":
        out = self
        for r, cap, _ in eff.items():
            path = out.path_to(r)
            if path is None:
                raise StoreFault("InsufficientDynamicCounts",
                                 f"transfer names missing region {r}")
            have = path[-1].counts_for(giver)
            if have.rg < cap.rg or have.lk < cap.lk:
                raise StoreFault("InsufficientDynamicCounts",
                                 f"thread {giver} holds {have} of {r}, cannot "
                                 f"transfer ({cap.rg},{cap.lk})")
            if giver == taker:
                continue
            node = path[-1].with_counts(giver, Counts(have.rg - cap.rg, have.lk - cap.lk))
            got = node.counts_for(taker)
            node = node.with_counts(taker, Counts(got.rg + cap.rg, got.lk + cap.lk))
            out = out._rebuild(path, node)
        return out

    # -- serialization ---------------------------------------------------------------

    def to_json(self, value_str: Callable[[Expr], str]) -> Optional[dict]:
        return _region_json(self.root, value_str) if self.root is not None else None


def _region_json(node: RegionNode, value_str: Callable[[Expr], str]) -> dict:
    return {
        "region": str(node.rid),
        "threads": {str(t): [c.rg, c.lk] for t, c in node.threads},
        "heap": {str(l): value_str(v) for l, v in node.heap},
        "children": [_region_json(c, value_str) for c in _sorted_children(node)],
    }


_last: tuple = (None, None, None)  # the last call of `changes`, which both store checks make


def changes(old: Optional[Store], new: Store) -> tuple[dict, set[RegionLit]]:
    """What `new` changed of `old`: each node of `new` that is not the node
    at its place in `old`, as (that node or None, its path from the root),
    parents first in child order, and the regions that `new` lost.  Path
    copying keeps every other node the same object, so the walk enters only
    nodes that differ.  Against no store every node is new."""
    global _last
    if _last[0] is old and _last[1] is new:
        return _last[2]
    found, gone = {}, set()
    root = old.root if old is not None else None
    stack = [] if root is new.root else [
        (None, (), (root,) if root else (), (new.root,) if new.root else ())]
    while stack:
        was, path, old_kids, kids = stack.pop()
        if path:
            found[path[-1].rid] = (was, path)
        if old_kids is not kids:  # children matched by name
            olds = {k.rid: k for k in old_kids}
            for kid in reversed(kids):
                o = olds.pop(kid.rid, None)
                if o is not kid:
                    stack.append((o, path + (kid,), o.children if o else (), kid.children))
            gone.update(n.rid for o in olds.values() for n in Store(o).regions())
    _last = (old, new, (found, gone - found.keys()))
    return _last[2]


def initial_store(heap: RegionLit, tid: int) -> Store:
    """The heap region alone, with the first thread holding (1,0)."""
    return Store(RegionNode(heap, ((tid, Counts(1, 0)),), (), ()))
