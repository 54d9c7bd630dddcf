from __future__ import annotations

import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import Bundle, RuleBasedStateMachine, initialize, multiple, rule

from reglock.store import Blocked, Counts, RegionNode, Store, StoreFault, initial_store
from reglock.syntax import Capability, CapOp, Const, Effect, Location, RegionLit, BOTTOM
from store_model import Model, store_snapshot

H = RegionLit("H")
A = RegionLit("a")
B = RegionLit("b")
C = RegionLit("c")


def node(rid, threads, heap=(), children=()):
    return RegionNode(rid, tuple(sorted(threads.items())), tuple(heap), tuple(children))


def three_level(mid_counts: dict[int, Counts]) -> Store:
    leaf = node(C, {1: Counts(1, 1)})
    mid = node(B, mid_counts, children=(leaf,))
    return Store(node(A, {1: Counts(1, 0)}, children=(mid,)))


def is_live(store: Store, rid: RegionLit) -> bool:
    """Whether `alloc`, which faults NotLive on a dead region, accepts `rid`."""
    try:
        store.alloc(rid, 0, Const(0))
    except StoreFault as exc:
        assert exc.code == "NotLive"
        return False
    return True


def is_accessible(store: Store, rid: RegionLit, tid: int) -> bool:
    """Whether `tid` may read a cell allocated in the live region `rid`."""
    store, loc = store.alloc(rid, 0, Const(0))
    try:
        store.lookup(loc, tid)
    except StoreFault as exc:
        assert exc.code == "Inaccessible"
        return False
    return True


def parent_of(store: Store, rid: RegionLit) -> RegionLit:
    return store.path_to(rid)[-2].rid


def mutual_exclusion_ok(store: Store) -> bool:
    """At most one lock holder per region, and no foreign locks inside any
    held subtree."""
    for node in store.regions():
        holders = node.lock_holders()
        if len(holders) > 1:
            return False
        if holders and any(sub.lock_holders() - holders
                           for sub in Store(node).regions() if sub is not node):
            return False
    return True


def live_oracle(store: Store, rid: RegionLit) -> bool:
    """Independent recursive definition: positive count sum and live ancestors."""
    path = store.path_to(rid)
    if path is None:
        return False
    def total(n):
        return sum(c.rg for _, c in n.threads)
    if len(path) == 1:
        return total(path[0]) > 0
    return total(path[-1]) > 0 and live_oracle(store, path[-2].rid)


class TestLiveness:
    def test_fresh_region_under_live_parent(self):
        store, rid = initial_store(H, 1).newrgn(H, 1, "a")
        assert is_live(store, rid) is live_oracle(store, rid) is True

    def test_zero_sum_region_is_dead(self):
        store = Store(node(A, {1: Counts(0, 0)}))
        assert is_live(store, A) is live_oracle(store, A) is False

    def test_dead_ancestor_kills_descendants(self):
        # Hand-built three-level store whose middle region has count sum 0.
        store = three_level({1: Counts(0, 1)})
        assert live_oracle(store, C) is False
        assert is_live(store, C) is False
        assert is_live(store, A) is True

    def test_unknown_region(self):
        assert is_live(initial_store(H, 1), A) is False


class TestAccessibility:
    def test_grandparent_lock_grants_access(self):
        leaf = node(C, {1: Counts(1, 0)})
        mid = node(B, {1: Counts(1, 0)}, children=(leaf,))
        store = Store(node(A, {1: Counts(1, 1)}, children=(mid,)))
        assert is_accessible(store, C, 1)

    def test_no_lock_anywhere(self):
        store = three_level({1: Counts(1, 0)})
        assert not is_accessible(store, B, 1)

    def test_other_threads_lock_does_not_help(self):
        store = Store(node(A, {1: Counts(1, 1), 2: Counts(1, 0)}))
        assert is_accessible(store, A, 1)
        assert not is_accessible(store, A, 2)


class TestHeapOps:
    def test_alloc_lookup(self):
        store, rid = initial_store(H, 1).newrgn(H, 1, "a")
        store, loc = store.alloc(rid, 1, Const(10))
        assert store.lookup(loc, 1) == Const(10)

    def test_alloc_into_dead_region(self):
        store, rid = initial_store(H, 1).newrgn(H, 1, "a")
        store = store.updcap(CapOp.LK_MINUS, rid, 1)
        store = store.updcap(CapOp.RG_MINUS, rid, 1)
        with pytest.raises(StoreFault) as exc:
            store.alloc(rid, 1, Const(1))
        assert exc.value.code == "NotLive"

    def test_two_allocs_are_distinct(self):
        store, rid = initial_store(H, 1).newrgn(H, 1, "a")
        store, l1 = store.alloc(rid, 1, Const(1))
        store, l2 = store.alloc(rid, 2, Const(2))
        assert l1 != l2
        assert store.lookup(l1, 1) == Const(1)
        assert store.lookup(l2, 1) == Const(2)

    def test_lookup_by_non_holder_faults(self):
        store, rid = initial_store(H, 1).newrgn(H, 1, "a")
        store, loc = store.alloc(rid, 1, Const(10))
        with pytest.raises(StoreFault) as exc:
            store.lookup(loc, 2)
        assert exc.value.code == "Inaccessible"

    def test_lookup_unknown_location(self):
        # A location is looked up in the region it names: a missing region,
        # or a region without that cell, is an unknown location.
        store, rid = initial_store(H, 1).newrgn(H, 1, "a")
        store, loc = store.alloc(rid, 1, Const(10))
        freed = store.updcap(CapOp.LK_MINUS, rid, 1).updcap(CapOp.RG_MINUS, rid, 1)
        for store, loc in ((store, Location(99, H)), (store, Location(loc.idx, H)),
                           (freed, loc)):
            with pytest.raises(StoreFault) as exc:
                store.lookup(loc, 1)
            assert exc.value.code == "UnknownLocation"

    def test_lookup_under_a_dead_ancestor_is_inaccessible(self):
        # The middle region's total is 0, so the leaf is dead although its
        # own count and lock are positive.
        loc = Location(1, C)
        leaf = node(C, {1: Counts(1, 1)}, heap=((loc, Const(3)),))
        mid = node(B, {1: Counts(0, 1)}, children=(leaf,))
        store = Store(node(A, {1: Counts(1, 0)}, children=(mid,)))
        with pytest.raises(StoreFault) as exc:
            store.lookup(loc, 1)
        assert exc.value.code == "Inaccessible"

    def test_update_then_lookup(self):
        store, rid = initial_store(H, 1).newrgn(H, 1, "a")
        store, loc = store.alloc(rid, 1, Const(10))
        store, other = store.alloc(rid, 2, Const(7))
        store = store.update(loc, Const(11), 1)
        assert store.lookup(loc, 1) == Const(11)
        assert store.lookup(other, 1) == Const(7)  # frame

    def test_update_by_non_holder_faults(self):
        store, rid = initial_store(H, 1).newrgn(H, 1, "a")
        store, loc = store.alloc(rid, 1, Const(10))
        with pytest.raises(StoreFault) as exc:
            store.update(loc, Const(0), 2)
        assert exc.value.code == "Inaccessible"


class TestNewRegion:
    def test_child_starts_one_one(self):
        store, rid = initial_store(H, 1).newrgn(H, 1, "a")
        assert store.find(rid).counts_for(1) == Counts(1, 1)
        assert parent_of(store, rid) == H

    def test_under_dead_region_faults(self):
        store, rid = initial_store(H, 1).newrgn(H, 1, "a")
        store = store.updcap(CapOp.LK_MINUS, rid, 1)
        store = store.updcap(CapOp.RG_MINUS, rid, 1)
        with pytest.raises(StoreFault) as exc:
            store.newrgn(rid, 1, "b")
        assert exc.value.code == "NotLive"

    def test_nested_chain(self):
        store, r1 = initial_store(H, 1).newrgn(H, 1, "a")
        store, r2 = store.newrgn(r1, 1, "b")
        store, r3 = store.newrgn(r2, 1, "c")
        assert parent_of(store, r3) == r2 and parent_of(store, r2) == r1


class TestUpdcap:
    def test_reentrant_lock_counts(self):
        store = Store(node(A, {1: Counts(1, 0)}))
        store = store.updcap(CapOp.LK_PLUS, A, 1)
        store = store.updcap(CapOp.LK_PLUS, A, 1)
        assert store.find(A).counts_for(1) == Counts(1, 2)
        store = store.updcap(CapOp.LK_MINUS, A, 1)
        assert store.find(A).counts_for(1) == Counts(1, 1)  # still held
        assert is_accessible(store, A, 1)

    def test_lock_blocked_by_other_holder(self):
        store = Store(node(A, {1: Counts(1, 1), 2: Counts(1, 0)}))
        result = store.updcap(CapOp.LK_PLUS, A, 2)
        assert isinstance(result, Blocked)
        assert result.holders == {1}

    def test_lock_blocked_by_ancestor_holder(self):
        mid = node(B, {2: Counts(1, 0)})
        store = Store(node(A, {1: Counts(1, 1)}, children=(mid,)))
        result = store.updcap(CapOp.LK_PLUS, B, 2)
        assert isinstance(result, Blocked) and result.holders == {1}

    def test_lock_blocked_by_descendant_holder(self):
        mid = node(B, {2: Counts(1, 1)})
        store = Store(node(A, {1: Counts(1, 0)}, children=(mid,)))
        result = store.updcap(CapOp.LK_PLUS, A, 1)
        assert isinstance(result, Blocked) and result.holders == {2}

    def test_own_locks_never_block(self):
        mid = node(B, {1: Counts(1, 1)})
        store = Store(node(A, {1: Counts(1, 1)}, children=(mid,)))
        out = store.updcap(CapOp.LK_PLUS, B, 1)
        assert isinstance(out, Store)

    def test_bulk_deallocation_removes_children(self):
        store, r1 = initial_store(H, 1).newrgn(H, 1, "a")
        store, r2 = store.newrgn(r1, 1, "b")
        store, r3 = store.newrgn(r1, 1, "c")
        store, loc = store.alloc(r2, 1, Const(5))
        store = store.updcap(CapOp.LK_MINUS, r1, 1)
        store = store.updcap(CapOp.RG_MINUS, r1, 1)
        assert store.region_ids() == {H}
        with pytest.raises(StoreFault):
            store.lookup(loc, 1)

    def test_shared_region_survives_one_free(self):
        store = Store(node(A, {1: Counts(1, 0), 2: Counts(1, 0)}))
        store = store.updcap(CapOp.RG_MINUS, A, 1)
        assert is_live(store, A)
        store = store.updcap(CapOp.RG_MINUS, A, 2)
        assert store.root is None

    def test_free_without_count_faults(self):
        store = Store(node(A, {1: Counts(0, 0), 2: Counts(1, 0)}))
        with pytest.raises(StoreFault) as exc:
            store.updcap(CapOp.RG_MINUS, A, 1)
        assert exc.value.code == "CountUnderflow"

    def test_share_without_count_faults(self):
        store = Store(node(A, {2: Counts(1, 0)}))
        with pytest.raises(StoreFault) as exc:
            store.updcap(CapOp.RG_PLUS, A, 1)
        assert exc.value.code == "CountUnderflow"


class TestTransfer:
    def test_migration(self):
        store = Store(node(A, {1: Counts(1, 1)}))
        eff = Effect.of((A, Capability(1, 1), BOTTOM))
        out = store.transfer(1, 2, eff)
        assert out.find(A).counts_for(1) == Counts(0, 0)
        assert out.find(A).counts_for(2) == Counts(1, 1)

    def test_sharing_leaves_half(self):
        store = Store(node(A, {1: Counts(2, 0)}))
        eff = Effect.of((A, Capability(1, 0, pure=False), BOTTOM))
        out = store.transfer(1, 2, eff)
        assert out.find(A).counts_for(1) == Counts(1, 0)
        assert out.find(A).counts_for(2) == Counts(1, 0)

    def test_empty_transfer_is_identity(self):
        store = Store(node(A, {1: Counts(1, 1)}))
        assert store.transfer(1, 2, Effect()) == store

    def test_insufficient_counts_fault(self):
        store = Store(node(A, {1: Counts(1, 0)}))
        eff = Effect.of((A, Capability(1, 1), BOTTOM))
        with pytest.raises(StoreFault) as exc:
            store.transfer(1, 2, eff)
        assert exc.value.code == "InsufficientDynamicCounts"


class TestMemo:
    def test_a_repeat_returns_the_same_store(self):
        store = Store(node(A, {1: Counts(1, 0)}))
        first = store.updcap(CapOp.LK_PLUS, A, 1)
        assert store.updcap(CapOp.LK_PLUS, A, 1) is first

    def test_a_dropped_result_is_rebuilt_over_its_root(self):
        store = Store(node(A, {1: Counts(1, 0)}))
        first = store.updcap(CapOp.LK_PLUS, A, 1)
        root, gone = first.root, weakref.ref(first)
        del first
        assert gone() is None  # the memo holds result stores weakly
        assert store.updcap(CapOp.LK_PLUS, A, 1).root is root

    def test_a_store_that_is_its_own_result_is_freed(self):
        # No strong cycle through the memo: the reference count frees it.
        store = Store(node(A, {1: Counts(1, 1)}))
        assert store.transfer(1, 2, Effect()) is store
        gone = weakref.ref(store)
        gc.disable()
        try:
            del store
            assert gone() is None
        finally:
            gc.enable()


# -- property suites --------------------------------------------------------------


@st.composite
def stores(draw, max_regions=5, max_threads=3):
    """Random stores: a heap root plus a random tree with random counts."""
    n = draw(st.integers(1, max_regions))
    nodes = {}
    parents = {}
    for i in range(n):
        rid = RegionLit(f"s{i}")
        parents[rid] = draw(st.sampled_from([H] + list(nodes))) if nodes else H
        threads = {}
        for tid in range(1, draw(st.integers(1, max_threads)) + 1):
            threads[tid] = Counts(draw(st.integers(1, 3)), 0)
        nodes[rid] = threads
    # exactly one lock holder per region keeps the base store consistent
    lockers = draw(st.lists(st.sampled_from(list(nodes)), unique=True))

    def build(rid, threads):
        kids = tuple(build(k, nodes[k]) for k in nodes if parents[k] == rid)
        return RegionNode(rid, tuple(sorted(threads.items())), (), kids)

    roots = tuple(build(k, nodes[k]) for k in nodes if parents[k] == H)
    store = Store(RegionNode(H, ((1, Counts(1, 0)),), (), roots))
    # apply the chosen locks through updcap so the invariant is respected
    for rid in lockers:
        tid = draw(st.sampled_from(sorted(t for t, _ in store.find(rid).threads)))
        out = store.updcap(CapOp.LK_PLUS, rid, tid)
        if isinstance(out, Store):
            store = out
    return store


@settings(max_examples=1000, deadline=None)
@given(stores(), st.data())
def test_transfer_conserves_per_region_totals(store: Store, data):
    regions = sorted(store.region_ids() - {H}, key=str)
    if not regions:
        return
    rid = data.draw(st.sampled_from(regions))
    node_ = store.find(rid)
    giver = data.draw(st.sampled_from(sorted(t for t, _ in node_.threads)))
    have = node_.counts_for(giver)
    take = Capability(data.draw(st.integers(0, have.rg)),
                      data.draw(st.integers(0, have.lk)), False)
    taker = data.draw(st.integers(1, 4))
    before = {n.rid: (n.total_rg(), sum(c.lk for _, c in n.threads))
              for n in store.regions()}
    out = store.transfer(giver, taker, Effect.of((rid, take, BOTTOM)))
    after = {n.rid: (n.total_rg(), sum(c.lk for _, c in n.threads))
             for n in out.regions()}
    assert before == after


@settings(max_examples=1000, deadline=None)
@given(stores(), st.data())
def test_mutual_exclusion_preserved_by_random_ops(store: Store, data):
    assert mutual_exclusion_ok(store)
    for _ in range(data.draw(st.integers(1, 8))):
        regions = sorted(store.region_ids(), key=str)
        if not regions:
            break
        rid = data.draw(st.sampled_from(regions))
        tid = data.draw(st.integers(1, 3))
        op = data.draw(st.sampled_from(list(CapOp)))
        try:
            out = store.updcap(op, rid, tid)
        except StoreFault:
            continue
        if isinstance(out, Store):
            store = out
        assert mutual_exclusion_ok(store)


@settings(max_examples=1000, deadline=None)
@given(stores(), st.data())
def test_subtree_removal_completeness(store: Store, data):
    """Once a region's count sum hits zero, its whole subtree resolves to
    nothing: no region of the subtree remains, hence no lookup can succeed."""
    regions = sorted(store.region_ids() - {H}, key=str)
    if not regions:
        return
    rid = data.draw(st.sampled_from(regions))
    doomed = store.subtree_ids(rid)
    node_ = store.find(rid)
    holders = [(t, c) for t, c in node_.threads if c.rg > 0]
    for tid, counts in holders:
        for _ in range(counts.rg):
            out = store.updcap(CapOp.RG_MINUS, rid, tid)
            assert isinstance(out, Store)
            store = out
    assert store.region_ids() & doomed == frozenset()
    # tree shape preserved: every surviving region is reachable exactly once
    seen = [n.rid for n in store.regions()]
    assert len(seen) == len(set(seen))


# -- model-based: `Store` beside a naive model --------------------------------------

#: Shared value objects, so that a repeated write is the same operation.
VALUES = (Const(0), Const(1), Const(2))


class StoreMachine(RuleBasedStateMachine):
    """Drives `Store` beside `store_model.Model` and compares every result,
    fault code and set of lock holders.  Each operation applies to any store
    made so far, so earlier stores are used again: they must be unchanged
    (persistence), and an operation repeated on the same store with the same
    argument objects must return the very result of its first call, while a
    fault must raise again."""

    stores = Bundle("stores")

    def __init__(self):
        super().__init__()
        self.names = [H]  # every region name made so far, freed ones too
        self.locs: list[Location] = []
        self.results: dict[tuple, tuple] = {}

    @initialize(target=stores)
    def start(self):
        return initial_store(H, 1), Model.initial(H, 1)

    @initialize(target=stores)
    def start_with_a_cell(self):
        """Thread 1 locks a region `a` under the root, which holds one cell."""
        store, model = initial_store(H, 1), Model.initial(H, 1)
        store, model = store.newrgn(H, 1, "a")[0], model.newrgn(H, 1, "a")[0]
        (store, loc), model = store.alloc(A, 1, VALUES[0]), model.alloc(A, 1, VALUES[0])[0]
        self.names.append(A)
        self.locs.append(loc)
        return store, model

    def apply(self, pair, name: str, *args):
        store, model = pair
        assert store_snapshot(store) == model.snapshot()
        expected = getattr(model, name)(*args)
        try:
            result = getattr(store, name)(*args)
        except StoreFault as exc:
            assert exc.code == expected
            return multiple()
        assert not isinstance(expected, str), f"{name}{args} should fault {expected}"
        # Keyed by the objects, which the entry keeps alive, as is the first
        # result store: the memo must return that very store.
        key = (id(store), name) + tuple(map(id, args))
        kept = result[0] if isinstance(result, tuple) else result
        assert self.results.setdefault(key, (args, kept))[1] is kept
        model, value = expected
        if name in ("alloc", "newrgn"):
            result, made = result
            assert made == value
            (self.locs if name == "alloc" else self.names).append(made)
        elif name == "lookup" or isinstance(value, Blocked):
            assert result == value
            return multiple()
        assert store_snapshot(result) == model.snapshot()
        return result, model

    def region(self, data) -> RegionLit:
        return data.draw(st.sampled_from(self.names))

    def location(self, pair, data) -> Location:
        """Mostly a cell of this store, else one of another store or none."""
        cells = sorted(pair[1].cells, key=str)
        if cells and data.draw(st.booleans()):
            return data.draw(st.sampled_from(cells))
        made = [Location(data.draw(st.integers(1, 3)), self.region(data))]
        return data.draw(st.sampled_from(self.locs + made))

    @rule(target=stores, pair=stores, idx=st.integers(1, 3), value=st.sampled_from(VALUES),
          data=st.data())
    def alloc(self, pair, idx, value, data):
        return self.apply(pair, "alloc", self.region(data), idx, value)

    @rule(target=stores, pair=stores, tid=st.integers(1, 3), data=st.data())
    def lookup(self, pair, tid, data):
        return self.apply(pair, "lookup", self.location(pair, data), tid)

    @rule(target=stores, pair=stores, value=st.sampled_from(VALUES), tid=st.integers(1, 3),
          data=st.data())
    def update(self, pair, value, tid, data):
        return self.apply(pair, "update", self.location(pair, data), value, tid)

    @rule(target=stores, pair=stores, tid=st.integers(1, 3), data=st.data())
    def newrgn(self, pair, tid, data):
        unused = [r.name for r in self.names if r not in pair[1].parent]
        name = data.draw(st.sampled_from(unused + [f"m{len(self.names)}"]))
        return self.apply(pair, "newrgn", self.region(data), tid, name)

    @rule(target=stores, pair=stores, op=st.sampled_from(list(CapOp)), tid=st.integers(1, 3),
          data=st.data())
    def updcap(self, pair, op, tid, data):
        return self.apply(pair, "updcap", op, self.region(data), tid)

    @rule(target=stores, pair=stores, giver=st.integers(1, 3), taker=st.integers(1, 3),
          data=st.data())
    def transfer(self, pair, giver, taker, data):
        regions = data.draw(st.lists(st.sampled_from(self.names), max_size=2, unique=True))
        eff = Effect((r, Capability(data.draw(st.integers(0, 2)), data.draw(st.integers(0, 1)),
                                    False), BOTTOM) for r in regions)
        return self.apply(pair, "transfer", giver, taker, eff)


TestStoreMachine = StoreMachine.TestCase
TestStoreMachine.settings = settings(max_examples=100, stateful_step_count=30, deadline=None)
