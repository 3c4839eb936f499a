"""Property-based tests on page-cache invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import PageCache, PageKey
from repro.cache.writeback import WritebackDaemon
from repro.core.tags import TagManager
from repro.proc import ProcessTable, Task
from repro.sim import Environment
from repro.units import PAGE_SIZE

DIRTY, INSERT_CLEAN, FREE, SUBMIT, COMPLETE, FAIL, FREE_IN_FLIGHT, TICK = range(8)


class CacheMachine:
    """Drives a cache through random operations, checking invariants.

    Writes are submitted, completed and failed by separate operations,
    so pages stay in flight while other operations dirty, free and
    re-create them.
    """

    def __init__(self, capacity_pages=8):
        self.env = Environment()
        self.tags = TagManager()
        self.cache = PageCache(self.env, self.tags, memory_bytes=capacity_pages * PAGE_SIZE)
        self.daemon = WritebackDaemon(
            self.env, self.cache, fs=None, process_table=ProcessTable(), enabled=False
        )
        self.tasks = [Task(f"t{i}") for i in range(3)]
        #: Pages whose write was submitted and has not finished yet.
        self.in_flight = []

    def apply(self, op):
        kind, inode_id, index, task_index, _cutoff = op
        key = PageKey(inode_id, index)
        if kind == DIRTY:
            self.cache.mark_dirty(key, self.tasks[task_index])
        elif kind == INSERT_CLEAN:
            self.cache.insert_clean(key)
        elif kind == FREE:
            self.cache.free(key)
        elif kind == SUBMIT:
            idle = self.cache.dirty_pages_by_age()
            if idle:
                page = idle[index % len(idle)]
                page.write_submitted()
                self.in_flight.append(page)
        elif kind in (COMPLETE, FAIL) and self.in_flight:
            page = self.in_flight.pop(index % len(self.in_flight))
            if kind == COMPLETE:
                page.write_completed()
            else:
                page.write_failed()
        elif kind == FREE_IN_FLIGHT and self.in_flight:
            # Truncation racing writeback: drop a page whose write is
            # still in flight.
            self.cache.free(self.in_flight[index % len(self.in_flight)].key)
        elif kind == TICK:
            self.env.run(until=self.env.now + 1)

    def check_invariants(self):
        dirty_count = len(self.cache._dirty)
        assert self.cache.dirty_bytes == dirty_count * PAGE_SIZE
        # Every dirty-index entry refers to a live, dirty page.
        for key in self.cache._dirty:
            page = self.cache._pages.get(key)
            assert page is not None and page.dirty
        # Per-inode index is consistent with the global one.
        per_inode = {
            key for index in self.cache._dirty_by_inode.values() for key in index
        }
        assert per_inode == set(self.cache._dirty)
        # Clean LRU never contains dirty pages.
        for key in self.cache._clean_lru:
            page = self.cache._pages.get(key)
            assert page is None or not page.dirty
        # A page the cache no longer holds is never dirty, even while
        # its write is still in flight.
        for page in self.in_flight:
            assert page.under_writeback
            if self.cache._pages.get(page.key) is not page:
                assert not page.dirty
        # Dirty pages are never evicted: cache may exceed capacity only
        # by the number of dirty pages.
        assert len(self.cache._pages) <= self.cache.capacity_pages + dirty_count
        assert self.tags.bytes_allocated >= 0

    def check_expiry_selection(self, cutoff):
        """The daemon's expiry pass equals the full-copy reference."""
        by_age = self.cache.dirty_pages_by_age()
        reference = []
        for page in by_age:
            if page.dirtied_at > cutoff:
                break
            reference.append(page)
        scanned = self.daemon.pages_scanned
        assert self.daemon._expired_pages(cutoff) == reference
        # It pulls the expired pages plus at most the first young one.
        young = 1 if len(by_age) > len(reference) else 0
        assert self.daemon.pages_scanned - scanned == len(reference) + young


operations = st.tuples(
    st.integers(min_value=DIRTY, max_value=TICK),  # op kind
    st.integers(min_value=1, max_value=2),  # inode
    st.integers(min_value=0, max_value=7),  # page index; picks for submit/complete/fail
    st.integers(min_value=0, max_value=2),  # task
    st.integers(min_value=-1, max_value=40),  # expiry cutoff (sim seconds)
)


@settings(max_examples=60, deadline=None)
@given(st.lists(operations, min_size=1, max_size=200))
def test_cache_invariants_under_random_ops(ops):
    machine = CacheMachine()
    for op in ops:
        machine.apply(op)
        machine.check_invariants()
        machine.check_expiry_selection(op[-1])


@settings(max_examples=30, deadline=None)
@given(st.lists(operations, min_size=1, max_size=100))
def test_tag_memory_never_negative(ops):
    machine = CacheMachine()
    for op in ops:
        machine.apply(op)
        assert machine.tags.bytes_allocated >= 0
        assert machine.tags.max_bytes_allocated >= machine.tags.bytes_allocated
