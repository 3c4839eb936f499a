"""The page cache proper: lookup, dirtying, eviction, accounting."""

from __future__ import annotations

from collections import OrderedDict
from itertools import islice
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional

from repro.cache.page import Page, PageKey
from repro.core.tags import EMPTY_CAUSES, TagManager
from repro.obs.bus import PageCleaned, PageDirtied, PageFreed, StackBus
from repro.units import GB, PAGE_SIZE

if TYPE_CHECKING:  # pragma: no cover
    from repro.proc import Task
    from repro.sim.core import Environment


class PageCache:
    """An LRU page cache with dirty-page accounting and split hooks.

    The split framework's memory-level hooks (`buffer-dirty`,
    `buffer-free`, Table 2) fire from here — published as
    :class:`~repro.obs.bus.PageDirtied` / :class:`PageFreed` events on
    the stack bus, so any number of subscribers (the installed split
    scheduler, span builders, tests) observe them.  The legacy
    single-slot ``buffer_dirty_hook`` / ``buffer_free_hook`` attributes
    remain as properties layered over one bus subscription each.  A
    stack running a pure block-level scheduler has no memory
    subscribers, which is exactly the information gap the paper
    describes.
    """

    def __init__(
        self,
        env: "Environment",
        tags: TagManager,
        memory_bytes: int = 16 * GB,
        bus: Optional[StackBus] = None,
    ):
        if memory_bytes < PAGE_SIZE:
            raise ValueError("cache must hold at least one page")
        self.env = env
        self.tags = tags
        self.memory_bytes = memory_bytes
        self.capacity_pages = memory_bytes // PAGE_SIZE
        self._pages: Dict[PageKey, Page] = {}
        #: LRU of *clean* pages only (dirty pages are never evictable,
        #: so keeping them out of the LRU makes eviction O(1)).
        self._clean_lru: "OrderedDict[PageKey, None]" = OrderedDict()
        # Dirty indexes: insertion order == age order (a page's
        # dirtied_at is set only on the clean->dirty transition).
        self._dirty: "OrderedDict[PageKey, None]" = OrderedDict()
        self._dirty_by_inode: Dict[int, "OrderedDict[PageKey, None]"] = {}
        self.dirty_bytes = 0
        #: The stack event bus (shared with the rest of the stack when
        #: assembled by the OS; private when constructed standalone).
        self.bus = bus if bus is not None else StackBus()
        # Live subscriber lists, cached so the hot paths pay one
        # truthiness check when nobody listens (zero-cost-off).
        self._sub_dirtied = self.bus.listeners(PageDirtied)
        self._sub_cleaned = self.bus.listeners(PageCleaned)
        self._sub_freed = self.bus.listeners(PageFreed)
        # Legacy single-slot hook state (see the properties below).
        self._buffer_dirty_hook = None
        self._buffer_dirty_unsub = None
        self._buffer_free_hook = None
        self._buffer_free_unsub = None
        # Counters
        self.hits = 0
        self.misses = 0
        self.overwrites = 0
        self.evictions = 0

    # -- legacy hook compatibility ------------------------------------------

    @property
    def buffer_dirty_hook(self):
        """Single-slot ``f(page, old_causes)`` shim over the bus.

        Assigning subscribes the callable to :class:`PageDirtied`
        events (replacing a previously assigned hook, preserving the
        historical one-slot semantics); other subscribers attached
        directly to the bus are unaffected.
        """
        return self._buffer_dirty_hook

    @buffer_dirty_hook.setter
    def buffer_dirty_hook(self, fn) -> None:
        if self._buffer_dirty_unsub is not None:
            self._buffer_dirty_unsub()
            self._buffer_dirty_unsub = None
        self._buffer_dirty_hook = fn
        if fn is not None:
            self._buffer_dirty_unsub = self.bus.subscribe(
                PageDirtied, lambda event: fn(event.page, event.old_causes)
            )

    @property
    def buffer_free_hook(self):
        """Single-slot ``f(page)`` shim over :class:`PageFreed` events."""
        return self._buffer_free_hook

    @buffer_free_hook.setter
    def buffer_free_hook(self, fn) -> None:
        if self._buffer_free_unsub is not None:
            self._buffer_free_unsub()
            self._buffer_free_unsub = None
        self._buffer_free_hook = fn
        if fn is not None:
            self._buffer_free_unsub = self.bus.subscribe(
                PageFreed, lambda event: fn(event.page)
            )

    # -- queries ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._pages)

    @property
    def dirty_pages(self) -> int:
        return len(self._dirty)

    @property
    def dirty_fraction(self) -> float:
        return self.dirty_bytes / self.memory_bytes

    def lookup(self, key: PageKey) -> Optional[Page]:
        """Return the cached page or None; refreshes LRU position."""
        page = self._pages.get(key)
        if page is not None:
            if key in self._clean_lru:
                self._clean_lru.move_to_end(key)
            page.last_access = self.env.now
        return page

    def contains(self, key: PageKey) -> bool:
        return key in self._pages

    def dirty_pages_of(self, inode_id: int) -> List[Page]:
        """All dirty pages of one file, in file order."""
        index = self._dirty_by_inode.get(inode_id)
        if not index:
            return []
        pages = [
            self._pages[key] for key in index if not self._pages[key].under_writeback
        ]
        pages.sort(key=lambda p: p.key.index)
        return pages

    def dirty_bytes_of(self, inode_id: int) -> int:
        """Dirty bytes of one file (including pages under writeback)."""
        index = self._dirty_by_inode.get(inode_id)
        return len(index) * PAGE_SIZE if index else 0

    def dirty_pages_by_age(self, limit: Optional[int] = None) -> List[Page]:
        """Dirty pages not under writeback, oldest first."""
        return list(islice(self._iter_dirty_by_age(), limit))

    def _iter_dirty_by_age(self) -> Iterator[Page]:
        """Lazily walk the dirty pages not under writeback, oldest first.

        The caller must stop pulling before anything mutates the dirty
        set (a write completing, a page being dirtied or freed).
        """
        pages = self._pages
        for key in self._dirty:
            page = pages[key]
            if not page.under_writeback:
                yield page

    # -- mutation ----------------------------------------------------------

    def insert_clean(self, key: PageKey, disk_block: Optional[int] = None) -> Page:
        """Add a page read from disk (or reuse the cached one)."""
        page = self._pages.get(key)
        if page is None:
            page = Page(key, self)
            self._pages[key] = page
        if not page.dirty:
            self._clean_lru[key] = None
            self._clean_lru.move_to_end(key)
        self._maybe_evict()
        page.disk_block = disk_block if disk_block is not None else page.disk_block
        page.last_access = self.env.now
        return page

    def mark_dirty(self, key: PageKey, task: "Task") -> Page:
        """Dirty a page on behalf of *task* (or its proxied causes).

        Fires the buffer-dirty hook with the page's previous causes so
        a scheduler can shift accounting to the last writer if its
        policy wants that (§4.2).
        """
        causes = self.tags.current_causes(task)
        page = self._pages.get(key)
        if page is None:
            page = Page(key, self)
            self._pages[key] = page
            self._maybe_evict()
        self._clean_lru.pop(key, None)  # dirty pages leave the clean LRU
        page.last_access = self.env.now

        old_causes = page.causes if page.dirty else EMPTY_CAUSES
        newly_dirty = not page.dirty
        if newly_dirty:
            page.dirty = True
            page.dirtied_at = self.env.now
            page.causes = causes
            self._dirty[key] = None
            self._dirty_by_inode.setdefault(key.inode_id, OrderedDict())[key] = None
            self.dirty_bytes += PAGE_SIZE
        else:
            self.overwrites += 1
            page.causes = page.causes | causes
            if page.under_writeback:
                page.redirtied = True
        self.tags.account_tag(page, page.causes)

        if self._sub_dirtied:
            self.bus.publish(PageDirtied(self.env.now, page, old_causes))
        return page

    def page_cleaned(self, page: Page) -> None:
        """Writeback for *page* finished and it was not re-dirtied."""
        if not page.dirty:
            return
        page.dirty = False
        page.dirtied_at = None
        self._discard_dirty(page.key)
        self.dirty_bytes -= PAGE_SIZE
        self.tags.release_tag(page)
        page.causes = EMPTY_CAUSES
        if page.key in self._pages:
            self._clean_lru[page.key] = None
        if self._sub_cleaned:
            self.bus.publish(PageCleaned(self.env.now, page))
        self._maybe_evict()

    def free(self, key: PageKey) -> Optional[Page]:
        """Drop a page (file deletion / truncation).

        A dirty page freed before writeback fires the buffer-free hook:
        the work disappeared, and schedulers may refund its cost.
        """
        page = self._pages.pop(key, None)
        if page is None:
            return None
        self._clean_lru.pop(key, None)
        if page.dirty:
            # The page leaves the cache clean, so a write still in flight
            # for it completes without touching the cache's accounting.
            page.dirty = False
            page.dirtied_at = None
            self._discard_dirty(key)
            self.dirty_bytes -= PAGE_SIZE
            self.tags.release_tag(page)
            if self._sub_freed:
                self.bus.publish(PageFreed(self.env.now, page))
        return page

    def _discard_dirty(self, key: PageKey) -> None:
        self._dirty.pop(key, None)
        index = self._dirty_by_inode.get(key.inode_id)
        if index is not None:
            index.pop(key, None)
            if not index:
                del self._dirty_by_inode[key.inode_id]

    def drop_volatile(self) -> int:
        """Simulate power loss: every cached page vanishes, no hooks.

        DRAM contents are gone, so dirty pages are lost *without*
        firing buffer-free hooks or releasing tags — there is no
        orderly teardown in a crash.  Returns the number of pages
        dropped.  Only meaningful on a halted environment.
        """
        count = len(self._pages)
        self._pages.clear()
        self._clean_lru.clear()
        self._dirty.clear()
        self._dirty_by_inode.clear()
        self.dirty_bytes = 0
        return count

    def free_file(self, inode_id: int) -> int:
        """Drop every cached page of a file; returns count freed."""
        keys = [key for key in self._pages if key.inode_id == inode_id]
        for key in keys:
            self.free(key)
        return len(keys)

    def _maybe_evict(self) -> None:
        """Evict clean LRU pages when over capacity (O(1) per page)."""
        while len(self._pages) > self.capacity_pages and self._clean_lru:
            key, _ = self._clean_lru.popitem(last=False)
            page = self._pages.get(key)
            if page is None:
                continue
            if page.dirty or page.under_writeback:
                continue  # stale entry; dirty pages are not evictable
            del self._pages[key]
            self.evictions += 1
