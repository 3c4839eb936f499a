"""Tests for the page cache: dirtying, hooks, eviction, accounting."""

import pytest

from repro.cache import PageCache, PageKey
from repro.core.tags import CauseSet, TagManager
from repro.obs.bus import PageCleaned
from repro.proc import Task
from repro.sim import Environment
from repro.units import MB, PAGE_SIZE


def make_cache(memory=16 * MB):
    env = Environment()
    tags = TagManager()
    return env, tags, PageCache(env, tags, memory_bytes=memory)


def test_cache_requires_a_page_of_memory():
    env = Environment()
    with pytest.raises(ValueError):
        PageCache(env, TagManager(), memory_bytes=100)


def test_mark_dirty_creates_tracked_page():
    env, tags, cache = make_cache()
    task = Task("w")
    page = cache.mark_dirty(PageKey(1, 0), task)
    assert page.dirty
    assert page.causes == CauseSet([task.pid])
    assert cache.dirty_bytes == PAGE_SIZE
    assert cache.dirty_pages == 1


def test_overwrite_merges_causes_and_counts():
    env, tags, cache = make_cache()
    a, b = Task("a"), Task("b")
    key = PageKey(1, 0)
    cache.mark_dirty(key, a)
    page = cache.mark_dirty(key, b)
    assert page.causes == CauseSet([a.pid, b.pid])
    assert cache.dirty_bytes == PAGE_SIZE  # still one dirty page
    assert cache.overwrites == 1


def test_proxy_dirtying_attributes_to_served_tasks():
    env, tags, cache = make_cache()
    app, pdflush = Task("app"), Task("pdflush", kernel=True)
    tags.set_proxy(pdflush, CauseSet([app.pid]))
    page = cache.mark_dirty(PageKey(2, 0), pdflush)
    assert page.causes == CauseSet([app.pid])


def test_buffer_dirty_hook_reports_old_causes():
    env, tags, cache = make_cache()
    a, b = Task("a"), Task("b")
    calls = []
    cache.buffer_dirty_hook = lambda page, old: calls.append((page.key, old))
    key = PageKey(1, 5)
    cache.mark_dirty(key, a)
    cache.mark_dirty(key, b)
    assert calls[0] == (key, CauseSet())
    assert calls[1] == (key, CauseSet([a.pid]))


def test_buffer_free_hook_fires_for_dirty_page_only():
    env, tags, cache = make_cache()
    task = Task("t")
    freed = []
    cache.buffer_free_hook = lambda page: freed.append(page.key)
    dirty_key, clean_key = PageKey(1, 0), PageKey(1, 1)
    cache.mark_dirty(dirty_key, task)
    cache.insert_clean(clean_key)
    cache.free(dirty_key)
    cache.free(clean_key)
    assert freed == [dirty_key]
    assert cache.dirty_bytes == 0


def test_page_cleaned_after_writeback():
    env, tags, cache = make_cache()
    task = Task("t")
    page = cache.mark_dirty(PageKey(1, 0), task)
    page.write_submitted()
    assert page.under_writeback
    page.write_completed()
    assert not page.dirty
    assert cache.dirty_bytes == 0


def test_redirty_during_writeback_stays_dirty():
    env, tags, cache = make_cache()
    task = Task("t")
    key = PageKey(1, 0)
    page = cache.mark_dirty(key, task)
    page.write_submitted()
    cache.mark_dirty(key, task)  # modified mid-flight
    page.write_completed()
    assert page.dirty
    assert cache.dirty_bytes == PAGE_SIZE


def test_freeing_a_page_mid_writeback_keeps_dirty_accounting():
    """The freed page's write completes without cleaning it a second time."""
    env, tags, cache = make_cache()
    task = Task("t")
    cleaned = []
    cache.bus.subscribe(PageCleaned, lambda event: cleaned.append(event.page))
    key = PageKey(1, 0)
    page = cache.mark_dirty(key, task)
    page.write_submitted()
    cache.free(key)
    page.write_completed()
    assert cache.dirty_bytes == 0
    assert cache.dirty_pages == 0
    assert cleaned == []
    assert not page.dirty and page.dirtied_at is None
    # A second dirty page is accounted once, not offset by the first.
    cache.mark_dirty(PageKey(1, 1), task)
    assert cache.dirty_bytes == PAGE_SIZE == cache.dirty_pages * PAGE_SIZE


def test_freed_page_write_completion_keeps_redirtied_page_indexed():
    """A late completion of a freed page must not un-index its successor."""
    env, tags, cache = make_cache()
    task = Task("t")
    key = PageKey(1, 0)
    old = cache.mark_dirty(key, task)
    old.write_submitted()
    cache.free(key)
    new = cache.mark_dirty(key, task)
    assert new is not old
    old.write_completed()
    assert new.dirty
    assert cache.dirty_pages_by_age() == [new]
    assert cache.dirty_pages_of(1) == [new]
    assert cache.dirty_bytes == PAGE_SIZE


def test_dirty_pages_of_filters_by_inode_and_sorts():
    env, tags, cache = make_cache()
    task = Task("t")
    cache.mark_dirty(PageKey(7, 3), task)
    cache.mark_dirty(PageKey(7, 1), task)
    cache.mark_dirty(PageKey(8, 0), task)
    pages = cache.dirty_pages_of(7)
    assert [p.key.index for p in pages] == [1, 3]
    assert cache.dirty_bytes_of(7) == 2 * PAGE_SIZE


def test_dirty_pages_by_age_is_oldest_first():
    env, tags, cache = make_cache()
    task = Task("t")

    def proc():
        cache.mark_dirty(PageKey(1, 10), task)
        yield env.timeout(1)
        cache.mark_dirty(PageKey(1, 5), task)
        yield env.timeout(1)
        cache.mark_dirty(PageKey(2, 0), task)

    env.process(proc())
    env.run()
    ages = [p.key for p in cache.dirty_pages_by_age()]
    assert ages == [PageKey(1, 10), PageKey(1, 5), PageKey(2, 0)]
    assert [p.key for p in cache.dirty_pages_by_age(limit=1)] == [PageKey(1, 10)]


def test_eviction_drops_clean_lru_pages_only():
    env, tags, cache = make_cache(memory=4 * PAGE_SIZE)
    task = Task("t")
    cache.mark_dirty(PageKey(1, 0), task)
    for index in range(1, 8):
        cache.insert_clean(PageKey(1, index))
    assert len(cache) <= 4
    assert cache.contains(PageKey(1, 0))  # dirty page survived
    assert cache.evictions > 0


def test_free_file_drops_all_pages():
    env, tags, cache = make_cache()
    task = Task("t")
    for index in range(5):
        cache.mark_dirty(PageKey(3, index), task)
    cache.insert_clean(PageKey(4, 0))
    assert cache.free_file(3) == 5
    assert cache.dirty_bytes == 0
    assert cache.contains(PageKey(4, 0))


def test_tag_memory_tracked_for_dirty_pages():
    env, tags, cache = make_cache()
    task = Task("t")
    page = cache.mark_dirty(PageKey(1, 0), task)
    assert tags.bytes_allocated > 0
    page.write_submitted()
    page.write_completed()
    assert tags.bytes_allocated == 0
